//! Output sinks for clique enumeration.
//!
//! Genome-scale runs can produce more maximal cliques than fit anywhere
//! (the paper's motivating 3^(n/3) bound); sinks let callers decide what
//! to retain — everything, counts, or a size histogram — without the
//! enumerators allocating on their behalf.

use crate::{Clique, Vertex};

/// Receives maximal cliques as they are discovered. The enumerators
/// guarantee calls arrive in non-decreasing clique size.
pub trait CliqueSink {
    /// One maximal clique, vertices sorted ascending.
    fn maximal(&mut self, clique: &[Vertex]);

    /// Called by checkpointing drivers right before a checkpoint is
    /// persisted: a durable sink must make everything received so far
    /// durable too, or a crash after the checkpoint would lose cliques
    /// the resumed run will never re-emit. In-memory sinks (the
    /// default) have nothing to do.
    fn flush_barrier(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Retains every maximal clique.
#[derive(Default, Debug)]
pub struct CollectSink {
    /// The collected cliques, in arrival order.
    pub cliques: Vec<Clique>,
}

impl CliqueSink for CollectSink {
    fn maximal(&mut self, clique: &[Vertex]) {
        self.cliques.push(clique.to_vec());
    }
}

/// Counts maximal cliques without storing them.
#[derive(Default, Debug)]
pub struct CountSink {
    /// Number of maximal cliques seen.
    pub count: usize,
}

impl CliqueSink for CountSink {
    fn maximal(&mut self, _clique: &[Vertex]) {
        self.count += 1;
    }
}

/// Histogram of maximal clique sizes.
#[derive(Default, Debug)]
pub struct HistogramSink {
    /// `sizes[s]` = number of maximal cliques of size `s`.
    pub sizes: Vec<usize>,
}

impl HistogramSink {
    /// Total cliques across all sizes.
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Largest size with a nonzero count.
    pub fn max_size(&self) -> usize {
        self.sizes.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

impl CliqueSink for HistogramSink {
    fn maximal(&mut self, clique: &[Vertex]) {
        let s = clique.len();
        if self.sizes.len() <= s {
            self.sizes.resize(s + 1, 0);
        }
        self.sizes[s] += 1;
    }
}

impl<S: CliqueSink + ?Sized> CliqueSink for &mut S {
    fn maximal(&mut self, clique: &[Vertex]) {
        (**self).maximal(clique);
    }

    fn flush_barrier(&mut self) -> std::io::Result<()> {
        (**self).flush_barrier()
    }
}

/// Streams cliques to any writer as `size\tv1 v2 …` lines — the
/// terabyte-scale answer to "where do 3^(n/3) cliques go": not in RAM.
pub struct WriterSink<W: std::io::Write> {
    writer: std::io::BufWriter<W>,
    /// Cliques written so far.
    pub written: usize,
    /// First I/O error encountered (subsequent cliques are dropped;
    /// check after the run).
    pub error: Option<std::io::Error>,
}

impl<W: std::io::Write> WriterSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        WriterSink {
            writer: std::io::BufWriter::new(writer),
            written: 0,
            error: None,
        }
    }

    /// Flush and unwrap, surfacing any deferred error.
    pub fn finish(mut self) -> std::io::Result<usize> {
        use std::io::Write as _;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.written)
    }
}

impl<W: std::io::Write> CliqueSink for WriterSink<W> {
    fn maximal(&mut self, clique: &[Vertex]) {
        use std::io::Write as _;
        if self.error.is_some() {
            return;
        }
        let mut line = String::with_capacity(clique.len() * 7 + 8);
        line.push_str(&clique.len().to_string());
        line.push('\t');
        for (i, v) in clique.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&v.to_string());
        }
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
            return;
        }
        self.written += 1;
    }

    fn flush_barrier(&mut self) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(e) = self.error.take() {
            self.error = Some(std::io::Error::new(e.kind(), e.to_string()));
            return Err(e);
        }
        self.writer.flush()?;
        self.writer.get_mut().flush()
    }
}

/// Adapts a closure into a sink.
pub struct FnSink<F: FnMut(&[Vertex])>(pub F);

impl<F: FnMut(&[Vertex])> CliqueSink for FnSink<F> {
    fn maximal(&mut self, clique: &[Vertex]) {
        (self.0)(clique);
    }
}

/// Fans every clique out to two sinks, `.0` before `.1` — for runs that
/// want both a durable artifact and a live view (index + text file,
/// writer + histogram). `flush_barrier` uses the same order and stops
/// at the first failure: at a checkpoint barrier `.0` is durable before
/// `.1` is asked to be, so callers should put the sink whose durability
/// the checkpoint depends on first.
#[derive(Default, Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: CliqueSink, B: CliqueSink> CliqueSink for TeeSink<A, B> {
    fn maximal(&mut self, clique: &[Vertex]) {
        self.0.maximal(clique);
        self.1.maximal(clique);
    }

    fn flush_barrier(&mut self) -> std::io::Result<()> {
        self.0.flush_barrier()?;
        self.1.flush_barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_and_count() {
        let mut c = CollectSink::default();
        c.maximal(&[1, 2]);
        c.maximal(&[3]);
        assert_eq!(c.cliques, vec![vec![1, 2], vec![3]]);
        let mut n = CountSink::default();
        n.maximal(&[1]);
        n.maximal(&[2, 3, 4]);
        assert_eq!(n.count, 2);
    }

    #[test]
    fn histogram() {
        let mut h = HistogramSink::default();
        h.maximal(&[0, 1, 2]);
        h.maximal(&[5, 6, 7]);
        h.maximal(&[9]);
        assert_eq!(h.sizes[3], 2);
        assert_eq!(h.sizes[1], 1);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max_size(), 3);
        assert_eq!(HistogramSink::default().max_size(), 0);
    }

    #[test]
    fn writer_sink_streams_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = WriterSink::new(&mut buf);
            sink.maximal(&[3, 5, 8]);
            sink.maximal(&[1]);
            assert_eq!(sink.finish().unwrap(), 2);
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "3\t3 5 8\n1\t1\n");
    }

    #[test]
    fn writer_sink_defers_errors() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = WriterSink::new(Broken);
        // BufWriter absorbs small writes; force a flush through finish
        for _ in 0..10_000 {
            sink.maximal(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        assert!(sink.finish().is_err());
    }

    #[test]
    fn flush_barrier_pushes_buffered_lines_down() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // default impl is a no-op
        assert!(CollectSink::default().flush_barrier().is_ok());
        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let mut sink = WriterSink::new(shared.clone());
        sink.maximal(&[1, 2, 3]);
        assert!(
            shared.0.borrow().is_empty(),
            "one short line should still sit in the BufWriter"
        );
        sink.flush_barrier().unwrap();
        assert_eq!(&*shared.0.borrow(), b"3\t1 2 3\n");
    }

    #[test]
    fn closures_are_sinks() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink(|c: &[Vertex]| seen.push(c.len()));
            sink.maximal(&[1, 2, 3]);
        }
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn tee_fans_out_to_both_sinks() {
        let mut tee = TeeSink(CollectSink::default(), HistogramSink::default());
        tee.maximal(&[0, 1, 2]);
        tee.maximal(&[4, 5]);
        tee.maximal(&[6, 7, 8]);
        assert_eq!(tee.0.cliques.len(), 3);
        assert_eq!(tee.1.total(), 3);
        assert_eq!(tee.1.sizes[3], 2);
        assert_eq!(tee.1.max_size(), 3);
    }

    #[test]
    fn tee_composes_with_the_mut_forwarding_impl() {
        // The `&mut S` blanket impl lets a tee borrow sinks owned by the
        // caller — the wiring `gsb index --text-out` uses.
        let mut collect = CollectSink::default();
        let mut count = CountSink::default();
        {
            let mut tee = TeeSink(&mut collect, &mut count);
            tee.maximal(&[1, 2]);
            tee.maximal(&[3, 4, 5]);
            tee.flush_barrier().unwrap();
        }
        assert_eq!(collect.cliques, vec![vec![1, 2], vec![3, 4, 5]]);
        assert_eq!(count.count, 2);
    }

    #[test]
    fn tee_flush_barrier_order_is_first_then_second() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Probe {
            name: &'static str,
            log: Rc<RefCell<Vec<&'static str>>>,
            fail: bool,
        }
        impl CliqueSink for Probe {
            fn maximal(&mut self, _clique: &[Vertex]) {}
            fn flush_barrier(&mut self) -> std::io::Result<()> {
                self.log.borrow_mut().push(self.name);
                if self.fail {
                    Err(std::io::Error::other("barrier failed"))
                } else {
                    Ok(())
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut tee = TeeSink(
            Probe {
                name: "first",
                log: Rc::clone(&log),
                fail: false,
            },
            Probe {
                name: "second",
                log: Rc::clone(&log),
                fail: false,
            },
        );
        tee.flush_barrier().unwrap();
        assert_eq!(&*log.borrow(), &["first", "second"]);

        // A failing first sink short-circuits: the second sink's
        // barrier must not run (its durability claim would be a lie).
        log.borrow_mut().clear();
        let mut tee = TeeSink(
            Probe {
                name: "first",
                log: Rc::clone(&log),
                fail: true,
            },
            Probe {
                name: "second",
                log: Rc::clone(&log),
                fail: false,
            },
        );
        assert!(tee.flush_barrier().is_err());
        assert_eq!(&*log.borrow(), &["first"]);
    }

    #[test]
    fn tee_writer_sink_flush_ordering_is_observable() {
        use std::cell::RefCell;
        use std::rc::Rc;
        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (a, b) = (Shared::default(), Shared::default());
        let mut tee = TeeSink(WriterSink::new(a.clone()), WriterSink::new(b.clone()));
        tee.maximal(&[7, 8, 9]);
        // Both lines still sit in the BufWriters until the barrier.
        assert!(a.0.borrow().is_empty() && b.0.borrow().is_empty());
        tee.flush_barrier().unwrap();
        assert_eq!(&*a.0.borrow(), b"3\t7 8 9\n");
        assert_eq!(&*b.0.borrow(), b"3\t7 8 9\n");
    }
}
