//! Scoped data parallelism for the all-pairs stages (correlation,
//! Kendall τ, alignment distances). Their result is a packed upper
//! triangle: row `i` holds the pairs `(i, i+1..n)` back to back, so rows
//! shrink as `i` grows.

use std::panic::resume_unwind;
use std::thread;

/// The packed upper triangle over `n` items, filled in place:
/// `row(i, out)` writes pair `(i, i + 1 + d)` to `out[d]`, for every
/// `i in 0..n`. The rows are cut into contiguous ranges of near-equal
/// pair count, one per available core, never one thread per row; each
/// thread writes its own range of the one result, so nothing is
/// assembled or copied afterwards. A panic in `row` is re-raised on the
/// caller.
pub fn packed_upper<T, F>(n: usize, row: F) -> Vec<T>
where
    T: Clone + Default + Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let pairs = n * n.saturating_sub(1) / 2;
    let mut packed = vec![T::default(); pairs];
    let threads = thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(pairs);
    if threads <= 1 {
        fill_rows(0..n, n, &mut packed, &row);
        return packed;
    }
    thread::scope(|s| {
        let row = &row;
        let mut rest = packed.as_mut_slice();
        let (mut start, mut done) = (0, 0);
        let mut handles = Vec::with_capacity(threads);
        for t in 1..=threads {
            // Rows start..end take the pairs up to the t-th share.
            let (mut end, mut len) = (start, 0);
            while end < n && done + len < pairs * t / threads {
                len += n - 1 - end;
                end += 1;
            }
            if t == threads {
                end = n;
            }
            let (mine, tail) = rest.split_at_mut(len);
            rest = tail;
            let rows = start..end;
            handles.push(s.spawn(move || fill_rows(rows, n, mine, row)));
            (start, done) = (end, done + len);
        }
        for h in handles {
            h.join().unwrap_or_else(|panic| resume_unwind(panic));
        }
    });
    packed
}

/// Hand each row of `rows` its slice of `out`, which holds exactly
/// those rows' pairs.
fn fill_rows<T>(
    rows: std::ops::Range<usize>,
    n: usize,
    mut out: &mut [T],
    row: &impl Fn(usize, &mut [T]),
) {
    for i in rows {
        let (this, rest) = std::mem::take(&mut out).split_at_mut(n - 1 - i);
        row(i, this);
        out = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_back_in_order() {
        for n in 0..40 {
            let got = packed_upper(n, |i, out| {
                for (j, slot) in (i + 1..).zip(out) {
                    *slot = i * 100 + j;
                }
            });
            let want: Vec<usize> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| i * 100 + j))
                .collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "row 7")]
    fn a_row_panic_reaches_the_caller() {
        packed_upper::<u8, _>(16, |i, _| assert!(i != 7, "row 7"));
    }
}
