//! The heap peak of the §3 correlate-and-threshold path, counted by a
//! global allocator, so the gate reads the same on any host whatever its
//! speed or load. This binary holds one test: another test running
//! beside it would allocate into the same counters.

use gsb_expr::threshold::{graph_at_density, threshold_for_density};
use gsb_expr::{spearman_matrix, ExpressionMatrix, SynthConfig, SynthModule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to `System`, keeping the live byte count and its peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc` is passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as a move: both blocks may be live during the copy.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn correlate_and_threshold_peak_near_the_packed_matrix() {
    let (genes, conditions) = (2_000, 40);
    let (m, _) = SynthConfig {
        genes,
        conditions,
        modules: (0..20)
            .map(|k| SynthModule {
                size: 8 + k % 8,
                strength: 0.9,
            })
            .collect(),
        noise: 1.0,
        seed: 3,
    }
    .generate();
    let packed = genes * (genes - 1) / 2 * std::mem::size_of::<f64>();

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let corr = spearman_matrix(&m);
    let (graph, _) = graph_at_density(&corr, 0.002);
    let peak = PEAK.load(Relaxed) - before;
    drop(corr);
    let with_graph = LIVE.load(Relaxed);
    drop(graph);
    let graph_bytes = with_graph - LIVE.load(Relaxed);

    let limit = packed + packed / 4 + graph_bytes;
    assert!(
        peak < limit,
        "peak {peak} B over the limit {limit} B \
         (packed matrix {packed} B, graph {graph_bytes} B)"
    );

    // Heavily tied data: with 2,000 genes × 3 integer-valued conditions
    // the cut at density 0.05 is |ρ| = 1, shared by 288,249 of the
    // 1,999,000 pairs, all in the cut's bucket. The density cut keeps
    // its three 2¹⁶-entry arrays (1.5 MiB) and copies none of them.
    let mut rng = gsb_rng::SplitMix64::new(5);
    let data = (0..2_000 * 3).map(|_| rng.below(3) as f64).collect();
    let corr = spearman_matrix(&ExpressionMatrix::from_rows(2_000, 3, data));
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let tau = threshold_for_density(&corr, 0.05);
    let scratch = PEAK.load(Relaxed) - before;
    let limit = 2 << 20;
    assert!(
        scratch < limit,
        "the density cut took {scratch} B of scratch, over {limit} B (tau {tau})"
    );
}
