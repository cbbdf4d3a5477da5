//! Ablation A4: plain vs. WAH-compressed bitmaps (the paper's §4
//! future-work direction, built). AND + any-bit tests at genome scale
//! (n = 12,422) across sparsities, plus the space ratio printed once.
//!
//! Extended with the levelwise-backend ablation: the same generic
//! enumeration kernel run over dense and WAH neighbor sets on
//! the planted-module workload whose single measured pass
//! `bench_baseline` commits to `BENCH_backends.json`.

use gsb_bench::timer::bench;
use gsb_bitset::{BitSet, NeighborSet, WahBitSet};
use gsb_core::sink::CountSink;
use gsb_core::{CliqueEnumerator, EnumConfig};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use gsb_rng::SplitMix64;
use std::hint::black_box;

const N: usize = 12_422;

fn random_set(density: f64, seed: u64) -> BitSet {
    let mut rng = SplitMix64::new(seed);
    let mut s = BitSet::new(N);
    for i in 0..N {
        if rng.chance(density) {
            s.insert(i);
        }
    }
    s
}

fn bench_wah() {
    for &density in &[0.0001f64, 0.001, 0.01, 0.1] {
        let a = random_set(density, 1);
        let b = random_set(density, 2);
        let wa = WahBitSet::from_bitset(&a);
        let wb = WahBitSet::from_bitset(&b);
        println!(
            "density {density}: plain {} words, WAH {} words (ratio {:.1}x)",
            gsb_bitset::words_for(N),
            wa.code_words(),
            wa.compression_ratio()
        );
        let mut out = BitSet::new(N);
        bench(&format!("wah_vs_plain/plain_and_any/{density}"), || {
            BitSet::and_into(black_box(&a), black_box(&b), &mut out);
            out.any()
        });
        bench(&format!("wah_vs_plain/wah_and_any/{density}"), || {
            wa.and(black_box(&wb)).any()
        });
        bench(&format!("wah_vs_plain/wah_intersects/{density}"), || {
            wa.intersects(black_box(&wb))
        });
    }
}

fn count_levelwise<S: NeighborSet>(g: &BitGraph) -> usize {
    let mut sink = CountSink::default();
    CliqueEnumerator::<S>::with_backend(EnumConfig::default()).enumerate(g, &mut sink);
    sink.count
}

fn bench_backends() {
    let g = planted(
        400,
        0.008,
        &[Module::clique(13), Module::clique(11), Module::clique(9)],
        21,
    );
    bench("levelwise_backends/dense", || count_levelwise::<BitSet>(&g));
    bench("levelwise_backends/wah", || {
        count_levelwise::<WahBitSet>(&g)
    });
}

fn main() {
    bench_wah();
    bench_backends();
}
