//! Differential oracle for the routed tier: a healthy `gsb router` in
//! front of the two shards of `split_index(…, 2)`, one replica each,
//! must answer every query with the same status and the same bytes as
//! one `gsb serve` over the unsplit index.
//!
//! The fixtures are chosen for the places where merging shard answers
//! can go wrong:
//!
//! * the planted graph of `router_chaos` (scatter paths, ordinary ids);
//! * K3,3,3,3, whose 81 maximal cliques all have size 4, so the top
//!   size run spans the shard boundary (`/max` must come from the shard
//!   where that run starts);
//! * 60 triangles plus 20 disjoint K6, split 40/40, so the second shard
//!   covers sizes 3..6 but holds nothing of size 4 or 5 (a shard that
//!   matches nothing must not lend its `first_id` to the answer).
//!
//! The requests are every `/get/id` plus one past the end, `/max`,
//! `/containing/v` for every v up to n at three limits, `/overlap/v/w`
//! for a seeded sample of pairs, every `/size/lo/hi` with
//! `0 ≤ lo ≤ hi ≤ ω+1`, and the 400, 404 and 405 cases.

mod support;

use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use gsb_index::{split_index, BuildOptions, ServeConfig};
use gsb_index::{Router, RouterConfig, ShardSpec, Topology};
use gsb_rng::SplitMix64;
use support::{build_index, request, serve, tmp};

/// Index `g`, serve it whole and as a routed 2-shard tier, and check
/// that both answer every request of the oracle's list identically.
fn check_equivalence(tag: &str, g: &BitGraph) {
    let golden = tmp(&format!("{tag}_golden"));
    let mut truth = CollectSink::default();
    CliqueEnumerator::new(EnumConfig::default()).enumerate(g, &mut truth);
    build_index(g, &golden, BuildOptions::default());
    let shards_dir = tmp(&format!("{tag}_shards"));
    let summaries = split_index(&golden, &shards_dir, 2).expect("split index");

    let config = ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    };
    let single = serve(&golden, config.clone());
    let backends: Vec<_> = summaries
        .iter()
        .map(|s| serve(&s.dir, config.clone()))
        .collect();
    let shards = summaries
        .iter()
        .zip(&backends)
        .map(|(s, b)| ShardSpec::new(s, vec![b.addr().to_string()]))
        .collect();
    let router = Router::bind(
        Topology { shards },
        "127.0.0.1:0",
        RouterConfig {
            threads: 2,
            ..RouterConfig::default()
        },
    )
    .and_then(Router::start)
    .expect("start router");

    let n = g.n();
    let omega = truth.cliques.iter().map(Vec::len).max().unwrap_or(0);
    let mut lines = vec!["GET /max".to_string()];
    for id in 0..=truth.cliques.len() {
        lines.push(format!("GET /get/{id}"));
    }
    for v in 0..=n {
        for query in ["", "?limit=1", "?limit=0"] {
            lines.push(format!("GET /containing/{v}{query}"));
        }
    }
    let mut rng = SplitMix64::new(0x0E0A_11CE);
    let mut pairs: Vec<(usize, usize)> = (0..48)
        .map(|_| (rng.below(n + 1), rng.below(n + 1)))
        .collect();
    // Pairs inside a clique, so some overlaps are not empty.
    pairs.extend(
        truth
            .cliques
            .iter()
            .step_by(3)
            .map(|c| (c[0] as usize, c[c.len() - 1] as usize)),
    );
    for (v, w) in pairs {
        lines.push(format!("GET /overlap/{v}/{w}"));
        lines.push(format!("GET /overlap/{v}/{w}?limit=1"));
    }
    for lo in 0..=omega + 1 {
        for hi in lo..=omega + 1 {
            lines.push(format!("GET /size/{lo}/{hi}"));
            lines.push(format!("GET /size/{lo}/{hi}?limit=1"));
        }
    }
    for bad in [
        "GET /get/x",
        "GET /containing/x",
        "GET /size/5/3",
        "GET /overlap/1/x",
        "GET /nope",
        "GET /get/1/2",
        "POST /max",
        "DELETE /get/0",
    ] {
        lines.push(bad.to_string());
    }

    let mut differ = Vec::new();
    for line in &lines {
        let response = |addr| {
            let (status, _, body) =
                request(addr, line, &[]).unwrap_or_else(|| panic!("no response to {line}"));
            (status, body)
        };
        let (want, got) = (response(single.addr()), response(router.addr()));
        if want != got {
            differ.push(format!(
                "{line}\n  server: {} {}\n  router: {} {}",
                want.0, want.1, got.0, got.1
            ));
        }
    }

    router.wait().expect("router run");
    for server in backends.into_iter().chain([single]) {
        server.wait().expect("server run");
    }
    assert!(
        differ.is_empty(),
        "{tag}: {} of {} requests answered differently:\n{}",
        differ.len(),
        lines.len(),
        differ.join("\n")
    );
}

#[test]
fn routed_answers_equal_one_server_on_the_planted_graph() {
    let g = planted(60, 0.07, &[Module::clique(8), Module::clique(5)], 23);
    check_equivalence("planted", &g);
}

#[test]
fn routed_max_comes_from_where_the_top_size_run_starts() {
    // K3,3,3,3: parts {0,1,2}, {3,4,5}, {6,7,8}, {9,10,11}.
    let mut g = BitGraph::new(12);
    for u in 0..12 {
        for v in u + 1..12 {
            if u / 3 != v / 3 {
                g.add_edge(u, v);
            }
        }
    }
    check_equivalence("k3333", &g);
}

#[test]
fn a_shard_that_matches_no_size_adds_no_first_id() {
    // 60 triangles, then 20 disjoint K6: 80 cliques, split 40/40.
    let mut g = BitGraph::new(60 * 3 + 20 * 6);
    let mut add_clique = |first: usize, k: usize| {
        for u in first..first + k {
            for v in u + 1..first + k {
                g.add_edge(u, v);
            }
        }
    };
    for t in 0..60 {
        add_clique(3 * t, 3);
    }
    for k in 0..20 {
        add_clique(180 + 6 * k, 6);
    }
    check_equivalence("gap", &g);
}
