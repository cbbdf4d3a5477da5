//! Integration tests for the serving observability stack: the
//! admission-exempt `/metrics` + `/metrics-json` endpoints, trace-id
//! round-trips, and the structured access + slow-query logs.

mod support;

use gsb_graph::generators::{planted, Module};
use gsb_index::{BuildOptions, Running, ServeConfig, ServeReport};
use gsb_telemetry::access::AccessRecord;
use std::path::Path;
use support::{build_index, get, request, serve, tmp};

/// Index the fixture graph into `dir` and serve it with `config`.
fn serve_fixture(dir: &Path, config: ServeConfig) -> Running<ServeReport> {
    let g = planted(60, 0.08, &[Module::clique(8), Module::clique(5)], 21);
    build_index(&g, dir, BuildOptions::default());
    serve(dir, config)
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .find_map(|l| l.strip_prefix(&format!("{name}: ")))
        .map(str::trim)
}

fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit())
}

/// The value of the first sample line starting with `prefix`.
fn sample_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_and_health_stay_answerable_with_a_zero_queue() {
    // queue_limit 0: the admission queue is *always* full, so every
    // connection takes the inline overload path. Probes and scrapes
    // must still be answered in full; queries shed typed 503s. This is
    // the strongest form of the exemption contract — an operator can
    // watch a completely saturated server.
    let dir = tmp("zeroq");
    let server = serve_fixture(
        &dir,
        ServeConfig {
            threads: 1,
            queue_limit: 0,
            rate_limit: Some(0.001), // near-zero budget: exemption must also skip the bucket
            rate_burst: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // Queries cannot get in at all...
    for path in ["/stats", "/max", "/containing/3"] {
        let (status, head, body) = get(addr, path).expect("response");
        assert_eq!(status, 503, "{path}: {body}");
        assert!(header(&head, "Retry-After").is_some(), "{path}: {head}");
    }
    // ...but probes and scrapes answer 200 every time, with trace ids.
    for round in 0..3 {
        let (status, head, _) = get(addr, "/health").expect("response");
        assert_eq!(status, 200, "health round {round}");
        let trace = header(&head, "X-Gsb-Trace").expect("traced inline");
        assert!(is_hex16(trace), "generated trace id: {trace:?}");

        let (status, _, body) = get(addr, "/metrics").expect("response");
        assert_eq!(status, 200, "metrics round {round}");
        assert!(body.starts_with("# HELP"), "not an exposition: {body:?}");

        let (status, _, body) = get(addr, "/metrics-json").expect("response");
        assert_eq!(status, 200, "metrics-json round {round}");
        assert!(
            gsb_telemetry::json::parse(&body).is_ok(),
            "metrics-json must parse: {body:?}"
        );
    }
    // The scrape sees its own shed counters: the three 503s above.
    let (_, _, body) = get(addr, "/metrics").expect("response");
    let shed = sample_value(&body, "gsb_http_shed_total{cause=\"queue_full\"}")
        .expect("queue_full shed counter exported");
    assert!(shed >= 3.0, "shed counter: {shed}");

    let report = server.wait().expect("run");
    assert!(report.shed >= 3, "sheds counted: {}", report.shed);
}

#[test]
fn metrics_exposition_is_well_formed_and_counters_advance() {
    let dir = tmp("promtext");
    let server = serve_fixture(&dir, ServeConfig::default());
    let addr = server.addr();

    // Drive every endpoint so each family has samples.
    for path in [
        "/health",
        "/stats",
        "/max",
        "/containing/2",
        "/size/3/5",
        "/overlap/1/2",
    ] {
        let (status, _, _) = get(addr, path).expect("response");
        assert_eq!(status, 200, "{path}");
    }
    let (status, head, first) = get(addr, "/metrics").expect("response");
    assert_eq!(status, 200);
    assert!(
        header(&head, "Content-Type").is_some_and(|ct| ct.starts_with("text/plain; version=0.0.4")),
        "{head}"
    );

    // Every family is declared (HELP then TYPE) before its samples,
    // and sample names extend a declared family name.
    let mut declared: Vec<String> = Vec::new();
    for line in first.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            assert!(!declared.contains(&name), "family {name} declared twice");
            declared.push(name);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert_eq!(
                declared.last().map(String::as_str),
                Some(name),
                "TYPE right after HELP"
            );
        } else if !line.is_empty() {
            let name: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == ':')
                .collect();
            assert!(
                declared.iter().any(|d| {
                    name == *d
                        || name == format!("{d}_bucket")
                        || name == format!("{d}_sum")
                        || name == format!("{d}_count")
                }),
                "sample {name} has no declared family"
            );
        }
    }

    // Histogram invariants for one endpoint: cumulative buckets are
    // non-decreasing and the +Inf bucket equals _count.
    let buckets: Vec<f64> = first
        .lines()
        .filter(|l| l.starts_with("gsb_http_request_duration_ns_bucket{endpoint=\"health\""))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "no health histogram buckets");
    for pair in buckets.windows(2) {
        assert!(pair[1] >= pair[0], "buckets not cumulative: {buckets:?}");
    }
    let inf = first
        .lines()
        .find(|l| {
            l.starts_with("gsb_http_request_duration_ns_bucket{endpoint=\"health\"")
                && l.contains("le=\"+Inf\"")
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .expect("+Inf bucket");
    let count = sample_value(
        &first,
        "gsb_http_request_duration_ns_count{endpoint=\"health\"}",
    )
    .expect("_count sample");
    assert_eq!(inf, count, "+Inf bucket must close the histogram");

    // A second scrape after more traffic: counters only go up, and the
    // scrape endpoint counts itself.
    let (_, _, _) = get(addr, "/stats").expect("response");
    let (_, _, second) = get(addr, "/metrics").expect("response");
    for (metric, min_delta) in [
        ("gsb_http_requests_total{endpoint=\"stats\"}", 1.0),
        ("gsb_http_requests_total{endpoint=\"metrics\"}", 1.0),
        ("gsb_http_connections_total", 2.0),
    ] {
        let a = sample_value(&first, metric).unwrap_or_else(|| panic!("{metric} in first"));
        let b = sample_value(&second, metric).unwrap_or_else(|| panic!("{metric} in second"));
        assert!(b >= a + min_delta, "{metric} did not advance: {a} -> {b}");
    }
    // Index IO counters made it into the exposition.
    assert!(
        sample_value(&second, "gsb_index_postings_reads_total").is_some_and(|v| v > 0.0),
        "postings reads exported"
    );
    assert!(second.contains("gsb_uptime_seconds"), "uptime gauge");
    assert!(
        second.contains("gsb_index_generation 0"),
        "generation gauge"
    );

    server.wait().expect("run");
}

#[test]
fn trace_ids_round_trip_and_land_in_the_access_log() {
    let dir = tmp("tracing");
    let access_path = dir.join("access.jsonl");
    let slow_path = dir.join("access.jsonl.slow");
    let server = serve_fixture(
        &dir,
        ServeConfig {
            threads: 2,
            access_log: Some(access_path.clone()),
            // Threshold 0ms: every request is "slow", so the tee is
            // deterministic.
            slow_query_ms: Some(0),
            slow_query_log: Some(slow_path.clone()),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // Client-supplied ids are honored verbatim...
    let (status, head, _) =
        request(addr, "GET /stats", &[("X-Gsb-Trace", "req-42.a_b")]).expect("response");
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Gsb-Trace"), Some("req-42.a_b"));
    let ns: u64 = header(&head, "X-Gsb-Trace-Ns")
        .expect("total ns header")
        .parse()
        .expect("numeric ns");
    assert!(ns > 0);
    // ...absent ones are generated (distinct 16-hex values)...
    let (_, head_a, _) = get(addr, "/max").expect("response");
    let (_, head_b, _) = get(addr, "/max").expect("response");
    let a = header(&head_a, "X-Gsb-Trace").unwrap();
    let b = header(&head_b, "X-Gsb-Trace").unwrap();
    assert!(is_hex16(a) && is_hex16(b), "{a:?} {b:?}");
    assert_ne!(a, b, "trace ids must be distinct");
    // ...and ids that could smuggle header bytes are replaced.
    let (_, head_bad, _) =
        request(addr, "GET /health", &[("X-Gsb-Trace", "bad id !!")]).expect("response");
    let replaced = header(&head_bad, "X-Gsb-Trace").unwrap();
    assert!(is_hex16(replaced), "invalid id not replaced: {replaced:?}");

    server.wait().expect("run");

    // Every line parses; the client id round-tripped to disk with the
    // span stages attached.
    let text = std::fs::read_to_string(&access_path).expect("access log written");
    let records: Vec<AccessRecord> = text
        .lines()
        .map(|l| AccessRecord::parse(l).unwrap_or_else(|| panic!("unparseable line: {l:?}")))
        .collect();
    assert!(
        records.len() >= 4,
        "one line per request: {}",
        records.len()
    );
    let stats_rec = records
        .iter()
        .find(|r| r.trace == "req-42.a_b")
        .expect("client trace id logged");
    assert_eq!(stats_rec.endpoint, "stats");
    assert_eq!(stats_rec.status, 200);
    assert!(stats_rec.total_ns > 0);
    assert!(stats_rec.bytes > 0);
    for stage in ["queue", "parse", "admission", "respond"] {
        assert!(
            stats_rec.stages.iter().any(|(name, _)| name == stage),
            "stage {stage} missing: {:?}",
            stats_rec.stages
        );
    }
    // The generated ids from the wire match the logged ones.
    for id in [a, b, replaced] {
        assert!(
            records.iter().any(|r| r.trace == id),
            "trace {id} not in the log"
        );
    }

    // The 0ms threshold put every request in the slow log too, and
    // those lines are ordinary access records.
    let slow_text = std::fs::read_to_string(&slow_path).expect("slow log written");
    assert_eq!(slow_text.lines().count(), records.len());
    for line in slow_text.lines() {
        assert!(AccessRecord::parse(line).is_some(), "slow line: {line:?}");
    }
}
