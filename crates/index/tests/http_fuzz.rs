//! HTTP parser hardening: deterministic fuzz of the request surface.
//!
//! A public query server meets clients that are broken, hostile, or
//! both. These tests drive seeded-random malformed traffic — binary
//! garbage, truncated request lines, oversized targets, wrong methods,
//! header floods, slow-loris dribbles — through a real socket and hold
//! the server to its contract: every answered request gets a *typed*
//! status with an exact `Content-Length`, `Connection: close`, and
//! `Retry-After` on every error; the server never panics and never
//! hangs; and after the storm it still answers `/health` with 200.
//!
//! The corpus is derived from `SplitMix64` seeds, so a failure
//! reproduces from its seed alone.

mod support;

use gsb_graph::generators::{planted, Module};
use gsb_index::{BuildOptions, Running, ServeConfig, ServeReport};
use gsb_rng::SplitMix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;
use support::{build_index, serve, tmp};

/// Build a small index and start a server with a tight header cap and
/// request budget, so the defensive paths are reachable in test time.
fn start_server(dir: &Path) -> Running<ServeReport> {
    let g = planted(40, 0.08, &[Module::clique(7), Module::clique(5)], 17);
    build_index(&g, dir, BuildOptions::default());
    serve(
        dir,
        ServeConfig {
            threads: 4,
            deadline: Duration::from_secs(2),
            request_deadline: Duration::from_millis(700),
            // Big enough that the oversized-target corpus (~2.4 KiB)
            // reaches the parser's own 2048 cap; small enough that the
            // flood test finishes instantly.
            max_header_bytes: 4096,
            ..ServeConfig::default()
        },
    )
}

/// Send raw bytes, read the raw response to EOF (bounded by the socket
/// timeout, so a hang fails the test instead of wedging it).
fn raw_request(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("send payload");
    let mut response = Vec::new();
    // Reset instead of a response is a protocol violation here: the
    // server answers everything it parses.
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// The response contract every answered request must meet.
fn check_response(raw: &[u8], context: &str) -> u16 {
    let text = String::from_utf8_lossy(raw);
    assert!(
        text.starts_with("HTTP/1.1 "),
        "{context}: bad status line in {text:?}"
    );
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("{context}: no status in {text:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("{context}: non-numeric status in {text:?}"));
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("{context}: no header terminator in {text:?}"));
    assert!(
        head.contains("Connection: close"),
        "{context}: missing Connection: close in {head:?}"
    );
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap_or_else(|| panic!("{context}: missing Content-Length in {head:?}"))
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(
        body.len(),
        content_length,
        "{context}: Content-Length mismatch in {text:?}"
    );
    if status >= 400 {
        // Shed 503s scale Retry-After with queue depth (1..=8); plain
        // errors keep 1. Either way the header must be present.
        assert!(
            head.contains("Retry-After: "),
            "{context}: error status {status} without Retry-After in {head:?}"
        );
    }
    status
}

/// One seeded malformed request. Every branch ends its payload with the
/// header terminator, so the server parses rather than waits.
fn fuzz_payload(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ 0xF022_F022_F022_F022);
    let mut payload = Vec::new();
    match rng.below(8) {
        0 => {
            // Binary garbage of seeded length.
            let len = 1 + rng.below(200);
            for _ in 0..len {
                payload.push((rng.next_u64() & 0xFF) as u8);
            }
        }
        1 => {
            // Wrong method on a real path.
            let method = ["POST", "PUT", "DELETE", "PATCH", "get", "G E T"][rng.below(6)];
            payload.extend_from_slice(format!("{method} /health HTTP/1.1\r\nHost: f").as_bytes());
        }
        2 => {
            // Oversized request target (parser cap is 2048).
            let target = "a".repeat(2049 + rng.below(300));
            payload.extend_from_slice(format!("GET /{target} HTTP/1.1").as_bytes());
        }
        3 => {
            // Garbage parameters on real endpoints.
            let line = [
                "GET /containing/notanumber HTTP/1.1",
                "GET /containing/-1 HTTP/1.1",
                "GET /size/9/3 HTTP/1.1",
                "GET /size/x/y HTTP/1.1",
                "GET /overlap/1 HTTP/1.1",
                "GET /overlap/a/b HTTP/1.1",
            ][rng.below(6)];
            payload.extend_from_slice(line.as_bytes());
        }
        4 => {
            // Truncated or mangled request line.
            let line = [
                "GET",
                "GET ",
                "/health HTTP/1.1",
                "HTTP/1.1 GET /health",
                "\t",
            ][rng.below(5)];
            payload.extend_from_slice(line.as_bytes());
        }
        5 => {
            // Unknown path with seeded junk segments.
            payload.extend_from_slice(
                format!("GET /no/such/{}/endpoint HTTP/1.1", rng.next_u64()).as_bytes(),
            );
        }
        6 => {
            // NUL and control bytes inside the request line.
            payload.extend_from_slice(b"GET /hea\x00\x01\x02lth HTTP/1.1");
        }
        _ => {
            // A well-formed request mixed into the corpus: the server
            // must keep answering these correctly mid-storm.
            payload.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: fuzz");
        }
    }
    payload.extend_from_slice(b"\r\n\r\n");
    payload
}

#[test]
fn seeded_malformed_requests_get_typed_responses() {
    let dir = tmp("corpus");
    let server = start_server(&dir);
    let addr = server.addr();

    for seed in 0..96u64 {
        let payload = fuzz_payload(seed);
        let raw = raw_request(addr, &payload);
        if raw.is_empty() {
            // The only wordless outcome allowed is a peer-closed socket
            // with nothing parseable; our corpus always sends a
            // terminator, so silence is a contract violation.
            panic!("seed {seed}: server closed without a response");
        }
        let status = check_response(&raw, &format!("seed {seed}"));
        assert!(
            matches!(status, 200 | 400 | 404 | 405),
            "seed {seed}: unexpected status {status}"
        );
        // A healthy response to garbage must never claim degradation.
        assert!(
            !String::from_utf8_lossy(&raw).contains("X-Gsb-Degraded"),
            "seed {seed}: degraded marker on a fuzz response"
        );
    }

    // The server survived the whole corpus.
    let raw = raw_request(addr, b"GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(check_response(&raw, "post-fuzz health"), 200);

    let report = server.wait().expect("server run");
    let parsed = gsb_telemetry::json::parse(&report.metrics_json).expect("metrics parse");
    assert_eq!(
        parsed.u64_or_zero("worker_panics"),
        0,
        "fuzz corpus panicked a worker"
    );
}

#[test]
fn header_flood_is_cut_off_with_431() {
    let dir = tmp("flood");
    let server = start_server(&dir);
    let addr = server.addr();

    // Exactly the configured cap, no terminator: the server must stop
    // reading at the cap and answer 431 (a clean close — no unread
    // bytes that could turn the response into a reset).
    let flood = vec![b'a'; 4096];
    let raw = raw_request(addr, &flood);
    assert_eq!(check_response(&raw, "header flood"), 431);

    let raw = raw_request(addr, b"GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(check_response(&raw, "post-flood health"), 200);

    server.wait().expect("server run");
}

#[test]
fn slow_loris_is_cut_off_with_408() {
    let dir = tmp("loris");
    let server = start_server(&dir);
    let addr = server.addr();

    // Dribble a header forever: each byte is "progress", but the
    // request budget (700ms here) bounds the total. The server must
    // answer 408 rather than wait for a terminator that never comes.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = std::time::Instant::now();
    let mut response = Vec::new();
    for chunk in ["GET /he", "alth HT", "TP/1.1\r", "\nHost"].iter().cycle() {
        if stream.write_all(chunk.as_bytes()).is_err() {
            break; // server already gave up on us
        }
        // Pacing: the slow-loris dribble, one chunk per 100 ms.
        std::thread::sleep(Duration::from_millis(100));
        if started.elapsed() > Duration::from_secs(5) {
            panic!("slow-loris was never cut off");
        }
        // Peek for the verdict without blocking the dribble.
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 4096];
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => {
                response.extend_from_slice(&buf[..k]);
                if response.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    // Drain whatever is left of the response.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    response.extend_from_slice(&rest);
    assert_eq!(check_response(&response, "slow loris"), 408);
    // The cutoff happened near the budget, not at the 2s socket
    // deadline or later.
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "cutoff took {:?}",
        started.elapsed()
    );

    let raw = raw_request(addr, b"GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(check_response(&raw, "post-loris health"), 200);

    server.wait().expect("server run");
}
