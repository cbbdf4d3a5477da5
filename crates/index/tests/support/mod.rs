//! Shared helpers for the gsb-index integration tests: scratch
//! directories, the fixture index build, index copies, a started
//! server, one HTTP client and one wait on observable state.
//!
//! Each integration-test binary compiles its own copy and may use only
//! part of the surface, so unused-item lints are off.
#![allow(dead_code)]

use gsb_graph::BitGraph;
use gsb_index::{build, BuildOptions, CliqueIndex, WriteSummary};
use gsb_index::{Running, ServeConfig, ServeReport, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static SEQ: AtomicUsize = AtomicUsize::new(0);

/// A scratch path unique to this process and call, removed with
/// everything under it on drop, even when the test panics partway
/// through. Nothing is created: the code under test makes the
/// directory.
pub struct TempDir {
    path: PathBuf,
}

/// A new [`TempDir`] whose name carries `tag`.
pub fn tmp(tag: &str) -> TempDir {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("gsb-index-test-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    TempDir { path }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Index `g` into `dir` as `gsb index` does with `options`.
pub fn build_index(g: &BitGraph, dir: &Path, options: BuildOptions) -> WriteSummary {
    build(g, dir, options, None).expect("build index")
}

/// Copy the files of the index in `src` into `dst`, created if missing.
pub fn copy_index(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create index copy");
    for entry in std::fs::read_dir(src).expect("read index dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy index file");
        }
    }
}

/// Serve the index in `dir` on a free loopback port until the handle
/// is waited on or dropped.
pub fn serve(dir: &Path, config: ServeConfig) -> Running<ServeReport> {
    let index = CliqueIndex::open(dir).expect("open index");
    serve_on(Arc::new(index), "127.0.0.1:0", config)
}

/// Serve `index` on `addr`: a wildcard listener, the port of a replica
/// restarted in place, or an index opened before its files changed.
pub fn serve_on(index: Arc<CliqueIndex>, addr: &str, config: ServeConfig) -> Running<ServeReport> {
    Server::bind(index, addr, config)
        .and_then(Server::start)
        .expect("start server")
}

/// Check `cond` until it holds, and fail naming `what` if it still
/// does not after `timeout`: a test waits on the state it needs, not
/// on a sleep it hopes was long enough.
pub fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "waited {timeout:?} in vain until {what}"
        );
        // The poll interval: each check is usually a request.
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Send one request — `line` is its method and target, such as
/// `GET /max` — with `headers` added, and read the response to EOF
/// (each read waits at most 10 s, so a hang fails instead of wedging
/// the test). Returns (status, head, body); the body must be exactly
/// as long as its `Content-Length`. `None` when the connection fails
/// or closes without a response: a listener that is gone, or a
/// connection an injected fault killed.
pub fn request(
    addr: SocketAddr,
    line: &str,
    headers: &[(&str, &str)],
) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut req = format!("{line} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status: u16 = response.split_whitespace().nth(1)?.parse().ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap_or_else(|| panic!("no Content-Length in {response:?}"))
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(
        body.len(),
        content_length,
        "truncated response for {line}: {response:?}"
    );
    Some((status, head.to_string(), body.to_string()))
}

/// `GET path` through [`request`].
pub fn get(addr: SocketAddr, path: &str) -> Option<(u16, String, String)> {
    request(addr, &format!("GET {path}"), &[])
}
