//! The `gsb` binary as a process: what its exit code and stderr show
//! when the reader of its stdout goes away early.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn gsb(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gsb"))
        .args(args)
        .output()
        .expect("spawn gsb");
    assert!(
        out.status.success(),
        "gsb {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_output_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("gsb-cli-process-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, index) = (path("g.txt"), path("idx"));
    gsb(&[
        "generate", "--kind", "gnp", "--n", "600", "--p", "0.1", "--seed", "3", "--out", &graph,
    ]);
    gsb(&["index", &graph, "--out", &index, "--min", "1"]);

    // About 500 KiB of cliques: far more than a pipe buffers, so the
    // writer is still writing when the reader goes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gsb"))
        .args(["query", &index, "--size-min", "1", "--limit", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gsb query");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first line");
    assert!(line.starts_with("cliques of size"), "{line}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
