//! `gsb scrub` — offline integrity walk of an index directory.
//!
//! Walks every CRC frame of the clique store, every postings record,
//! the directory, and the manifest (including its self-CRC), then
//! cross-checks the layers against each other — the postings are fully
//! recomputed from the decoded cliques. Exit 0 means every byte
//! verified; any corruption lists its findings and exits 1, so the
//! command slots directly into cron jobs and CI. `--json` switches the
//! findings to one JSON object per line plus a summary object, for
//! fleet tooling that wants to aggregate scrub results.

use crate::args::Args;
use crate::CliError;
use gsb_index::ScrubReport;
use gsb_telemetry::json::ObjectWriter;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// `gsb scrub`
pub fn scrub(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &[], &["json"], 1)?;
    let dir = a.required_positional(0, "INDEX_DIR")?;
    let report = gsb_index::scrub(Path::new(dir));
    if a.switch("json") {
        return scrub_json(dir, &report);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scrub {}: {} blocks, {} cliques, {} postings records checked",
        dir, report.blocks_checked, report.cliques_checked, report.postings_checked
    );
    if report.delta_generations_checked > 0 {
        let _ = writeln!(
            out,
            "delta chain: {} generation(s), {} tombstone(s) checked",
            report.delta_generations_checked, report.tombstones_checked
        );
    }
    if report.is_clean() {
        let _ = writeln!(out, "index is clean");
        return Ok(out);
    }
    const SHOW: usize = 20;
    for finding in report.findings.iter().take(SHOW) {
        let _ = writeln!(out, "CORRUPT {finding}");
    }
    if report.findings.len() > SHOW {
        let _ = writeln!(out, "... and {} more", report.findings.len() - SHOW);
    }
    // The findings are the report; the error makes the exit code 1.
    let _ = std::io::stderr().write_all(out.as_bytes());
    Err(CliError::Runtime(format!(
        "index {} failed scrub with {} finding(s)",
        dir,
        report.findings.len()
    )))
}

/// Machine-readable output: one `{"finding":...}` object per defect
/// (every defect, no truncation), then one `{"scrub":...}` summary
/// line. The exit code still distinguishes clean (0) from corrupt (1).
fn scrub_json(dir: &str, report: &ScrubReport) -> Result<String, CliError> {
    let mut out = String::new();
    for finding in &report.findings {
        let mut w = ObjectWriter::new();
        w.str_field("finding", &finding.site);
        w.str_field("error", &finding.error.to_string());
        let _ = writeln!(out, "{}", w.finish());
    }
    let mut w = ObjectWriter::new();
    w.str_field("scrub", dir);
    w.u64_field("blocks_checked", report.blocks_checked);
    w.u64_field("cliques_checked", report.cliques_checked);
    w.u64_field("postings_checked", report.postings_checked);
    w.u64_field(
        "delta_generations_checked",
        report.delta_generations_checked,
    );
    w.u64_field("tombstones_checked", report.tombstones_checked);
    w.u64_field("findings", report.findings.len() as u64);
    w.bool_field("clean", report.is_clean());
    let _ = writeln!(out, "{}", w.finish());
    if report.is_clean() {
        return Ok(out);
    }
    // Findings must reach stdout even though corruption exits 1 — the
    // machine-readable report is the product, the code is the verdict.
    // A reader gone early (a closed pipe) loses nothing it asked for.
    let _ = std::io::stdout().write_all(out.as_bytes());
    Err(CliError::Runtime(format!(
        "index {} failed scrub with {} finding(s)",
        dir,
        report.findings.len()
    )))
}
