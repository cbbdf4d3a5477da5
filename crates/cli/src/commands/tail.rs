//! `gsb tail` — offline analyzer for the server's JSONL access log:
//! a RED-style summary (rate, errors, duration percentiles per
//! endpoint), the shed/degraded cause table, and the top-N slowest
//! traces with their per-stage breakdown.

use crate::args::Args;
use crate::CliError;
use gsb_telemetry::access::AccessRecord;
use gsb_telemetry::percentile;
use gsb_telemetry::report::{fmt_bytes, fmt_ns, TextTable};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `gsb tail ACCESS_LOG [--top N]`
pub fn tail(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &["top"], &[], 1)?;
    let path = a.required_positional(0, "ACCESS_LOG")?;
    let top: usize = a.flag_or("top", 10)?;
    let text = std::fs::read_to_string(Path::new(path))?;
    render_tail(&text, top)
}

struct EndpointStats {
    requests: u64,
    errors: u64,
    bytes: u64,
    durations_ns: Vec<u64>,
}

/// Parse the log text and render the report. A final line torn by a
/// crash (or an in-flight write under `tail -f`) is tolerated: it is
/// counted as truncated, not an error. Malformed lines *before* the
/// last one mean the file is not an access log.
fn render_tail(text: &str, top: usize) -> Result<String, CliError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records: Vec<AccessRecord> = Vec::with_capacity(lines.len());
    let mut truncated = false;
    for (i, line) in lines.iter().enumerate() {
        match AccessRecord::parse(line) {
            Some(rec) => records.push(rec),
            None if i + 1 == lines.len() => truncated = true,
            None => {
                return Err(CliError::Runtime(format!(
                    "line {} is not an access-log record: {:?}",
                    i + 1,
                    &line[..line.len().min(80)]
                )))
            }
        }
    }
    if records.is_empty() {
        return Ok("access log is empty\n".to_string());
    }

    let mut out = String::new();
    let first_ms = records.iter().map(|r| r.ts_ms).min().unwrap_or(0);
    let last_ms = records.iter().map(|r| r.ts_ms).max().unwrap_or(0);
    let span_s = ((last_ms - first_ms) as f64 / 1000.0).max(0.001);
    let _ = writeln!(
        out,
        "{} requests over {:.1}s{}",
        records.len(),
        span_s,
        if truncated {
            " (final line truncated mid-write — ignored)"
        } else {
            ""
        }
    );
    out.push('\n');

    // RED summary: Rate / Errors / Duration per endpoint. Errors are
    // 4xx+5xx — for a read-only query service a 429/503 shed is an
    // error from the caller's point of view.
    let mut per: BTreeMap<String, EndpointStats> = BTreeMap::new();
    for rec in &records {
        let entry = per.entry(rec.endpoint.clone()).or_insert(EndpointStats {
            requests: 0,
            errors: 0,
            bytes: 0,
            durations_ns: Vec::new(),
        });
        entry.requests += 1;
        if rec.status >= 400 {
            entry.errors += 1;
        }
        entry.bytes += rec.bytes;
        entry.durations_ns.push(rec.total_ns);
    }
    out.push_str("RED summary\n");
    let mut table = TextTable::new(&[
        "endpoint", "requests", "rate/s", "errors", "err%", "p50", "p95", "p99", "max", "bytes",
    ]);
    for (endpoint, stats) in &mut per {
        stats.durations_ns.sort_unstable();
        let d = &stats.durations_ns;
        table.row(vec![
            endpoint.clone(),
            stats.requests.to_string(),
            format!("{:.1}", stats.requests as f64 / span_s),
            stats.errors.to_string(),
            format!("{:.1}", 100.0 * stats.errors as f64 / stats.requests as f64),
            fmt_ns(percentile(d, 0.50)),
            fmt_ns(percentile(d, 0.95)),
            fmt_ns(percentile(d, 0.99)),
            fmt_ns(*d.last().unwrap_or(&0)),
            fmt_bytes(stats.bytes),
        ]);
    }
    table.render(&mut out);

    // Shed/degraded causes: every non-empty `cause` with its counts.
    let mut causes: BTreeMap<(String, u16), u64> = BTreeMap::new();
    for rec in &records {
        if !rec.cause.is_empty() {
            *causes.entry((rec.cause.clone(), rec.status)).or_insert(0) += 1;
        }
    }
    if !causes.is_empty() {
        out.push_str("\nShed / degraded causes\n");
        let mut table = TextTable::new(&["cause", "status", "count"]);
        for ((cause, status), count) in &causes {
            table.row(vec![cause.clone(), status.to_string(), count.to_string()]);
        }
        table.render(&mut out);
    }

    // Top-N slow traces, with the span stages in recorded order so the
    // dominant stage is readable at a glance.
    let mut slowest: Vec<&AccessRecord> = records.iter().collect();
    slowest.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    slowest.truncate(top.max(1));
    let _ = writeln!(out, "\nTop {} slow traces", slowest.len());
    let mut table = TextTable::new(&["trace", "endpoint", "status", "total", "stages"]);
    for rec in &slowest {
        let stages: Vec<String> = rec
            .stages
            .iter()
            .map(|(name, ns)| format!("{name}={}", fmt_ns(*ns)))
            .collect();
        table.row(vec![
            rec.trace.clone(),
            rec.endpoint.clone(),
            rec.status.to_string(),
            fmt_ns(rec.total_ns),
            stages.join(" "),
        ]);
    }
    table.render(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_telemetry::access::AccessRecord;
    use gsb_telemetry::percentile;

    fn record(
        ts_ms: u64,
        trace: &str,
        endpoint: &str,
        status: u16,
        cause: &str,
        total_ns: u64,
    ) -> String {
        AccessRecord {
            ts_ms,
            trace: trace.into(),
            endpoint: endpoint.into(),
            status,
            cause: cause.into(),
            bytes: 100,
            total_ns,
            stages: vec![
                ("queue".into(), total_ns / 4),
                ("blocks".into(), total_ns / 2),
            ],
        }
        .to_json_line()
    }

    #[test]
    fn tail_renders_red_summary_causes_and_slow_traces() {
        let mut log = String::new();
        for i in 0..20u64 {
            log.push_str(&record(
                1_000 + i * 100,
                &format!("{i:016x}"),
                "containing",
                200,
                "",
                (i + 1) * 1_000_000,
            ));
            log.push('\n');
        }
        log.push_str(&record(
            3_000,
            "aaaa000000000000",
            "stats",
            503,
            "queue_full",
            50_000,
        ));
        log.push('\n');
        let out = render_tail(&log, 3).unwrap();
        assert!(out.contains("21 requests"), "{out}");
        assert!(out.contains("RED summary"), "{out}");
        assert!(out.contains("containing"), "{out}");
        assert!(out.contains("queue_full"), "{out}");
        assert!(out.contains("Top 3 slow traces"), "{out}");
        // The slowest trace (20ms, id 13 hex) leads the slow table.
        assert!(out.contains("000000000000013"), "{out}");
        assert!(out.contains("queue="), "{out}");
    }

    #[test]
    fn tail_tolerates_a_truncated_final_line_only() {
        let mut log = record(1_000, "t1", "max", 200, "", 5_000);
        log.push('\n');
        log.push_str("{\"ts_ms\":2000,\"trace\":\"t2\",\"endp"); // torn mid-write
        let out = render_tail(&log, 5).unwrap();
        assert!(out.contains("1 requests"), "{out}");
        assert!(out.contains("truncated"), "{out}");

        // Garbage before the end is a hard error.
        let bad = format!("not json\n{}\n", record(1_000, "t", "max", 200, "", 1));
        let err = render_tail(&bad, 5).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "{err}");
    }

    #[test]
    fn tail_empty_log_and_percentiles() {
        assert!(render_tail("", 5).unwrap().contains("empty"));
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.50), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}
