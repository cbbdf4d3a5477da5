//! Parse a JSON-lines run report back and render it for humans:
//! a per-level summary table and the Fig. 8-style worker-imbalance
//! table (stddev/mean of per-worker busy time, as the paper uses to
//! evaluate its dynamic load balancer).
//!
//! Parsing tolerates a truncated final line — the natural shape of
//! the report file of a run that crashed mid-write — and reports it
//! in [`ParsedReport::truncated`] instead of failing.

use crate::record::{parse_line, LevelRecord, RecordError, ReportLine, RunSummary};

/// A parsed run report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedReport {
    /// Per-level records in file order.
    pub levels: Vec<LevelRecord>,
    /// The final summary record, if the run got far enough to write it.
    pub summary: Option<RunSummary>,
    /// Whether the last line was damaged (truncated mid-record) and
    /// dropped.
    pub truncated: bool,
}

impl ParsedReport {
    /// Total maximal cliques: from the summary if present, else from
    /// the last level's cumulative counter.
    pub fn total_maximal(&self) -> u64 {
        self.summary
            .as_ref()
            .map(|s| s.maximal_total)
            .or_else(|| self.levels.last().map(|l| l.maximal_total))
            .unwrap_or(0)
    }
}

/// Parse report text (the contents of a `--metrics-out` file).
///
/// A damaged *final* line is tolerated (crash mid-write) and flagged
/// via [`ParsedReport::truncated`]; a damaged line anywhere else is a
/// real error.
pub fn parse_report(text: &str) -> Result<ParsedReport, RecordError> {
    let mut report = ParsedReport::default();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for (i, line) in lines.iter().enumerate() {
        match parse_line(line) {
            Ok(ReportLine::Level(rec)) => report.levels.push(rec),
            Ok(ReportLine::Summary(s)) => report.summary = Some(s),
            Err(RecordError::Json(_)) if i + 1 == lines.len() => {
                report.truncated = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(report)
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

fn stddev(values: &[u64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Relative imbalance stddev/mean as a percentage; 0 when mean is 0.
fn imbalance_pct(values: &[u64]) -> f64 {
    let m = mean(values);
    if m == 0.0 {
        0.0
    } else {
        100.0 * stddev(values) / m
    }
}

/// Humanize nanoseconds (`1.5ms`, `2.00s`, ...). Public because the
/// serving-side `gsb tail` analyzer renders the same units.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Humanize bytes (`1.5KiB`, `2.00GiB`, ...).
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    if bytes >= KIB * KIB * KIB {
        format!("{:.2}GiB", bytes as f64 / (KIB * KIB * KIB) as f64)
    } else if bytes >= KIB * KIB {
        format!("{:.1}MiB", bytes as f64 / (KIB * KIB) as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Right-align cells into fixed columns. Shared by the run-report
/// renderer and the `gsb tail` access-log analyzer, so enumeration and
/// serving keep one table style.
#[derive(Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (extra cells beyond the header are dropped).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render the table (header, rule, rows) into `out`.
    pub fn render(&self, out: &mut String) {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let push_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                for _ in 0..widths[i].saturating_sub(cell.len()) {
                    out.push(' ');
                }
                out.push_str(cell);
            }
            out.push('\n');
        };
        push_row(out, &self.header);
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        push_row(out, &rule);
        for row in &self.rows {
            push_row(out, row);
        }
    }
}

/// Render the per-level summary table and the Fig. 8 imbalance table.
/// A level's `level` column is its busiest worker's epoch time; `wall`
/// is the run's wall time since the previous record (since the start
/// for the first), so the serial work between epochs shows too.
pub fn render_report(report: &ParsedReport) -> String {
    let mut out = String::new();
    out.push_str("Per-level summary\n");
    let mut table = TextTable::new(&[
        "k",
        "sublists",
        "candidates",
        "maximal",
        "total",
        "level",
        "wall",
        "busy mean",
        "stddev",
        "imb%",
        "xfer",
        "ckpt",
    ]);
    let mut prev_wall_ns = 0;
    for rec in &report.levels {
        let wall_ns = rec.wall_ns.saturating_sub(prev_wall_ns);
        prev_wall_ns = rec.wall_ns;
        let ckpt = if rec.ckpt_bytes > 0 {
            format!("{}/{}", fmt_ns(rec.ckpt_ns), fmt_bytes(rec.ckpt_bytes))
        } else {
            "-".to_string()
        };
        table.row(vec![
            format!("{}{}", rec.k, if rec.degraded { "*" } else { "" }),
            rec.sublists.to_string(),
            rec.candidates.to_string(),
            rec.maximal_level.to_string(),
            rec.maximal_total.to_string(),
            fmt_ns(rec.level_ns),
            fmt_ns(wall_ns),
            fmt_ns(mean(&rec.busy_ns) as u64),
            fmt_ns(stddev(&rec.busy_ns) as u64),
            format!("{:.1}", imbalance_pct(&rec.busy_ns)),
            rec.transfers.to_string(),
            ckpt,
        ]);
    }
    table.render(&mut out);
    if report.levels.iter().any(|r| r.degraded) {
        out.push_str("(* = level ran in degraded out-of-core mode)\n");
    }

    // Fig. 8 view: total busy time per worker across the whole run.
    let workers = report
        .levels
        .iter()
        .map(|r| r.busy_ns.len())
        .max()
        .unwrap_or(0);
    if workers > 1 {
        let mut totals = vec![0u64; workers];
        for rec in &report.levels {
            for (i, &ns) in rec.busy_ns.iter().enumerate() {
                totals[i] += ns;
            }
        }
        out.push_str("\nWorker imbalance (Fig. 8)\n");
        let mut wt = TextTable::new(&["worker", "busy", "rel"]);
        let m = mean(&totals);
        for (i, &t) in totals.iter().enumerate() {
            let rel = if m == 0.0 { 0.0 } else { t as f64 / m };
            wt.row(vec![i.to_string(), fmt_ns(t), format!("{rel:.2}")]);
        }
        wt.render(&mut out);
        out.push_str(&format!(
            "mean {}  stddev {}  imbalance {:.1}%\n",
            fmt_ns(m as u64),
            fmt_ns(stddev(&totals) as u64),
            imbalance_pct(&totals),
        ));
    }

    // Steal balance: where the work-stealing scheduler moved work and
    // how long workers sat idle waiting for something to steal. Only
    // rendered for runs that recorded steal counters.
    if report.levels.iter().any(|r| !r.steals.is_empty()) {
        let workers = report
            .levels
            .iter()
            .map(|r| r.busy_ns.len().max(r.steals.len()).max(r.idle_ns.len()))
            .max()
            .unwrap_or(0);
        let mut steals = vec![0u64; workers];
        let mut idle = vec![0u64; workers];
        let mut busy = vec![0u64; workers];
        let mut failed = 0u64;
        for rec in &report.levels {
            for (i, &s) in rec.steals.iter().enumerate() {
                steals[i] += s;
            }
            for (i, &ns) in rec.idle_ns.iter().enumerate() {
                idle[i] += ns;
            }
            for (i, &ns) in rec.busy_ns.iter().enumerate() {
                busy[i] += ns;
            }
            failed += rec.failed_steals;
        }
        out.push_str("\nSteal balance\n");
        let mut st = TextTable::new(&["worker", "steals", "idle", "idle%"]);
        for i in 0..workers {
            let span = busy[i] + idle[i];
            let pct = if span == 0 {
                0.0
            } else {
                100.0 * idle[i] as f64 / span as f64
            };
            st.row(vec![
                i.to_string(),
                steals[i].to_string(),
                fmt_ns(idle[i]),
                format!("{pct:.1}"),
            ]);
        }
        st.render(&mut out);
        out.push_str(&format!(
            "total steals {}  failed steal scans {}\n",
            steals.iter().sum::<u64>(),
            failed,
        ));
    }

    if let Some(s) = &report.summary {
        out.push_str(&format!(
            "\nTotals: {} maximal cliques, {} levels, wall {}",
            s.maximal_total,
            s.levels,
            fmt_ns(s.wall_ns),
        ));
        if s.max_clique > 0 {
            out.push_str(&format!(", maximum clique {}", s.max_clique));
        }
        if s.checkpoints > 0 {
            out.push_str(&format!(", {} checkpoints", s.checkpoints));
        }
        if s.retries > 0 {
            out.push_str(&format!(", {} worker retries", s.retries));
        }
        if s.io_retries > 0 {
            out.push_str(&format!(", {} I/O retries", s.io_retries));
        }
        if let Some(k) = s.degraded_at {
            out.push_str(&format!(", degraded at k={k}"));
        }
        out.push('\n');
        if s.quarantined > 0 {
            out.push_str(&format!(
                "warning: {} sub-list(s) quarantined — output is exact except \
                 descendants of the prefixes in quarantine.jsonl\n",
                s.quarantined,
            ));
        }
    } else {
        out.push_str(&format!(
            "\nNo summary record (run did not finish cleanly); last cumulative total: {}\n",
            report.total_maximal(),
        ));
    }
    if report.truncated {
        out.push_str("warning: last line was truncated and dropped\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(k: u64, busy: &[u64], maximal: u64, total: u64) -> LevelRecord {
        LevelRecord {
            k,
            sublists: k * 3,
            candidates: 100 - k,
            maximal_level: maximal,
            maximal_total: total,
            level_ns: 1_500_000,
            busy_ns: busy.to_vec(),
            ..LevelRecord::default()
        }
    }

    fn sample_text() -> String {
        let mut text = String::new();
        text.push_str(&level(3, &[100, 200], 2, 2).to_json());
        text.push('\n');
        text.push_str(&level(4, &[150, 150], 5, 7).to_json());
        text.push('\n');
        let s = RunSummary {
            levels: 2,
            maximal_total: 7,
            wall_ns: 3_000_000,
            max_clique: 5,
            ..RunSummary::default()
        };
        text.push_str(&s.to_json());
        text.push('\n');
        text
    }

    #[test]
    fn parses_full_report() {
        let report = parse_report(&sample_text()).unwrap();
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.summary.as_ref().unwrap().maximal_total, 7);
        assert!(!report.truncated);
        assert_eq!(report.total_maximal(), 7);
    }

    #[test]
    fn tolerates_truncated_last_line() {
        let full = sample_text();
        // Cut mid-way through the final (summary) record.
        let cut = &full[..full.len() - 20];
        let report = parse_report(cut).unwrap();
        assert_eq!(report.levels.len(), 2);
        assert!(report.summary.is_none());
        assert!(report.truncated);
        // Falls back to the last level's cumulative counter.
        assert_eq!(report.total_maximal(), 7);
    }

    #[test]
    fn rejects_damage_before_the_last_line() {
        let mut text = String::from("{\"type\":\"level\",\"k\":3");
        text.push('\n');
        text.push_str(&level(4, &[1], 1, 1).to_json());
        text.push('\n');
        assert!(parse_report(&text).is_err());
    }

    #[test]
    fn render_includes_imbalance_and_totals() {
        let report = parse_report(&sample_text()).unwrap();
        let text = render_report(&report);
        assert!(text.contains("Per-level summary"));
        assert!(text.contains("Worker imbalance (Fig. 8)"));
        assert!(text.contains("7 maximal cliques"));
        assert!(text.contains("maximum clique 5"));
        // Level 3 busy [100, 200]: mean 150, stddev 50, imbalance 33.3%
        assert!(text.contains("33.3"), "missing imbalance row in:\n{text}");
    }

    #[test]
    fn wall_column_is_the_wall_time_between_records() {
        let mut text = String::new();
        for (k, wall_ns) in [(3, 2_000_000), (4, 7_500_000)] {
            let mut rec = level(k, &[100, 200], 1, k - 2);
            rec.wall_ns = wall_ns;
            text.push_str(&rec.to_json());
            text.push('\n');
        }
        let rendered = render_report(&parse_report(&text).unwrap());
        let rows: Vec<&str> = rendered.lines().skip(3).take(2).collect();
        // Both levels' `level` column reads 1.5ms; `wall` is 2.0ms from
        // the start, then 5.5ms since the first record.
        assert!(rows[0].contains("1.5ms  2.0ms"), "in:\n{rendered}");
        assert!(rows[1].contains("1.5ms  5.5ms"), "in:\n{rendered}");
    }

    #[test]
    fn render_includes_steal_balance_when_recorded() {
        let mut rec = level(3, &[900, 100], 2, 2);
        rec.steals = vec![0, 4];
        rec.idle_ns = vec![100, 900];
        rec.failed_steals = 7;
        rec.transfers = 4;
        let mut text = String::new();
        text.push_str(&rec.to_json());
        text.push('\n');
        let report = parse_report(&text).unwrap();
        let rendered = render_report(&report);
        assert!(rendered.contains("Steal balance"), "in:\n{rendered}");
        assert!(
            rendered.contains("total steals 4  failed steal scans 7"),
            "in:\n{rendered}"
        );
        // Worker 1: idle 900 of span 100+900 => 90.0%
        assert!(rendered.contains("90.0"), "in:\n{rendered}");
    }

    #[test]
    fn render_omits_steal_balance_for_barrier_runs() {
        let report = parse_report(&sample_text()).unwrap();
        assert!(!render_report(&report).contains("Steal balance"));
    }

    #[test]
    fn render_without_workers_or_summary() {
        let mut text = String::new();
        text.push_str(&level(3, &[], 1, 1).to_json());
        text.push('\n');
        let report = parse_report(&text).unwrap();
        let rendered = render_report(&report);
        assert!(!rendered.contains("Fig. 8"));
        assert!(rendered.contains("did not finish cleanly"));
        assert!(rendered.contains("last cumulative total: 1"));
    }

    #[test]
    fn empty_file_parses_to_empty_report() {
        let report = parse_report("").unwrap();
        assert!(report.levels.is_empty());
        assert!(report.summary.is_none());
        assert_eq!(report.total_maximal(), 0);
    }
}
