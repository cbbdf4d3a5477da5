//! Subcommand implementations, one module per command. Each command
//! takes the post-subcommand argv and returns the report text; the
//! dispatcher in [`crate::run`] stays a thin match over these
//! re-exports.

mod bench_serve;
mod bench_update;
mod cliques;
mod compact;
mod convert;
mod exact;
mod generate;
mod index;
mod motif;
mod query;
mod report;
mod resume;
mod router;
mod scrub;
mod serve;
mod shard;
mod stats;
mod tail;
mod update;

pub use bench_serve::bench_serve;
pub use bench_update::bench_update;
pub use cliques::cliques;
pub use compact::compact;
pub use convert::convert;
pub use exact::{fvs, maxclique, vertex_cover};
pub use generate::generate;
pub use index::index;
pub use motif::motif;
pub use query::query;
pub use report::report;
pub use resume::resume;
pub use router::router;
pub use scrub::scrub;
pub use serve::serve;
pub use shard::shard;
pub use stats::stats;
pub use tail::tail;
pub use update::update;

use crate::CliError;
use gsb_core::sink::{CollectSink, CountSink};
use gsb_graph::{io as gio, BitGraph};
use std::fmt::Write as _;
use std::path::Path;

pub(crate) fn load(path: &str) -> Result<BitGraph, CliError> {
    Ok(gio::load(Path::new(path))?)
}

/// How `gsb serve` and `gsb router` end once `run` returns: the
/// conventional loud exit on a signal (128 + signal, with the drain
/// evidence in the message), else — an embedder's private token fired —
/// a one-line summary, "`verb` N requests over M connections".
pub(crate) fn drained(
    shutdown: &gsb_core::ShutdownToken,
    verb: &str,
    requests: u64,
    connections: u64,
) -> Result<String, CliError> {
    match shutdown.signal() {
        Some(signal) => Err(CliError::Drained {
            signal,
            connections,
            requests,
        }),
        None => Ok(format!(
            "{verb} {requests} requests over {connections} connections\n"
        )),
    }
}

/// A default duration in the whole milliseconds its `--…-ms` flag takes.
pub(crate) fn ms(d: std::time::Duration) -> u64 {
    d.as_millis() as u64
}

pub(crate) fn save(g: &BitGraph, path: &str) -> Result<(), CliError> {
    let file = std::fs::File::create(path)?;
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("clq") | Some("dimacs") => gio::write_dimacs(g, file)?,
        _ => gio::write_edge_list(g, file)?,
    }
    Ok(())
}

pub(crate) fn render_cliques(collect: &CollectSink, count: &CountSink, count_only: bool) -> String {
    let mut out = String::new();
    if count_only {
        let _ = writeln!(out, "{} maximal cliques", count.count);
    } else {
        for c in &collect.cliques {
            let text: Vec<String> = c.iter().map(u32::to_string).collect();
            let _ = writeln!(out, "{}\t{}", c.len(), text.join(" "));
        }
        let _ = writeln!(out, "# {} maximal cliques", collect.cliques.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgError;
    use crate::CliError;
    use gsb_core::checkpoint::{CheckpointConfig, CheckpointManager, RunMeta, RunProgress};
    use gsb_core::{BackendChoice, CliqueEnumerator, EnumConfig, EnumStats};
    use std::path::Path;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gsb-cli-test-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generate_stats_cliques_roundtrip() {
        let path = tmp("g1.txt");
        let report = generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "40",
            "--p",
            "0.02",
            "--modules",
            "6,5",
            "--seed",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        assert!(report.contains("40 vertices"));

        let s = stats(&argv(&[&path])).unwrap();
        assert!(s.contains("vertices:    40"));
        assert!(s.contains("clique upper bound"));

        let c = cliques(&argv(&[&path, "--min", "4"])).unwrap();
        assert!(c.contains("maximal cliques"));
        // every line is "size\tvertices"
        for line in c.lines().filter(|l| !l.starts_with('#')) {
            let (size, rest) = line.split_once('\t').expect("tabbed");
            let k: usize = size.parse().unwrap();
            assert_eq!(rest.split_whitespace().count(), k);
            assert!(k >= 4);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cliques_count_only_and_threads_agree() {
        let path = tmp("g2.txt");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "36",
            "--modules",
            "7",
            "--out",
            &path,
        ]))
        .unwrap();
        let seq = cliques(&argv(&[&path, "--count-only"])).unwrap();
        let par = cliques(&argv(&[&path, "--count-only", "--threads", "3"])).unwrap();
        assert_eq!(seq, par);
        let spill = cliques(&argv(&[&path, "--count-only", "--memory-budget", "0"])).unwrap();
        assert!(spill.starts_with(&seq.lines().next().unwrap().to_string()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cliques_order_and_out_flags() {
        let path = tmp("g6.txt");
        let out = tmp("g6.cliques");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "30",
            "--modules",
            "6,5",
            "--out",
            &path,
        ]))
        .unwrap();
        let plain = cliques(&argv(&[&path, "--min", "4"])).unwrap();
        // streaming output
        let report = cliques(&argv(&[&path, "--min", "4", "--out", &out])).unwrap();
        assert!(report.contains("maximal cliques"));
        let streamed = std::fs::read_to_string(&out).unwrap();
        let n_lines = streamed.lines().count();
        let n_plain = plain.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(n_lines, n_plain);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn cliques_backend_flag_matches_dense() {
        let path = tmp("g14.txt");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "34",
            "--modules",
            "7,5",
            "--seed",
            "17",
            "--out",
            &path,
        ]))
        .unwrap();
        let dense = cliques(&argv(&[&path, "--min", "3"])).unwrap();
        let mut want: Vec<&str> = dense.lines().filter(|l| !l.starts_with('#')).collect();
        want.sort();
        for backend in ["dense", "wah"] {
            for threads in ["1", "3"] {
                let alt = cliques(&argv(&[
                    &path,
                    "--min",
                    "3",
                    "--backend",
                    backend,
                    "--threads",
                    threads,
                ]))
                .unwrap();
                let mut got: Vec<&str> = alt.lines().filter(|l| !l.starts_with('#')).collect();
                got.sort();
                assert_eq!(got, want, "--backend {backend} --threads {threads}");
            }
        }
        // unknown names and the retired flags are usage errors
        let err = cliques(&argv(&[&path, "--backend", "lzma"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("unknown backend"), "{err}");
        for retired in ["--order", "--spill-budget"] {
            let err = cliques(&argv(&[&path, "--backend", "wah", retired, "0"])).unwrap_err();
            assert!(matches!(err, CliError::Args(ArgError::Unknown(_))), "{err}");
            assert_eq!(err.exit_code(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retired_hybrid_backend_is_a_usage_error_naming_the_two_left() {
        let path = tmp("g17.txt");
        let dir = tmp("g17-index");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "20",
            "--modules",
            "5",
            "--seed",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        let err = cliques(&argv(&[&path, "--backend", "hybrid"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let CliError::Usage(message) = &err else {
            panic!("not a usage error: {err}");
        };
        for name in ["'hybrid'", "dense", "wah"] {
            assert!(message.contains(name), "{message}");
        }
        // An index holds no common-neighbour bitmaps, so `gsb index` has
        // no --backend to choose one: the flag is unknown there.
        let err = index(&argv(&[&path, "--out", &dir, "--backend", "hybrid"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(matches!(err, CliError::Args(_)), "{err}");
        assert!(err.to_string().contains("unknown flag --backend"), "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_flags_fail_as_usage_before_the_graph_loads() {
        let missing = tmp("g17b-missing.txt");
        let dir = tmp("g17b-index");
        let _ = std::fs::remove_file(&missing);
        // An unknown flag, then a bad value for each known one: every
        // value is parsed before the (missing) graph file is read.
        for bad in [
            ["--backend", "hybrid"],
            ["--min", "lots"],
            ["--max", "lots"],
            ["--threads", "lots"],
        ] {
            let err = index(&argv(&[&missing, "--out", &dir, bad[0], bad[1]])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
            assert!(err.to_string().contains(bad[0]), "{bad:?}: {err}");
        }
    }

    #[test]
    fn resume_names_an_unknown_backend_in_run_meta() {
        let dir = tmp("g18-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = Path::new(&dir).join("run.meta");
        std::fs::write(
            &meta,
            "graph=g18.txt\nmin_k=3\nthreads=1\nout=g18.out\nbackend=hybrid\n",
        )
        .unwrap();
        let err = resume(&argv(&[&dir])).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        let text = err.to_string();
        assert!(text.contains("backend 'hybrid'"), "{text}");
        assert!(!text.contains("nothing to resume"), "{text}");
        // Without a run.meta there is still nothing to resume.
        std::fs::remove_file(&meta).unwrap();
        let err = resume(&argv(&[&dir])).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(err.to_string().contains("nothing to resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maxclique_both_routes() {
        let path = tmp("g3.txt");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "30",
            "--modules",
            "6",
            "--out",
            &path,
        ]))
        .unwrap();
        let direct = maxclique(&argv(&[&path])).unwrap();
        let viavc = maxclique(&argv(&[&path, "--via-vc"])).unwrap();
        let size = |s: &str| {
            s.split("size ")
                .nth(1)
                .unwrap()
                .split(':')
                .next()
                .unwrap()
                .parse::<usize>()
                .unwrap()
        };
        assert_eq!(size(&direct), size(&viavc));
        assert!(size(&direct) >= 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vc_and_fvs_run() {
        let path = tmp("g4.txt");
        generate(&argv(&[
            "--kind", "gnp", "--n", "14", "--p", "0.3", "--out", &path,
        ]))
        .unwrap();
        let vc_min = vertex_cover(&argv(&[&path])).unwrap();
        assert!(vc_min.contains("minimum vertex cover size"));
        let vc_yes = vertex_cover(&argv(&[&path, "--k", "14"])).unwrap();
        assert!(vc_yes.starts_with("YES"));
        let vc_no = vertex_cover(&argv(&[&path, "--k", "0"])).unwrap();
        assert!(vc_no.starts_with("NO"));
        let f = fvs(&argv(&[&path])).unwrap();
        assert!(f.contains("feedback vertex set"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn motif_subcommand_end_to_end() {
        let path = tmp("seqs.txt");
        // three sequences sharing an exact 8-mer
        std::fs::write(
            &path,
            "AAAAAGATTACAGGTTTT\nCCCCGATTACAGGCCCC\n# comment\nTTGATTACAGGTTAAAA\n",
        )
        .unwrap();
        let report = motif(&argv(&[&path, "--l", "8", "--d", "0", "--q", "3"])).unwrap();
        assert!(report.contains("GATTACAG"), "{report}");
        assert!(motif(&argv(&[&path])).is_err()); // --l required
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn convert_edge_list_to_dimacs() {
        let a_path = tmp("g5.txt");
        let b_path = tmp("g5.clq");
        generate(&argv(&[
            "--kind", "gnp", "--n", "10", "--p", "0.4", "--out", &a_path,
        ]))
        .unwrap();
        let report = convert(&argv(&[&a_path, &b_path])).unwrap();
        assert!(report.contains("converted"));
        let g1 = load(&a_path).unwrap();
        let g2 = load(&b_path).unwrap();
        assert_eq!(g1, g2);
        let _ = std::fs::remove_file(&a_path);
        let _ = std::fs::remove_file(&b_path);
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        let path = tmp("g8.txt");
        generate(&argv(&[
            "--kind", "gnp", "--n", "12", "--p", "0.3", "--out", &path,
        ]))
        .unwrap();
        // --checkpoint-dir without --out
        let err = cliques(&argv(&[&path, "--checkpoint-dir", "/tmp/x"])).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        // --checkpoint-secs without --checkpoint-dir
        let err = cliques(&argv(&[&path, "--checkpoint-secs", "5"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-dir"), "{err}");
        // the retired --order and --spill-budget flags are unknown
        for retired in ["--order", "--spill-budget"] {
            let err =
                cliques(&argv(&[&path, "--memory-budget", "1000", retired, "0"])).unwrap_err();
            assert!(matches!(err, CliError::Args(ArgError::Unknown(_))), "{err}");
            assert_eq!(err.exit_code(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_run_matches_plain_and_cleans_up() {
        let path = tmp("g9.txt");
        let dir = tmp("g9-ckpt");
        let out = tmp("g9.out");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "32",
            "--modules",
            "7,5",
            "--seed",
            "11",
            "--out",
            &path,
        ]))
        .unwrap();
        let plain = cliques(&argv(&[&path, "--min", "3"])).unwrap();
        let report = cliques(&argv(&[
            &path,
            "--min",
            "3",
            "--checkpoint-dir",
            &dir,
            "--out",
            &out,
        ]))
        .unwrap();
        assert!(report.contains("checkpointed"), "{report}");
        let mut a: Vec<&str> = plain.lines().filter(|l| !l.starts_with('#')).collect();
        let written = std::fs::read_to_string(&out).unwrap();
        let mut b: Vec<&str> = written.lines().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // success cleaned the checkpoint dir: nothing to resume
        let err = resume(&argv(&[&dir])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_completes_a_crashed_run_byte_identically() {
        let path = tmp("g10.txt");
        let dir = tmp("g10-ckpt");
        let out = tmp("g10.out");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "34",
            "--modules",
            "8,6",
            "--seed",
            "29",
            "--out",
            &path,
        ]))
        .unwrap();
        let expected = cliques(&argv(&[&path, "--min", "3"])).unwrap();

        // Manufacture the crashed state: step the enumerator to level 4,
        // persist a real checkpoint + run.meta, and write the output
        // file as the dying run left it — the cliques emitted so far
        // plus a line torn mid-write.
        let g = load(&path).unwrap();
        let seq = CliqueEnumerator::new(EnumConfig::default());
        let mut pre = gsb_core::sink::CollectSink::default();
        let mut stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut pre, &mut stats);
        while level.k < 4 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, level, &mut pre);
            level = next;
        }
        let k_ckpt = level.k;
        let pre_count = pre.cliques.iter().filter(|c| c.len() <= k_ckpt).count() as u64;
        let mut crashed = String::new();
        for c in pre.cliques.iter().filter(|c| c.len() <= k_ckpt) {
            let verts: Vec<String> = c.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(crashed, "{}\t{}", c.len(), verts.join(" "));
        }
        crashed.push_str("6\t1 2"); // torn by the crash: no newline, wrong arity
        let mut want: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
        want.sort();

        // Two run.meta inputs: the current format, and one as builds
        // with a second parallel runtime wrote it — four threads and a
        // `scheduler=barrier` line — which resumes on the one runtime.
        let meta = RunMeta {
            graph: path.clone(),
            min_k: 3,
            max_k: None,
            threads: 1,
            out: Some(out.clone()),
            backend: BackendChoice::Dense,
        };
        let older = RunMeta {
            threads: 4,
            ..meta.clone()
        };
        for (meta, extra_line) in [(meta, ""), (older, "scheduler=barrier\n")] {
            let mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
            {
                let mut mgr = mgr;
                mgr.force(&level).unwrap();
                // crash: dropped without finish(), files stay
            }
            meta.save(Path::new(&dir)).unwrap();
            let meta_path = Path::new(&dir).join("run.meta");
            let mut meta_text = std::fs::read_to_string(&meta_path).unwrap();
            meta_text.push_str(extra_line);
            std::fs::write(&meta_path, meta_text).unwrap();
            RunProgress {
                cliques_emitted: pre_count,
                levels_done: k_ckpt as u64 - 2,
                wall_ms: 1500,
            }
            .save(Path::new(&dir))
            .unwrap();
            std::fs::write(&out, &crashed).unwrap();

            let report = resume(&argv(&[&dir])).unwrap();
            let threads = meta.threads;
            assert!(
                report.contains(&format!("level-{k_ckpt} checkpoint")),
                "threads={threads}: {report}"
            );
            assert!(
                report.contains(&format!("prior progress: {pre_count} cliques")),
                "threads={threads}: {report}"
            );
            assert!(
                report.contains("1.5s before the interruption"),
                "threads={threads}: {report}"
            );
            let resumed = std::fs::read_to_string(&out).unwrap();
            let mut got: Vec<&str> = resumed.lines().collect();
            got.sort();
            assert_eq!(
                got.len(),
                want.len(),
                "threads={threads}: clique counts differ"
            );
            assert_eq!(got, want, "threads={threads}");
        }

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_uses_the_backend_recorded_in_run_meta() {
        use gsb_bitset::WahBitSet;

        let path = tmp("g15.txt");
        let dir = tmp("g15-ckpt");
        let out = tmp("g15.out");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "34",
            "--modules",
            "8,6",
            "--seed",
            "31",
            "--out",
            &path,
        ]))
        .unwrap();
        let expected = cliques(&argv(&[&path, "--min", "3"])).unwrap();

        // Crash a WAH-backed run at the level-4 barrier: the checkpoint
        // on disk is in the compressed representation, and run.meta
        // records backend=wah.
        let g = load(&path).unwrap();
        let seq = CliqueEnumerator::<WahBitSet>::with_backend(EnumConfig::default());
        let mut pre = gsb_core::sink::CollectSink::default();
        let mut stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut pre, &mut stats);
        while level.k < 4 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, level, &mut pre);
            level = next;
        }
        let k_ckpt = level.k;
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.force(&level).unwrap();
        drop(mgr); // crash: no finish(), files stay
        RunMeta {
            graph: path.clone(),
            min_k: 3,
            max_k: None,
            threads: 1,
            out: Some(out.clone()),
            backend: BackendChoice::Wah,
        }
        .save(Path::new(&dir))
        .unwrap();
        let meta_text = std::fs::read_to_string(Path::new(&dir).join("run.meta")).unwrap();
        assert!(meta_text.contains("backend=wah"), "{meta_text}");
        let mut crashed = String::new();
        for c in pre.cliques.iter().filter(|c| c.len() <= k_ckpt) {
            let verts: Vec<String> = c.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(crashed, "{}\t{}", c.len(), verts.join(" "));
        }
        std::fs::write(&out, &crashed).unwrap();

        let report = resume(&argv(&[&dir])).unwrap();
        assert!(
            report.contains(&format!("level-{k_ckpt} checkpoint")),
            "{report}"
        );
        let resumed = std::fs::read_to_string(&out).unwrap();
        let mut got: Vec<&str> = resumed.lines().collect();
        let mut want: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_out_produces_schema_valid_monotone_records() {
        let path = tmp("g11.txt");
        let jsonl = tmp("g11.jsonl");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "36",
            "--modules",
            "8,6",
            "--seed",
            "7",
            "--out",
            &path,
        ]))
        .unwrap();
        let plain = cliques(&argv(&[&path, "--min", "3", "--count-only"])).unwrap();
        let with_metrics = cliques(&argv(&[
            &path,
            "--min",
            "3",
            "--threads",
            "3",
            "--count-only",
            "--metrics-out",
            &jsonl,
        ]))
        .unwrap();
        // telemetry must not change the enumeration result
        assert_eq!(plain, with_metrics);

        let text = std::fs::read_to_string(&jsonl).unwrap();
        let parsed = gsb_telemetry::parse_report(&text).expect("valid run log");
        assert!(!parsed.truncated);
        assert!(!parsed.levels.is_empty(), "no level records");
        for w in parsed.levels.windows(2) {
            assert!(w[1].k > w[0].k, "level k not monotone: {w:?}");
            assert!(w[1].maximal_total >= w[0].maximal_total);
        }
        for level in &parsed.levels {
            assert!(level.sublists > 0, "empty sub-list count: {level:?}");
            assert!(!level.busy_ns.is_empty(), "no per-worker busy time");
        }
        let summary = parsed.summary.as_ref().expect("summary record");
        let total: u64 = plain.split_whitespace().next().unwrap().parse().unwrap();
        assert_eq!(summary.maximal_total, total);
        assert!(summary.maximal_total > 0);

        // and the rendered report round-trips from the same file
        let rendered = report(&argv(&[&jsonl])).unwrap();
        assert!(rendered.contains("Per-level summary"), "{rendered}");
        assert!(rendered.contains("Worker imbalance"), "{rendered}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn report_tolerates_a_crash_truncated_run_log() {
        let path = tmp("g13.txt");
        let jsonl = tmp("g13.jsonl");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "30",
            "--modules",
            "7",
            "--seed",
            "2",
            "--out",
            &path,
        ]))
        .unwrap();
        cliques(&argv(&[&path, "--count-only", "--metrics-out", &jsonl])).unwrap();
        // Simulate dying mid-write: chop the file inside its last line.
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let cut = text.trim_end().len() - 10;
        std::fs::write(&jsonl, &text[..cut]).unwrap();
        let rendered = report(&argv(&[&jsonl])).unwrap();
        assert!(rendered.contains("truncated"), "{rendered}");
        assert!(rendered.contains("Per-level summary"), "{rendered}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn report_rejects_garbage_and_metrics_conflicts_are_usage_errors() {
        let bad = tmp("bad.jsonl");
        std::fs::write(&bad, "not json at all\nstill not\n").unwrap();
        let err = report(&argv(&[&bad])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let _ = std::fs::remove_file(&bad);

        let path = tmp("g12.txt");
        generate(&argv(&[
            "--kind", "gnp", "--n", "12", "--p", "0.3", "--out", &path,
        ]))
        .unwrap();
        let err = cliques(&argv(&[&path, "--progress", "--order", "degree"])).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::Unknown(_))), "{err}");
        assert_eq!(err.exit_code(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dispatch_and_usage() {
        assert!(crate::run(&argv(&["help"])).unwrap().contains("USAGE"));
        assert!(crate::run(&argv(&[])).is_err());
        assert!(crate::run(&argv(&["bogus"])).is_err());
        let err = crate::run(&argv(&["generate", "--kind", "nope", "--out", "x"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown --kind"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = stats(&argv(&["/definitely/not/here"])).unwrap_err();
        assert!(matches!(err, CliError::Parse(_) | CliError::Io(_)));
    }

    #[test]
    fn index_then_query_round_trip() {
        let path = tmp("g16.txt");
        let dir = tmp("g16-index");
        let text = tmp("g16.cliques");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "40",
            "--modules",
            "7,5",
            "--seed",
            "23",
            "--out",
            &path,
        ]))
        .unwrap();
        let plain = cliques(&argv(&[&path, "--min", "3"])).unwrap();
        let mut want: Vec<&str> = plain.lines().filter(|l| !l.starts_with('#')).collect();
        want.sort();

        // Index with a text tee: the text copy must equal the plain run.
        let report = index(&argv(&[
            &path,
            "--min",
            "3",
            "--out",
            &dir,
            "--text-out",
            &text,
        ]))
        .unwrap();
        assert!(
            report.contains(&format!("indexed {} maximal cliques", want.len())),
            "{report}"
        );
        let teed = std::fs::read_to_string(&text).unwrap();
        let mut got: Vec<&str> = teed.lines().collect();
        got.sort();
        assert_eq!(got, want, "--text-out tee differs from plain run");

        // Size-range query over everything reproduces the clique set.
        let all = query(&argv(&[&dir, "--size-min", "0", "--limit", "100000"])).unwrap();
        let mut from_index: Vec<String> = all
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l.split_once('\t').unwrap().1.to_string())
            .collect();
        from_index.sort();
        assert_eq!(from_index, want, "query --size-min 0 differs");

        // max agrees with the largest plain-run clique.
        let max_report = query(&argv(&[&dir, "--max"])).unwrap();
        let best = want
            .iter()
            .map(|l| l.split_once('\t').unwrap().0.parse::<usize>().unwrap())
            .max()
            .unwrap();
        assert!(max_report.contains(&format!("size {best}")), "{max_report}");

        // containing/overlap agree with a grep over the text output.
        let v = 0u32;
        let contains_v = want
            .iter()
            .filter(|l| {
                l.split_once('\t')
                    .unwrap()
                    .1
                    .split_whitespace()
                    .any(|x| x == v.to_string())
            })
            .count();
        let c_report = query(&argv(&[&dir, "--containing", "0", "--ids-only"])).unwrap();
        assert!(
            c_report.contains(&format!(": {contains_v} total")),
            "{c_report}"
        );

        // stats --index renders the same totals.
        let s = stats(&argv(&["--index", &dir])).unwrap();
        assert!(
            s.contains(&format!("cliques:        {}", want.len())),
            "{s}"
        );
        assert!(s.contains(&format!("largest clique: {best}")), "{s}");
        assert!(s.contains("size histogram"), "{s}");

        // usage errors
        assert!(query(&argv(&[&dir])).is_err());
        assert!(query(&argv(&[&dir, "--max", "--containing", "1"])).is_err());
        assert!(query(&argv(&[&dir, "--overlap", "five,6"])).is_err());
        assert!(index(&argv(&[&path])).is_err()); // --out required
        assert!(stats(&argv(&[&path, "--index", &dir])).is_err());

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_on_missing_index_is_a_storage_error() {
        let err = query(&argv(&["/definitely/not/an/index", "--max"])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
        let err = serve(&argv(&["/definitely/not/an/index"])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
    }

    #[test]
    fn scrub_clean_then_detects_corruption() {
        let path = tmp("g17.txt");
        let dir = tmp("g17-index");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "36",
            "--modules",
            "7,5",
            "--seed",
            "41",
            "--out",
            &path,
        ]))
        .unwrap();
        index(&argv(&[&path, "--min", "3", "--out", &dir])).unwrap();

        let clean = scrub(&argv(&[&dir])).unwrap();
        assert!(clean.contains("index is clean"), "{clean}");

        // Flip one byte inside the clique store payload region.
        let store = Path::new(&dir).join("cliques.gsi");
        let mut bytes = std::fs::read(&store).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        std::fs::write(&store, &bytes).unwrap();

        let err = scrub(&argv(&[&dir])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("failed scrub"), "{err}");

        // Missing directory is a finding with exit 1, not a panic.
        let err = scrub(&argv(&["/definitely/not/an/index"])).unwrap_err();
        assert_eq!(err.exit_code(), 1);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_serve_smoke_writes_schema_stable_json() {
        let out = tmp("bench_serve.json");
        let report = bench_serve(&argv(&["--smoke", "--router", "--out", &out])).unwrap();
        assert!(report.contains("steady:"), "{report}");
        assert!(report.contains("overload:"), "{report}");
        assert!(report.contains("router_steady:"), "{report}");
        assert!(report.contains("router_failover:"), "{report}");
        let text = std::fs::read_to_string(&out).unwrap();
        let parsed = gsb_telemetry::json::parse(&text).expect("bench JSON parses");
        let scenarios = parsed.get("scenarios").expect("scenarios object");
        for name in ["steady", "overload"] {
            let s = scenarios.get(name).unwrap_or_else(|| panic!("{name}"));
            assert!(s.u64_or_zero("requests") > 0, "{name} issued requests");
            for key in ["ok", "qps", "p50_us", "p95_us", "p99_us", "shed_rate"] {
                assert!(s.get(key).is_some(), "{name} missing {key}");
            }
        }
        for name in ["router_steady", "router_failover"] {
            let s = scenarios.get(name).unwrap_or_else(|| panic!("{name}"));
            assert!(s.u64_or_zero("requests") > 0, "{name} issued requests");
            for key in [
                "ok",
                "degraded_ok",
                "qps",
                "p50_us",
                "p99_us",
                "retries",
                "hedges",
                "hedge_wins",
                "degraded_answers",
            ] {
                assert!(s.get(key).is_some(), "{name} missing {key}");
            }
            // Both shards kept at least one live replica throughout, so
            // every answer must have been exact: degraded means the
            // router gave up on a shard that was still servable.
            assert_eq!(s.u64_or_zero("degraded_ok"), 0, "{name} degraded answers");
        }
        let failover = scenarios.get("router_failover").unwrap();
        assert_eq!(
            failover.get("killed_replica").and_then(|v| v.as_bool()),
            Some(true)
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn shard_split_then_router_topology_round_trip() {
        let path = tmp("g18.txt");
        let dir = tmp("g18-index");
        let out = tmp("g18-shards");
        let topo = tmp("g18.topology");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "36",
            "--modules",
            "7,5",
            "--seed",
            "43",
            "--out",
            &path,
        ]))
        .unwrap();
        index(&argv(&[&path, "--min", "3", "--out", &dir])).unwrap();

        let report = shard(&argv(&[
            &dir,
            "--out",
            &out,
            "--shards",
            "2",
            "--topology-out",
            &topo,
            "--replicas",
            "127.0.0.1:7701,127.0.0.1:7702/127.0.0.1:7703,127.0.0.1:7704",
        ]))
        .unwrap();
        assert!(report.contains("split"), "{report}");
        assert!(report.contains("shard 1:"), "{report}");
        let text = std::fs::read_to_string(&topo).unwrap();
        let topology = gsb_index::Topology::from_text(&text).expect("topology parses");
        assert_eq!(topology.shards.len(), 2);
        assert_eq!(topology.shards[0].replicas.len(), 2);

        // Each shard directory is an ordinary servable index.
        for k in 0..2 {
            let sub = gsb_index::CliqueIndex::open(Path::new(&format!("{out}/shard{k}"))).unwrap();
            assert_ne!(sub.len(), 0);
        }

        // usage errors
        assert!(shard(&argv(&[&dir])).is_err()); // --out required
        let err = shard(&argv(&[&dir, "--out", &out, "--topology-out", &topo])).unwrap_err();
        assert!(err.to_string().contains("--replicas"), "{err}");
        let err = shard(&argv(&[
            &dir,
            "--out",
            &out,
            "--shards",
            "2",
            "--topology-out",
            &topo,
            "--replicas",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("shard group"), "{err}");

        // router usage errors: bad percentile, missing topology
        let err = router(&argv(&[&topo, "--hedge-percentile", "1.5"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = router(&argv(&["/definitely/not/a/topology"])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&topo);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn scrub_json_emits_findings_and_summary() {
        let path = tmp("g19.txt");
        let dir = tmp("g19-index");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "36",
            "--modules",
            "7,5",
            "--seed",
            "47",
            "--out",
            &path,
        ]))
        .unwrap();
        index(&argv(&[&path, "--min", "3", "--out", &dir])).unwrap();

        // Clean: a single summary object, clean=true, exit 0.
        let clean = scrub(&argv(&[&dir, "--json"])).unwrap();
        let lines: Vec<&str> = clean.lines().collect();
        assert_eq!(lines.len(), 1, "{clean}");
        let summary = gsb_telemetry::json::parse(lines[0]).expect("summary parses");
        assert_eq!(summary.get("clean").and_then(|v| v.as_bool()), Some(true));
        assert!(summary.u64_or_zero("blocks_checked") > 0);
        assert_eq!(summary.u64_or_zero("findings"), 0);

        // Corrupt: one JSON object per finding, summary says dirty,
        // exit code 1.
        let store = Path::new(&dir).join("cliques.gsi");
        let mut bytes = std::fs::read(&store).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        std::fs::write(&store, &bytes).unwrap();
        let err = scrub(&argv(&[&dir, "--json"])).unwrap_err();
        assert_eq!(err.exit_code(), 1);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The dynamic-maintenance CLI surface end to end: update a built
    /// index, query/stats/scrub the chained view, compact it clean,
    /// and hit the refusal paths (frozen --max index, no-op batch,
    /// missing edit flags).
    #[test]
    fn update_then_compact_round_trip() {
        let path = tmp("g20.txt");
        let dir = tmp("g20-index");
        generate(&argv(&[
            "--kind",
            "planted",
            "--n",
            "40",
            "--modules",
            "7,5",
            "--seed",
            "29",
            "--out",
            &path,
        ]))
        .unwrap();
        index(&argv(&[&path, "--min", "3", "--out", &dir])).unwrap();

        // Build an edit batch from the actual graph: remove one real
        // edge, add one absent edge, and grow the graph by a vertex.
        let mut g = load(&path).unwrap();
        let (mut rm, mut add) = (None, None);
        'outer: for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                if rm.is_none() && g.has_edge(u, v) {
                    rm = Some((u, v));
                } else if add.is_none() && !g.has_edge(u, v) {
                    add = Some((u, v));
                }
                if rm.is_some() && add.is_some() {
                    break 'outer;
                }
            }
        }
        let (ru, rv) = rm.unwrap();
        let (au, av) = add.unwrap();
        let rm_file = tmp("g20.rm");
        let add_file = tmp("g20.add");
        std::fs::write(&rm_file, format!("{ru} {rv}\n")).unwrap();
        std::fs::write(&add_file, format!("{au} {av}\n0 40 # grow\n")).unwrap();

        let report = update(&argv(&[
            &dir,
            "--remove-edges",
            &rm_file,
            "--add-edges",
            &add_file,
        ]))
        .unwrap();
        assert!(report.contains("1 removal(s) applied"), "{report}");
        assert!(report.contains("2 addition(s) applied"), "{report}");
        assert!(report.contains("generation 1:"), "{report}");

        // The chained index answers exactly what a fresh enumeration
        // of the patched graph produces.
        g = load(&path).unwrap();
        g = {
            let mut grown = g.grown(41);
            grown.remove_edge(ru, rv);
            grown.add_edge(au, av);
            grown.add_edge(0, 40);
            grown
        };
        let patched_path = tmp("g20-patched.txt");
        save(&g, &patched_path).unwrap();
        let plain = cliques(&argv(&[&patched_path, "--min", "3"])).unwrap();
        let mut want: Vec<&str> = plain.lines().filter(|l| !l.starts_with('#')).collect();
        want.sort();
        let all = query(&argv(&[&dir, "--size-min", "0", "--limit", "100000"])).unwrap();
        let mut got: Vec<String> = all
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l.split_once('\t').unwrap().1.to_string())
            .collect();
        got.sort();
        assert_eq!(got, want, "chained query differs from fresh enumeration");

        // stats sees the chain, scrub walks it clean.
        let s = stats(&argv(&["--index", &dir])).unwrap();
        assert!(s.contains("delta chain:    1 generation(s)"), "{s}");
        let sc = scrub(&argv(&[&dir])).unwrap();
        assert!(sc.contains("index is clean"), "{sc}");
        assert!(sc.contains("delta chain: 1 generation(s)"), "{sc}");

        // A no-op batch (removing the already-removed edge) commits
        // nothing.
        let noop = update(&argv(&[&dir, "--remove-edges", &rm_file])).unwrap();
        assert!(noop.contains("no-op"), "{noop}");

        // Compact folds the chain; queries are unchanged and a second
        // compact is a no-op.
        let c = compact(&argv(&[&dir])).unwrap();
        assert!(c.contains("compacted"), "{c}");
        let all2 = query(&argv(&[&dir, "--size-min", "0", "--limit", "100000"])).unwrap();
        let mut got2: Vec<String> = all2
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l.split_once('\t').unwrap().1.to_string())
            .collect();
        got2.sort();
        assert_eq!(got2, want, "compaction changed query answers");
        let s2 = stats(&argv(&["--index", &dir])).unwrap();
        assert!(!s2.contains("delta chain"), "{s2}");
        let c2 = compact(&argv(&[&dir])).unwrap();
        assert!(c2.contains("already compact"), "{c2}");

        // Frozen (--max) indexes refuse updates; an update without
        // edit files is a usage error.
        let frozen = tmp("g20-frozen");
        index(&argv(&[
            &path, "--min", "3", "--max", "5", "--out", &frozen,
        ]))
        .unwrap();
        let err = update(&argv(&[&frozen, "--add-edges", &add_file])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
        assert!(update(&argv(&[&dir])).is_err());

        for f in [&path, &patched_path, &rm_file, &add_file] {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&frozen);
    }

    /// `gsb bench-update` smoke: the committed JSON has the diffed
    /// schema and the single-edge speedup clears the smoke floor.
    #[test]
    fn bench_update_smoke_writes_schema() {
        let out = tmp("bench-update.json");
        let report = bench_update(&argv(&["--smoke", "--out", &out])).unwrap();
        assert!(report.contains("bench-update (smoke)"), "{report}");
        let json = std::fs::read_to_string(&out).unwrap();
        for key in [
            "\"bench\": \"gsb_bench_update\"",
            "\"batches\"",
            "\"edits\":1",
            "\"edits\":64",
            "\"single_edge_speedup\"",
            "\"required_speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn drained_error_shape() {
        let e = CliError::Drained {
            signal: 2,
            connections: 41,
            requests: 40,
        };
        assert_eq!(e.exit_code(), 130);
        let text = e.to_string();
        assert!(text.contains("drained 41 connection(s)"), "{text}");
        assert!(text.contains("40 request(s)"), "{text}");
        // SIGTERM maps to the conventional 143.
        let e = CliError::Drained {
            signal: 15,
            connections: 1,
            requests: 1,
        };
        assert_eq!(e.exit_code(), 143);
    }
}
