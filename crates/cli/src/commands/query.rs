//! `gsb query` — answer clique queries from a `gsb index` directory,
//! read-only, without re-running any enumeration.

use crate::args::Args;
use crate::CliError;
use gsb_core::Clique;
use gsb_index::{CliqueIndex, Matches};
use std::fmt::Write as _;
use std::path::Path;

/// `gsb query`
pub fn query(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(
        argv,
        &["containing", "size-min", "size-max", "overlap", "limit"],
        &["max", "ids-only"],
        1,
    )?;
    let dir = a.required_positional(0, "INDEX_DIR")?;
    let limit: usize = a.flag_or("limit", 1000)?;
    let ids_only = a.switch("ids-only");
    let index = CliqueIndex::open(Path::new(dir)).map_err(CliError::Store)?;

    let containing: Option<u32> = a.flag_opt("containing")?;
    let size_min: Option<u32> = a.flag_opt("size-min")?;
    let size_max: Option<u32> = a.flag_opt("size-max")?;
    let overlap = a.flag("overlap");
    let want_max = a.switch("max");

    let modes = [
        containing.is_some(),
        size_min.is_some() || size_max.is_some(),
        overlap.is_some(),
        want_max,
    ];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err(CliError::Usage(
            "gsb query needs exactly one of --containing V, --size-min/--size-max, \
             --overlap V,W, or --max"
                .into(),
        ));
    }

    if let Some(v) = containing {
        let ids = index.containing(v).map_err(CliError::Store)?;
        return render(
            &index,
            &format!("cliques containing {v}"),
            Matches::first(ids, limit),
            ids_only,
        );
    }
    if let Some(pair) = overlap {
        let Some((v, w)) = pair.split_once(',') else {
            return Err(CliError::Usage("--overlap takes V,W (two vertices)".into()));
        };
        let (v, w) = match (v.trim().parse::<u32>(), w.trim().parse::<u32>()) {
            (Ok(v), Ok(w)) => (v, w),
            _ => return Err(CliError::Usage("--overlap takes numeric vertices".into())),
        };
        let ids = index.overlap(v, w).map_err(CliError::Store)?;
        return render(
            &index,
            &format!("cliques containing both {v} and {w}"),
            Matches::first(ids, limit),
            ids_only,
        );
    }
    if want_max {
        let mut out = String::new();
        match index.max_clique().map_err(CliError::Store)? {
            Some(c) => {
                let _ = writeln!(out, "maximum clique (size {}):", c.len());
                let _ = writeln!(out, "{}", render_clique(&c));
            }
            None => {
                let _ = writeln!(out, "index is empty — no maximum clique");
            }
        }
        return Ok(out);
    }
    let lo = size_min.unwrap_or(0);
    let hi = match size_max {
        Some(hi) if hi < lo => {
            return Err(CliError::Usage(format!(
                "--size-min {lo} exceeds --size-max {hi}"
            )))
        }
        Some(hi) => hi,
        // no ceiling: up to the largest clique, and a floor above it
        // matches nothing
        None => index.max_size().max(lo),
    };
    // tombstone-aware: dead ids of a chained index are not counted
    render(
        &index,
        &format!("cliques of size {lo}..={hi}"),
        index.size_matches(lo, hi, limit),
        ids_only,
    )
}

/// The total line, then each listed id (with its clique unless
/// `ids_only`), then how many more matched.
fn render(
    index: &CliqueIndex,
    what: &str,
    matches: Matches,
    ids_only: bool,
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "{}: {} total", what, matches.count);
    if ids_only {
        for id in &matches.ids {
            let _ = writeln!(out, "{id}");
        }
    } else {
        let cliques = index
            .materialize(matches.ids.iter().copied())
            .map_err(CliError::Store)?;
        for (id, c) in matches.ids.iter().zip(&cliques) {
            let _ = writeln!(out, "#{id}\t{}", render_clique(c));
        }
    }
    let more = matches.count - matches.ids.len() as u64;
    if more > 0 {
        let _ = writeln!(out, "… {more} more (raise --limit)");
    }
    Ok(out)
}

fn render_clique(c: &Clique) -> String {
    let text: Vec<String> = c.iter().map(u32::to_string).collect();
    format!("{}\t{}", c.len(), text.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_core::CliqueSink;
    use gsb_index::IndexWriter;

    /// An index of five cliques over 10 vertices, sizes 3, 3, 3, 4, 5
    /// (ids 0..5 in that order), in a directory removed on drop.
    struct Fixture(std::path::PathBuf);

    impl Fixture {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("gsb-cli-query-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut w = IndexWriter::create(&dir, 10).unwrap();
            for c in [
                &[0, 1, 2][..],
                &[0, 1, 3],
                &[2, 3, 4],
                &[5, 6, 7, 8],
                &[1, 2, 3, 4, 9],
            ] {
                w.maximal(c);
            }
            w.finish().unwrap();
            Fixture(dir)
        }

        fn query(&self, flags: &[&str]) -> Result<String, CliError> {
            let mut argv = vec![self.0.to_string_lossy().into_owned()];
            argv.extend(flags.iter().map(|f| f.to_string()));
            query(&argv)
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn size_range_prints_the_total_then_the_cliques() {
        let idx = Fixture::new("total");
        assert_eq!(
            idx.query(&["--size-min", "3", "--size-max", "4"]).unwrap(),
            "cliques of size 3..=4: 4 total\n\
             #0\t3\t0 1 2\n#1\t3\t0 1 3\n#2\t3\t2 3 4\n#3\t4\t5 6 7 8\n"
        );
        // without --size-max the range runs to the largest clique
        assert_eq!(
            idx.query(&["--size-min", "4", "--limit", "1"]).unwrap(),
            "cliques of size 4..=5: 2 total\n#3\t4\t5 6 7 8\n… 1 more (raise --limit)\n"
        );
        // without --size-min it starts at 0
        assert_eq!(
            idx.query(&["--size-max", "2"]).unwrap(),
            "cliques of size 0..=2: 0 total\n"
        );
    }

    #[test]
    fn limit_zero_prints_only_the_total() {
        let idx = Fixture::new("limit0");
        assert_eq!(
            idx.query(&["--size-min", "0", "--limit", "0"]).unwrap(),
            "cliques of size 0..=5: 5 total\n… 5 more (raise --limit)\n"
        );
        assert_eq!(
            idx.query(&[
                "--size-min",
                "3",
                "--size-max",
                "3",
                "--limit",
                "0",
                "--ids-only"
            ])
            .unwrap(),
            "cliques of size 3..=3: 3 total\n… 3 more (raise --limit)\n"
        );
    }

    #[test]
    fn ids_only_lists_the_first_ids() {
        let idx = Fixture::new("ids");
        assert_eq!(
            idx.query(&["--size-min", "3", "--ids-only", "--limit", "2"])
                .unwrap(),
            "cliques of size 3..=5: 5 total\n0\n1\n… 3 more (raise --limit)\n"
        );
        assert_eq!(
            idx.query(&["--size-min", "4", "--size-max", "9", "--ids-only"])
                .unwrap(),
            "cliques of size 4..=9: 2 total\n3\n4\n"
        );
    }

    #[test]
    fn a_floor_above_the_largest_clique_matches_nothing() {
        let idx = Fixture::new("floor");
        assert_eq!(
            idx.query(&["--size-min", "20"]).unwrap(),
            "cliques of size 20..=20: 0 total\n"
        );
        assert_eq!(
            idx.query(&["--size-min", "6", "--ids-only"]).unwrap(),
            "cliques of size 6..=6: 0 total\n"
        );
        // an explicit ceiling below the floor is still a usage error
        let err = idx
            .query(&["--size-min", "5", "--size-max", "4"])
            .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
    }
}
