//! `gsb shard` — split one committed index into contiguous-id shard
//! directories a replicated `gsb serve` tier can serve, optionally
//! emitting the matching `gsb router` topology file.

use crate::args::Args;
use crate::CliError;
use gsb_index::{split_index, ShardSpec, Topology};
use std::fmt::Write as _;
use std::path::Path;

/// `gsb shard`
pub fn shard(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &["out", "shards", "topology-out", "replicas"], &[], 1)?;
    let src = a.required_positional(0, "INDEX_DIR")?;
    let out = a
        .flag("out")
        .ok_or_else(|| CliError::Usage("gsb shard requires --out DIR".into()))?;
    let shards: usize = a.flag_or("shards", 2)?;
    let topology_out = a.flag("topology-out");
    let replicas = a.flag("replicas");
    if topology_out.is_some() && replicas.is_none() {
        return Err(CliError::Usage(
            "--topology-out needs --replicas (per-shard address lists, \
             comma-separated within a shard, slash-separated between shards: \
             h1:p1,h1:p2/h2:p1,h2:p2)"
                .into(),
        ));
    }

    let summaries = split_index(Path::new(src), Path::new(out), shards).map_err(CliError::Store)?;
    let mut report = String::new();
    let _ = writeln!(report, "split {} into {} shards under {}", src, shards, out);
    for s in &summaries {
        let _ = writeln!(
            report,
            "  shard {}: ids {}..{} sizes {}..{} at {}",
            s.shard,
            s.id_lo,
            s.id_hi,
            s.size_lo,
            s.size_hi,
            s.dir.display()
        );
    }

    if let (Some(path), Some(replicas)) = (topology_out, replicas) {
        let groups: Vec<&str> = replicas.split('/').collect();
        if groups.len() != summaries.len() {
            return Err(CliError::Usage(format!(
                "--replicas lists {} shard group(s) but --shards is {}",
                groups.len(),
                summaries.len()
            )));
        }
        let topology = Topology {
            shards: summaries
                .iter()
                .zip(&groups)
                .map(|(s, group)| ShardSpec::new(s, group.split(',').map(str::to_string).collect()))
                .collect(),
        };
        // Round-trip through the parser so a bad --replicas address is
        // caught here, not when the router starts.
        let text = topology.to_text();
        Topology::from_text(&text).map_err(CliError::Store)?;
        std::fs::write(path, &text)?;
        let _ = writeln!(report, "topology written to {path}");
    }
    Ok(report)
}
