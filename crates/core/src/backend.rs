//! Which bitmap representation a run enumerates with.
//!
//! [`BackendChoice`] names the common-neighbor bitmap representation
//! (dense or WAH-compressed) of a run; the pipeline
//! and CLI dispatch on it to pick the `S: NeighborSet` type parameter.
//! How a level is held — resident, or in a budgeted
//! [`LevelStore`](crate::store::LevelStore) out of core — is the
//! enumerator's business, not the backend's.

/// Which common-neighbor bitmap representation a run should use.
///
/// This is the runtime-value mirror of the `S: NeighborSet` type
/// parameter, used where the choice arrives as data (CLI flag,
/// `run.meta` of a resumable run) rather than as a type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Dense `u64`-word bitmaps ([`gsb_bitset::BitSet`]).
    #[default]
    Dense,
    /// WAH-compressed bitmaps ([`gsb_bitset::WahBitSet`]), operated on
    /// in compressed form.
    Wah,
}

impl BackendChoice {
    /// Canonical lowercase name (`dense` / `wah`), matching
    /// the CLI `--backend` values and the `run.meta` `backend=` key.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Dense => "dense",
            BackendChoice::Wah => "wah",
        }
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(BackendChoice::Dense),
            "wah" => Ok(BackendChoice::Wah),
            other => Err(format!("unknown backend '{other}' (expected dense or wah)")),
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_choice_parses_and_prints() {
        for (s, want) in [("dense", BackendChoice::Dense), ("wah", BackendChoice::Wah)] {
            let got: BackendChoice = s.parse().unwrap();
            assert_eq!(got, want);
            assert_eq!(got.to_string(), s);
        }
        assert!("lzma".parse::<BackendChoice>().is_err());
    }
}
