//! Per-worker / per-level timing records.
//!
//! Figure 8 of the paper plots the mean and standard deviation of
//! execution time *across processors* to show the balancer keeps the
//! spread within 10% of the mean. These types capture exactly that data
//! from real runs (and from the virtual simulator).

/// Busy times of every worker for one level (a steal-scope epoch of the
/// work-stealing runtime, or one level of a balancer replay). One
/// imbalance model covers both: [`transfers`](Self::transfers) counts
/// every task that changed workers, whether an idle worker stole it
/// mid-epoch or the centralized balancer moved it between levels.
#[derive(Clone, Debug, Default)]
pub struct LevelStats {
    /// Clique size (or generic level id) this round produced.
    pub level: usize,
    /// Per-worker busy nanoseconds.
    pub per_worker_ns: Vec<u64>,
    /// Per-worker deterministic work units (empty when the caller does
    /// not track them). Unlike wall time, these are unaffected by host
    /// core contention, so they measure the *balancer*, not the OS.
    pub per_worker_units: Vec<u64>,
    /// Number of tasks each worker processed.
    pub per_worker_tasks: Vec<usize>,
    /// Tasks that moved between workers at this level: successful
    /// steals in a live epoch, balancer transfers in a replay. The
    /// unified "moved work" count.
    pub transfers: usize,
    /// Per-worker successful steals (sums to
    /// [`transfers`](Self::transfers) in a live epoch; empty in a
    /// balancer replay).
    pub per_worker_steals: Vec<u64>,
    /// Victim scans that found nothing stealable while work was still
    /// in flight.
    pub failed_steals: u64,
    /// Per-worker nanoseconds spent waiting for stealable work (the
    /// quiescence tail; empty in a balancer replay, which has no idle
    /// time to observe — Fig. 8 infers it from the busy spread).
    pub per_worker_idle_ns: Vec<u64>,
}

impl LevelStats {
    /// Mean busy time (ns) across workers.
    pub fn mean_ns(&self) -> f64 {
        mean(&self.per_worker_ns)
    }

    /// Population standard deviation of busy time (ns) across workers.
    pub fn stddev_ns(&self) -> f64 {
        stddev(&self.per_worker_ns)
    }

    /// Relative imbalance: stddev / mean (0 when idle).
    pub fn imbalance(&self) -> f64 {
        let m = self.mean_ns();
        if m == 0.0 {
            0.0
        } else {
            self.stddev_ns() / m
        }
    }
}

/// Timing of a whole multi-level run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// One entry per level, in execution order.
    pub levels: Vec<LevelStats>,
    /// Wall-clock nanoseconds of the full run.
    pub wall_ns: u64,
}

impl RunStats {
    /// Total busy time per worker, summed over levels (the per-processor
    /// run times of Fig. 8).
    pub fn per_worker_totals(&self) -> Vec<u64> {
        let workers = self
            .levels
            .iter()
            .map(|l| l.per_worker_ns.len())
            .max()
            .unwrap_or(0);
        let mut totals = vec![0u64; workers];
        for l in &self.levels {
            for (w, &ns) in l.per_worker_ns.iter().enumerate() {
                totals[w] += ns;
            }
        }
        totals
    }

    /// Mean of per-worker total busy times.
    pub fn mean_worker_ns(&self) -> f64 {
        mean(&self.per_worker_totals())
    }

    /// Stddev of per-worker total busy times.
    pub fn stddev_worker_ns(&self) -> f64 {
        stddev(&self.per_worker_totals())
    }

    /// Total work units per worker, summed over levels (the
    /// contention-free view of Fig. 8's load balance).
    pub fn per_worker_unit_totals(&self) -> Vec<u64> {
        let workers = self
            .levels
            .iter()
            .map(|l| l.per_worker_units.len())
            .max()
            .unwrap_or(0);
        let mut totals = vec![0u64; workers];
        for l in &self.levels {
            for (w, &u) in l.per_worker_units.iter().enumerate() {
                totals[w] += u;
            }
        }
        totals
    }

    /// Total moved work across levels (steals or balancer transfers —
    /// see [`LevelStats::transfers`]).
    pub fn total_transfers(&self) -> usize {
        self.levels.iter().map(|l| l.transfers).sum()
    }

    /// Total failed steal scans across levels.
    pub fn total_failed_steals(&self) -> u64 {
        self.levels.iter().map(|l| l.failed_steals).sum()
    }

    /// Total steal-wait (idle) time per worker, summed over levels.
    pub fn per_worker_idle_totals(&self) -> Vec<u64> {
        let workers = self
            .levels
            .iter()
            .map(|l| l.per_worker_idle_ns.len())
            .max()
            .unwrap_or(0);
        let mut totals = vec![0u64; workers];
        for l in &self.levels {
            for (w, &ns) in l.per_worker_idle_ns.iter().enumerate() {
                totals[w] += ns;
            }
        }
        totals
    }
}

/// Mean of a u64 slice (0 when empty).
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// Population standard deviation of a u64 slice (0 when empty).
pub fn stddev(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs
        .iter()
        .map(|&x| {
            let d = x as f64 - m;
            d * d
        })
        .sum::<f64>()
        / xs.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4, 6]), 4.0);
        assert_eq!(stddev(&[5, 5, 5]), 0.0);
        assert!((stddev(&[2, 4, 6]) - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn level_imbalance() {
        let l = LevelStats {
            level: 3,
            per_worker_ns: vec![100, 100, 100, 100],
            per_worker_units: vec![10; 4],
            per_worker_tasks: vec![1; 4],
            transfers: 0,
            ..Default::default()
        };
        assert_eq!(l.imbalance(), 0.0);
        let l2 = LevelStats {
            per_worker_ns: vec![0, 0],
            ..Default::default()
        };
        assert_eq!(l2.imbalance(), 0.0);
    }

    #[test]
    fn run_totals_accumulate() {
        let run = RunStats {
            levels: vec![
                LevelStats {
                    level: 3,
                    per_worker_ns: vec![10, 20],
                    per_worker_units: Vec::new(),
                    per_worker_tasks: vec![1, 2],
                    transfers: 1,
                    ..Default::default()
                },
                LevelStats {
                    level: 4,
                    per_worker_ns: vec![5, 5],
                    per_worker_units: Vec::new(),
                    per_worker_tasks: vec![1, 1],
                    transfers: 0,
                    ..Default::default()
                },
            ],
            wall_ns: 42,
        };
        assert_eq!(run.per_worker_totals(), vec![15, 25]);
        assert_eq!(run.mean_worker_ns(), 20.0);
        assert_eq!(run.total_transfers(), 1);
    }

    #[test]
    fn empty_run_is_all_zeros() {
        let run = RunStats::default();
        assert!(run.per_worker_totals().is_empty());
        assert!(run.per_worker_unit_totals().is_empty());
        assert_eq!(run.mean_worker_ns(), 0.0);
        assert_eq!(run.stddev_worker_ns(), 0.0);
        assert_eq!(run.total_transfers(), 0);
    }

    #[test]
    fn single_worker_has_no_spread() {
        let l = LevelStats {
            level: 3,
            per_worker_ns: vec![1234],
            per_worker_units: vec![99],
            per_worker_tasks: vec![7],
            transfers: 0,
            ..Default::default()
        };
        assert_eq!(l.mean_ns(), 1234.0);
        assert_eq!(l.stddev_ns(), 0.0);
        assert_eq!(l.imbalance(), 0.0);
        let run = RunStats {
            levels: vec![l],
            wall_ns: 1234,
        };
        assert_eq!(run.per_worker_totals(), vec![1234]);
        assert_eq!(run.stddev_worker_ns(), 0.0);
    }

    #[test]
    fn ragged_levels_pad_missing_workers_with_zero() {
        // A run whose worker count changed between levels (e.g. a
        // respawned pool after a contained panic): totals must be sized
        // by the widest level, with absent workers contributing zero.
        let run = RunStats {
            levels: vec![
                LevelStats {
                    level: 3,
                    per_worker_ns: vec![10, 20, 30],
                    per_worker_units: vec![1, 2, 3],
                    per_worker_tasks: vec![1, 1, 1],
                    transfers: 2,
                    ..Default::default()
                },
                LevelStats {
                    level: 4,
                    per_worker_ns: vec![40],
                    per_worker_units: vec![4],
                    per_worker_tasks: vec![1],
                    transfers: 0,
                    ..Default::default()
                },
            ],
            wall_ns: 100,
        };
        assert_eq!(run.per_worker_totals(), vec![50, 20, 30]);
        assert_eq!(run.per_worker_unit_totals(), vec![5, 2, 3]);
        let totals = run.per_worker_totals();
        assert!((mean(&totals) - 100.0 / 3.0).abs() < 1e-12);
        // stddev over [50, 20, 30]: mean 33.33, population variance
        // (16.67^2 + 13.33^2 + 3.33^2)/3
        let m: f64 = 100.0 / 3.0;
        let var = ((50.0 - m).powi(2) + (20.0 - m).powi(2) + (30.0 - m).powi(2)) / 3.0;
        assert!((stddev(&totals) - var.sqrt()).abs() < 1e-9);
        assert_eq!(run.total_transfers(), 2);
    }
}
