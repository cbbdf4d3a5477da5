//! Centralized load-balancing policy, as pure functions over task costs.
//!
//! The paper (§2.3): the scheduler "identifies the heavy-loaded threads,
//! and light-loaded threads will help the heaviest-loaded thread ... if
//! the difference between two threads is greater than a certain
//! threshold, a load transfer decision is made. In our algorithm the
//! threshold is determined based on the graph size, the total amount of
//! current load, and differences of their loads from the average load."
//!
//! The policy here makes those suppressed details concrete and testable:
//! the transfer threshold is `max(rel_slack × total / workers, min_abs)`,
//! and transfers move whole tasks from the heaviest to the lightest
//! worker until the spread drops below the threshold (or no single task
//! move can improve it).

/// Tunable balancing policy.
#[derive(Clone, Copy, Debug)]
pub struct BalancePolicy {
    /// Spread tolerance as a fraction of the per-worker average load.
    pub rel_slack: f64,
    /// Absolute floor under which imbalance is never acted on (models
    /// the paper's graph-size-dependent component: moving tiny tasks
    /// costs more in scheduling than it saves).
    pub min_abs: u64,
}

impl Default for BalancePolicy {
    fn default() -> Self {
        BalancePolicy {
            rel_slack: 0.10,
            min_abs: 1,
        }
    }
}

impl BalancePolicy {
    /// The transfer threshold for a given total load and worker count.
    pub fn threshold(&self, total: u64, workers: usize) -> u64 {
        let avg = total as f64 / workers.max(1) as f64;
        ((avg * self.rel_slack) as u64).max(self.min_abs)
    }
}

/// Greedy LPT (longest processing time first) initial partition: sort
/// tasks by descending cost, place each on the currently lightest
/// worker. Returns per-worker lists of task indices.
pub fn partition_greedy(costs: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    let mut loads = vec![0u64; workers];
    let mut assign: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for idx in order {
        let w = (0..workers).min_by_key(|&w| (loads[w], w)).unwrap();
        loads[w] += costs[idx];
        assign[w].push(idx);
    }
    assign
}

/// Move tasks from heavy to light workers until the load spread drops
/// below the policy threshold (or no single move can improve it).
/// Mutates the real task queues directly — `cost` prices each task —
/// and returns the number of tasks moved, which callers fold into the
/// unified moved-work count of
/// [`LevelStats::transfers`](crate::stats::LevelStats::transfers).
pub fn rebalance<T>(
    queues: &mut [Vec<T>],
    cost: impl Fn(&T) -> u64,
    policy: &BalancePolicy,
) -> usize {
    let workers = queues.len();
    if workers < 2 {
        return 0;
    }
    let total: u64 = queues.iter().flat_map(|q| q.iter().map(&cost)).sum();
    let threshold = policy.threshold(total, workers);
    let mut moved = 0usize;
    // Bounded passes: each move strictly decreases the heaviest load or
    // we stop, so the loop terminates; the cap is a hard backstop.
    for _ in 0..queues.iter().map(Vec::len).sum::<usize>().max(1) {
        let loads: Vec<u64> = queues.iter().map(|q| q.iter().map(&cost).sum()).collect();
        let heavy = (0..workers).max_by_key(|&w| (loads[w], w)).unwrap();
        let light = (0..workers).min_by_key(|&w| (loads[w], w)).unwrap();
        let gap = loads[heavy] - loads[light];
        if gap <= threshold || queues[heavy].len() <= 1 {
            break;
        }
        // Move the task whose cost best halves the gap without
        // overshooting into reverse imbalance.
        let target = gap / 2;
        let best = queues[heavy]
            .iter()
            .map(&cost)
            .enumerate()
            .filter(|&(_, c)| c <= gap) // moving more than the gap flips it
            .min_by_key(|&(i, c)| (target.abs_diff(c), i))
            .map(|(i, _)| i);
        let Some(i) = best else { break };
        let task = queues[heavy].remove(i);
        queues[light].push(task);
        moved += 1;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_tasks() {
        let costs = vec![5, 3, 8, 1, 9, 2];
        let parts = partition_greedy(&costs, 3);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn partition_is_balanced_for_equal_tasks() {
        let costs = vec![4u64; 12];
        let parts = partition_greedy(&costs, 4);
        assert!(parts.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn lpt_beats_naive_on_skewed_costs() {
        let costs = vec![10, 10, 10, 1, 1, 1, 1, 1, 1];
        let parts = partition_greedy(&costs, 3);
        let makespan = parts
            .iter()
            .map(|p| p.iter().map(|&i| costs[i]).sum::<u64>())
            .max();
        assert_eq!(makespan, Some(12)); // 10+1+1 each
    }

    #[test]
    fn rebalance_moves_from_heavy_to_light() {
        let mut queues = vec![vec![10u64, 10, 10, 10], vec![1]];
        let policy = BalancePolicy::default();
        let moved = rebalance(&mut queues, |&c| c, &policy);
        assert!(moved > 0);
        let spread = queues.iter().map(|q| q.iter().sum::<u64>()).max().unwrap()
            - queues.iter().map(|q| q.iter().sum::<u64>()).min().unwrap();
        assert!(spread <= 10, "spread {spread} after rebalance");
    }

    #[test]
    fn rebalance_respects_threshold() {
        // spread of 2 on total 20 across 2 workers: threshold = 1 (10%
        // of avg 10) — acts; with rel_slack=0.5 threshold 5 — no action.
        let mut q1 = vec![vec![6u64, 5], vec![5, 4]];
        let lazy = BalancePolicy {
            rel_slack: 0.5,
            min_abs: 1,
        };
        assert_eq!(rebalance(&mut q1, |&c| c, &lazy), 0);
    }

    #[test]
    fn rebalance_never_empties_heavy_to_flip() {
        let mut queues = vec![vec![100u64], vec![]];
        let moved = rebalance(&mut queues, |&c| c, &BalancePolicy::default());
        // single indivisible task: nothing useful to move
        assert_eq!(moved, 0);
        assert_eq!(queues[0], vec![100]);
    }

    #[test]
    fn rebalance_single_worker_noop() {
        let mut queues = vec![vec![1u64, 2, 3]];
        assert_eq!(rebalance(&mut queues, |&c| c, &BalancePolicy::default()), 0);
    }

    #[test]
    fn rebalance_moves_real_tasks() {
        // The balancer operates on the caller's actual task type — no
        // shadow cost queue, no move replay.
        let mut queues = vec![
            vec![("a", 9u64), ("b", 8), ("c", 7)],
            vec![("d", 1)],
            vec![("e", 2)],
        ];
        let before: usize = queues.iter().map(Vec::len).sum();
        let moved = rebalance(&mut queues, |t| t.1, &BalancePolicy::default());
        assert!(moved > 0);
        assert_eq!(queues.iter().map(Vec::len).sum::<usize>(), before);
        let mut all: Vec<&str> = queues.iter().flatten().map(|t| t.0).collect();
        all.sort_unstable();
        assert_eq!(all, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn threshold_floor_applies() {
        let p = BalancePolicy {
            rel_slack: 0.1,
            min_abs: 50,
        };
        assert_eq!(p.threshold(100, 4), 50);
        assert_eq!(p.threshold(100_000, 4), 2500);
    }
}
