//! Exact bin packing by branch-and-bound.
//!
//! Depth-first search placing items in decreasing size order, with:
//!
//! * an FFD incumbent as the initial upper bound;
//! * the admissible prune `bins_used + ⌈(remaining − free)/W⌉` plus the
//!   global Martello–Toth root bound;
//! * symmetry breaking on bins only: among open bins with equal residuals
//!   one is tried, tightest residual first, and opening a new bin is a
//!   single branch;
//! * a node budget, after which the result degrades gracefully to an
//!   `(L2, FFD)` bracket.
//!
//! The search state is the open-bin residual *multiset*, kept as one
//! ascending `Vec<u64>` allocated once per solve. A child places the item in
//! the first bin of a run of equal residuals and moves that one residual to
//! its sorted position; undo moves it back, so the vector is restored
//! exactly and the walk continues past the run. A new bin's residual is
//! never below an open one (items come largest first), so opening a bin is
//! a push. `free = Σ residuals` is updated with each move instead of being
//! re-summed.
//!
//! Equal-size items are deliberately *not* forced into a fixed bin order.
//! That extra symmetry breaking would prune differently, so a budgeted
//! search would stop at different nodes; which segments of `OPT_total` are
//! proved exact (and the `[lb, ub]` brackets of the rest) would change, and
//! with them every pinned experiment table.

use crate::heuristics::ffd;
use crate::lower_bounds::l2_bound;

/// Result of an exact solve attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The optimal bin count, proved.
    Exact(usize),
    /// Node budget exhausted: the optimum lies in `[lb, ub]`.
    Bounded {
        /// Best proved lower bound.
        lb: usize,
        /// Best found feasible packing.
        ub: usize,
    },
}

impl SolveOutcome {
    /// The proved lower bound.
    pub fn lb(self) -> usize {
        match self {
            SolveOutcome::Exact(n) => n,
            SolveOutcome::Bounded { lb, .. } => lb,
        }
    }

    /// The best known upper bound (a feasible packing's bin count).
    pub fn ub(self) -> usize {
        match self {
            SolveOutcome::Exact(n) => n,
            SolveOutcome::Bounded { ub, .. } => ub,
        }
    }

    /// Whether the optimum was proved.
    pub fn is_exact(self) -> bool {
        matches!(self, SolveOutcome::Exact(_))
    }
}

/// Exact bin packing solver.
#[derive(Debug, Clone, Copy)]
pub struct ExactSolver {
    node_budget: u64,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            node_budget: 2_000_000,
        }
    }
}

struct Search {
    capacity: u64,
    sizes: Vec<u64>, // descending
    suffix_sum: Vec<u128>,
    /// Open-bin residuals, ascending. Never longer than `sizes`.
    residuals: Vec<u64>,
    /// `Σ residuals`.
    free: u128,
    best: usize,
    nodes_left: u64,
    exhausted: bool,
}

impl Search {
    fn new(sizes: &[u64], capacity: u64, best: usize, node_budget: u64) -> Search {
        let mut sorted = sizes.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut suffix_sum = vec![0u128; sorted.len() + 1];
        for i in (0..sorted.len()).rev() {
            suffix_sum[i] = suffix_sum[i + 1] + sorted[i] as u128;
        }
        Search {
            capacity,
            residuals: Vec::with_capacity(sorted.len()),
            sizes: sorted,
            suffix_sum,
            free: 0,
            best,
            nodes_left: node_budget,
            exhausted: false,
        }
    }

    /// DFS over item `idx` placements. Returns early when the incumbent
    /// matches the global lb.
    fn dfs(&mut self, idx: usize, global_lb: usize) {
        if self.nodes_left == 0 {
            self.exhausted = true;
            return;
        }
        self.nodes_left -= 1;

        let open = self.residuals.len();
        if idx == self.sizes.len() {
            self.best = self.best.min(open);
            return;
        }
        // Admissible prune: remaining volume minus free space in open bins.
        let remaining = self.suffix_sum[idx];
        let extra = if remaining > self.free {
            (remaining - self.free).div_ceil(self.capacity as u128) as usize
        } else {
            0
        };
        if open + extra >= self.best {
            return;
        }

        let s = self.sizes[idx];
        // Distinct residuals that fit, tightest first. `j` is always the
        // first index of its run of equal residuals.
        let mut j = self.residuals.partition_point(|&r| r < s);
        while j < open {
            let r = self.residuals[j];
            let v = r - s;
            // One insertion-sort step carries `v` left to its place; undo
            // shifts the same span back.
            let mut p = j;
            while p > 0 && self.residuals[p - 1] > v {
                self.residuals[p] = self.residuals[p - 1];
                p -= 1;
            }
            self.residuals[p] = v;
            self.free -= s as u128;
            self.dfs(idx + 1, global_lb);
            self.free += s as u128;
            self.residuals.copy_within(p + 1..=j, p);
            self.residuals[j] = r;
            if self.best == global_lb || self.exhausted {
                return;
            }
            j += 1;
            while j < open && self.residuals[j] == r {
                j += 1;
            }
        }
        // Open a new bin (single symmetric branch). Its residual is the
        // largest: every open bin already holds an item of size ≥ s.
        let v = self.capacity - s;
        debug_assert!(self.residuals.last().is_none_or(|&r| r <= v));
        self.residuals.push(v);
        self.free += v as u128;
        self.dfs(idx + 1, global_lb);
        self.free -= v as u128;
        self.residuals.pop();
    }

    fn outcome(&self, lb: usize) -> SolveOutcome {
        if self.exhausted && self.best > lb {
            SolveOutcome::Bounded { lb, ub: self.best }
        } else {
            // Search completed: best is optimal (or matched the lb, which
            // proves optimality even if the budget ran out afterwards).
            SolveOutcome::Exact(self.best)
        }
    }
}

impl ExactSolver {
    /// Solver with a custom node budget.
    pub fn with_node_budget(node_budget: u64) -> ExactSolver {
        ExactSolver { node_budget }
    }

    /// Minimum number of bins to pack `sizes` into bins of `capacity`.
    ///
    /// # Panics
    /// Panics if a size exceeds `capacity` or `capacity == 0`.
    pub fn solve(&self, sizes: &[u64], capacity: u64) -> SolveOutcome {
        self.solve_counted(sizes, capacity).0
    }

    /// [`ExactSolver::solve`] plus the number of search nodes expanded.
    fn solve_counted(&self, sizes: &[u64], capacity: u64) -> (SolveOutcome, u64) {
        assert!(capacity > 0, "exact solver: zero capacity");
        if sizes.is_empty() {
            return (SolveOutcome::Exact(0), 0);
        }
        for &s in sizes {
            assert!(
                s <= capacity,
                "exact solver: item {s} exceeds capacity {capacity}"
            );
        }
        let lb = l2_bound(sizes, capacity);
        let ub = ffd(sizes, capacity);
        if lb == ub {
            return (SolveOutcome::Exact(ub), 0);
        }
        let mut search = Search::new(sizes, capacity, ub, self.node_budget);
        search.dfs(0, lb);
        (search.outcome(lb), self.node_budget - search.nodes_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sizes: &[u64], cap: u64) -> usize {
        match ExactSolver::default().solve(sizes, cap) {
            SolveOutcome::Exact(n) => n,
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(exact(&[], 10), 0);
        assert_eq!(exact(&[10], 10), 1);
        assert_eq!(exact(&[5, 5], 10), 1);
        assert_eq!(exact(&[6, 6], 10), 2);
    }

    #[test]
    fn beats_ffd_where_ffd_is_suboptimal() {
        // Classic FFD-suboptimal instance: FFD gives 3 bins, OPT is... let's
        // verify a known one. Sizes on capacity 12: FFD packs
        // 6,5|4,3,3|2 -> 3 bins? FFD order 6,5,4,3,3,2:
        // 6->b0(6); 5->b0? 11<=12 yes (6+5=11); 4->b1; 3->b1(7); 3->b1(10);
        // 2->b1? 12 yes. So 2 bins. Pick the canonical FFD-failure instance:
        // capacity 10, sizes {5,5,4,4,3,3,3,3}: FFD: 5,5|4,4|3,3,3|3 = 4?
        // 5->b0;5->b0(10);4->b1;4->b1(8);3->b2;3->b2(6);3->b2(9);3->b3.
        // OPT: 5+3+... total = 30 -> 3 bins: (5,5),(4,3,3),(4,3,3).
        let sizes = [5, 5, 4, 4, 3, 3, 3, 3];
        assert_eq!(crate::heuristics::ffd(&sizes, 10), 4);
        assert_eq!(exact(&sizes, 10), 3);
    }

    #[test]
    fn exact_between_l2_and_ffd() {
        let cases: &[(&[u64], u64)] = &[
            (&[7, 6, 5, 4, 3, 2, 1], 10),
            (&[9, 9, 2, 2], 10),
            (&[6, 6, 6], 10),
            (&[3, 3, 3, 3, 3, 3, 3], 9),
        ];
        for (sizes, cap) in cases {
            let n = exact(sizes, *cap);
            assert!(n >= crate::lower_bounds::l2_bound(sizes, *cap));
            assert!(n <= crate::heuristics::ffd(sizes, *cap));
        }
    }

    #[test]
    fn tiny_budget_degrades_to_bracket() {
        let solver = ExactSolver::with_node_budget(1);
        // An instance where lb < ub so the search actually runs.
        let sizes = [5, 5, 4, 4, 3, 3, 3, 3];
        match solver.solve(&sizes, 10) {
            SolveOutcome::Bounded { lb, ub } => {
                assert!(lb <= 3 && ub >= 3 && lb < ub);
            }
            SolveOutcome::Exact(n) => {
                // Acceptable if the first DFS path already matched the lb.
                assert_eq!(n, 3);
            }
        }
    }

    /// Differential reference for [`Search`]: the same branch-and-bound
    /// written plainly, re-sorting, re-scanning and re-summing the open bins
    /// at every node. The kernel must expand exactly its nodes.
    struct SeedSearch {
        capacity: u64,
        sizes: Vec<u64>, // descending
        suffix_sum: Vec<u128>,
        best: usize,
        nodes_left: u64,
        exhausted: bool,
    }

    impl SeedSearch {
        /// DFS over item `idx` placements. `residuals` holds open-bin residual
        /// capacities. Returns early when the incumbent matches the global lb.
        fn dfs(&mut self, idx: usize, residuals: &mut Vec<u64>, global_lb: usize) {
            if self.nodes_left == 0 {
                self.exhausted = true;
                return;
            }
            self.nodes_left -= 1;

            if idx == self.sizes.len() {
                self.best = self.best.min(residuals.len());
                return;
            }
            // Admissible prune: remaining volume minus free space in open bins.
            let free: u128 = residuals.iter().map(|&r| r as u128).sum();
            let remaining = self.suffix_sum[idx];
            let extra = if remaining > free {
                (remaining - free).div_ceil(self.capacity as u128) as usize
            } else {
                0
            };
            if residuals.len() + extra >= self.best {
                return;
            }

            let s = self.sizes[idx];
            // Try distinct residuals only (symmetry breaking), tightest first so
            // good packings are found early.
            let mut tried: Vec<u64> = Vec::with_capacity(residuals.len());
            let mut order: Vec<usize> = (0..residuals.len()).collect();
            order.sort_unstable_by_key(|&i| residuals[i]);
            for i in order {
                let r = residuals[i];
                if r < s || tried.contains(&r) {
                    continue;
                }
                tried.push(r);
                residuals[i] = r - s;
                self.dfs(idx + 1, residuals, global_lb);
                residuals[i] = r;
                if self.best == global_lb || self.exhausted {
                    return;
                }
            }
            // Open a new bin (single symmetric branch).
            residuals.push(self.capacity - s);
            self.dfs(idx + 1, residuals, global_lb);
            residuals.pop();
        }
    }

    /// The reference solve: the seed's `solve` body over [`SeedSearch`],
    /// returning the outcome and the nodes expanded.
    fn seed_solve(sizes: &[u64], capacity: u64, node_budget: u64) -> (SolveOutcome, u64) {
        if sizes.is_empty() {
            return (SolveOutcome::Exact(0), 0);
        }
        let lb = l2_bound(sizes, capacity);
        let ub = ffd(sizes, capacity);
        if lb == ub {
            return (SolveOutcome::Exact(ub), 0);
        }

        let mut sorted = sizes.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut suffix_sum = vec![0u128; sorted.len() + 1];
        for i in (0..sorted.len()).rev() {
            suffix_sum[i] = suffix_sum[i + 1] + sorted[i] as u128;
        }
        let mut search = SeedSearch {
            capacity,
            sizes: sorted,
            suffix_sum,
            best: ub,
            nodes_left: node_budget,
            exhausted: false,
        };
        let mut residuals = Vec::new();
        search.dfs(0, &mut residuals, lb);

        let outcome = if search.exhausted && search.best > lb {
            SolveOutcome::Bounded {
                lb,
                ub: search.best,
            }
        } else {
            SolveOutcome::Exact(search.best)
        };
        (outcome, node_budget - search.nodes_left)
    }

    /// Sizes from per-mille fractions of `capacity`; the jitter makes sizes
    /// distinct at large capacities, while small ones collapse into ties.
    fn scaled_sizes(fractions: &[(u64, u64)], capacity: u64) -> Vec<u64> {
        fractions
            .iter()
            .map(|&(permille, jitter)| {
                let base = permille * capacity / 1000 + jitter % (capacity / 1000).max(1);
                base.clamp(1, capacity)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The kernel expands exactly the reference's nodes: same outcome and
        /// same node count at every budget. Sizes between W/4 and W/2 defeat
        /// FFD often enough that most multisets search; at the small budgets
        /// the search runs out, at the large one it often completes, where
        /// the node count pins the whole traversal.
        #[test]
        fn kernel_matches_seed_search(
            w_idx in 0usize..3,
            fractions in proptest::collection::vec((250u64..=500, 0u64..1_000_000), 8..=24),
        ) {
            let capacity = [10, 100, 1_000_000_000][w_idx];
            let sizes = scaled_sizes(&fractions, capacity);
            for budget in [1, 10, 1_000, 100_000] {
                let kernel = ExactSolver::with_node_budget(budget).solve_counted(&sizes, capacity);
                let seed = seed_solve(&sizes, capacity, budget);
                proptest::prop_assert_eq!(kernel, seed, "sizes {:?} W {} budget {}", sizes, capacity, budget);
            }
        }
    }

    #[test]
    fn kernel_matches_seed_search_on_exhausted_paper_sizes() {
        // Sizes 5–60 of W = 100, as in the µ-controlled sweeps: the budget
        // runs out here, so the bracket depends on the exact node sequence.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let mut exhausted = 0;
        for _ in 0..40 {
            let n = rng.random_range(12..28);
            let sizes: Vec<u64> = (0..n).map(|_| rng.random_range(5..=60)).collect();
            for budget in [1, 10, 1_000, 20_000] {
                let kernel = ExactSolver::with_node_budget(budget).solve_counted(&sizes, 100);
                assert_eq!(
                    kernel,
                    seed_solve(&sizes, 100, budget),
                    "{sizes:?} @ {budget}"
                );
                exhausted += usize::from(!kernel.0.is_exact());
            }
        }
        assert!(exhausted > 0, "no case ran out of budget");
    }

    #[test]
    fn many_equal_items_solved_fast_via_symmetry() {
        let sizes = vec![3u64; 60];
        // 3 items of size 3 per bin of 9: 20 bins.
        assert_eq!(exact(&sizes, 9), 20);
    }
}
