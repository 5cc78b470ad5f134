//! `OPT(R, t)` and `OPT_total(R) = ∫ OPT(R, t) dt` — the paper's baseline.
//!
//! `OPT(R, t)` is the minimum number of bins into which the items active at
//! time `t` can be repacked (§3.2); the integral is piecewise constant
//! between event ticks, so it is computed exactly by solving one static bin
//! packing problem per event segment. Consecutive segments differ by a few
//! items, so solve results are memoized on the active size multiset.

use crate::exact::{ExactSolver, SolveOutcome};
use crate::heuristics::ffd;
use crate::lower_bounds::l2_bound;
use dbp_core::events::{schedule, EventKind};
use dbp_core::instance::Instance;
use dbp_core::ratio::Ratio;
use dbp_core::time::Tick;
use std::collections::HashMap;

/// How hard to work per event segment.
#[derive(Debug, Clone, Copy)]
pub enum SolveMode {
    /// Branch-and-bound with the given node budget per segment; falls back
    /// to an `[L2, FFD]` bracket when the budget runs out.
    Exact {
        /// Node budget per distinct active set.
        node_budget: u64,
    },
    /// `[L2, FFD]` brackets only — fast enough for very large traces.
    Bounds,
}

impl Default for SolveMode {
    fn default() -> Self {
        SolveMode::Exact {
            node_budget: 200_000,
        }
    }
}

/// The integral of `OPT(R, t)` over the packing period, possibly as a
/// bracket when some segment could not be solved exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptTotal {
    /// Lower bound on `OPT_total` in bin-ticks.
    pub lb_ticks: u128,
    /// Upper bound on `OPT_total` in bin-ticks.
    pub ub_ticks: u128,
    /// Number of constant segments integrated.
    pub segments: usize,
    /// Number of distinct active multisets solved.
    pub distinct_sets: usize,
}

impl OptTotal {
    /// Whether the integral is exact (`lb == ub`).
    pub fn is_exact(&self) -> bool {
        self.lb_ticks == self.ub_ticks
    }

    /// The exact value.
    ///
    /// # Panics
    /// Panics if only a bracket is known.
    pub fn exact_ticks(&self) -> u128 {
        assert!(
            self.is_exact(),
            "OPT_total is a bracket [{}, {}], not exact",
            self.lb_ticks,
            self.ub_ticks
        );
        self.lb_ticks
    }

    /// Exact ratio `cost / OPT_total`, available only when the integral is
    /// exact.
    pub fn ratio_of(&self, cost_ticks: u128) -> Ratio {
        Ratio::new(cost_ticks, self.exact_ticks())
    }
}

/// `OPT(R, t)`: bins needed for the items active at `t`, as an `(lb, ub)`
/// pair (equal when solved exactly).
pub fn opt_at(instance: &Instance, t: Tick, mode: SolveMode) -> (usize, usize) {
    let mut sizes: Vec<u64> = instance
        .items()
        .iter()
        .filter(|r| r.is_active_at(t))
        .map(|r| r.size.raw())
        .collect();
    sizes.sort_unstable();
    let key: Vec<(u64, u32)> = sizes
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32))
        .collect();
    solve_multiset(&key, instance.capacity().raw(), mode)
}

/// `OPT` of one active multiset, given as ascending `(size, count)` pairs.
fn solve_multiset(key: &[(u64, u32)], capacity: u64, mode: SolveMode) -> (usize, usize) {
    // Single distinct size: ⌈count / ⌊W/s⌋⌉ bins, exactly — this keeps the
    // unit-size adversarial instances (Theorem 2, ~10⁵ items) integrable in
    // linear time.
    if let [(s, c)] = *key {
        let bins = (c as u64).div_ceil(capacity / s) as usize;
        return (bins, bins);
    }
    let sizes: Vec<u64> = key
        .iter()
        .flat_map(|&(s, c)| std::iter::repeat_n(s, c as usize))
        .collect();
    match mode {
        SolveMode::Bounds => (l2_bound(&sizes, capacity), ffd(&sizes, capacity)),
        SolveMode::Exact { node_budget } => {
            match ExactSolver::with_node_budget(node_budget).solve(&sizes, capacity) {
                SolveOutcome::Exact(n) => (n, n),
                SolveOutcome::Bounded { lb, ub } => (lb, ub),
            }
        }
    }
}

/// Solved multisets, keyed like [`solve_multiset`]'s input.
type Memo = HashMap<Vec<(u64, u32)>, (usize, usize)>;

fn solve_memoized(
    memo: &mut Memo,
    key: &[(u64, u32)],
    capacity: u64,
    mode: SolveMode,
) -> (usize, usize) {
    if let Some(&bins) = memo.get(key) {
        return bins;
    }
    let bins = solve_multiset(key, capacity, mode);
    memo.insert(key.to_vec(), bins);
    bins
}

/// Walk the event schedule once. After the events at each distinct tick are
/// applied, `f(tick, next_tick, active)` sees the active multiset as
/// ascending `(size, count)` pairs; it is constant on `[tick, next_tick)`,
/// and `next_tick` is `None` after the last event.
fn for_each_segment(instance: &Instance, mut f: impl FnMut(Tick, Option<Tick>, &[(u64, u32)])) {
    let events = schedule(instance);
    let mut active: Vec<(u64, u32)> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let tick = events[i].at;
        while i < events.len() && events[i].at == tick {
            let ev = events[i];
            i += 1;
            let size = instance.item(ev.item).size.raw();
            let slot = active.binary_search_by_key(&size, |&(s, _)| s);
            match (ev.kind, slot) {
                (EventKind::Arrival, Ok(j)) => active[j].1 += 1,
                (EventKind::Arrival, Err(j)) => active.insert(j, (size, 1)),
                (EventKind::Departure, Ok(j)) => {
                    active[j].1 -= 1;
                    if active[j].1 == 0 {
                        active.remove(j);
                    }
                }
                (EventKind::Departure, Err(_)) => panic!("departure without arrival"),
            }
        }
        f(tick, events.get(i).map(|e| e.at), &active);
    }
    debug_assert!(active.is_empty(), "items alive past the last departure");
}

/// Compute `OPT_total(R)` by exact piecewise-constant integration.
pub fn opt_total(instance: &Instance, mode: SolveMode) -> OptTotal {
    let capacity = instance.capacity().raw();
    let mut cache = Memo::new();
    let mut lb_ticks: u128 = 0;
    let mut ub_ticks: u128 = 0;
    let mut segments = 0usize;
    for_each_segment(instance, |tick, next, active| {
        let Some(next) = next else { return };
        if active.is_empty() {
            return;
        }
        let dur = (next - tick).raw() as u128;
        let (lb, ub) = solve_memoized(&mut cache, active, capacity, mode);
        lb_ticks += lb as u128 * dur;
        ub_ticks += ub as u128 * dur;
        segments += 1;
    });
    OptTotal {
        lb_ticks,
        ub_ticks,
        segments,
        distinct_sets: cache.len(),
    }
}

/// The step function of `OPT(R, t)` over the packing period: entries
/// `(tick, lb, ub)` mean the optimum lies in `[lb, ub]` from `tick` until
/// the next entry. Useful for plotting the paper's `A(R,t)` vs `OPT(R,t)`
/// comparison directly.
pub fn opt_timeline(instance: &Instance, mode: SolveMode) -> Vec<(Tick, usize, usize)> {
    let capacity = instance.capacity().raw();
    let mut cache = Memo::new();
    let mut out = Vec::new();
    for_each_segment(instance, |tick, _, active| {
        let (lb, ub) = solve_memoized(&mut cache, active, capacity, mode);
        out.push((tick, lb, ub));
    });
    out
}

/// Parallel `OPT_total`: one sequential sweep collects the distinct active
/// multisets and their total durations, then the (independent, often
/// expensive) static solves go through rayon's `par_iter`. Bit-identical to
/// [`opt_total`]. The offline `rayon` shim this workspace builds against runs
/// `par_iter` sequentially, so here it is no faster than [`opt_total`].
pub fn opt_total_parallel(instance: &Instance, mode: SolveMode) -> OptTotal {
    use rayon::prelude::*;

    let capacity = instance.capacity().raw();
    // Pass 1: total duration per distinct multiset + segment count.
    let mut durations: HashMap<Vec<(u64, u32)>, u128> = HashMap::new();
    let mut segments = 0usize;
    for_each_segment(instance, |tick, next, active| {
        let Some(next) = next else { return };
        if active.is_empty() {
            return;
        }
        *durations.entry(active.to_vec()).or_insert(0) += (next - tick).raw() as u128;
        segments += 1;
    });

    // Pass 2: independent solves.
    let entries: Vec<(Vec<(u64, u32)>, u128)> = durations.into_iter().collect();
    let distinct_sets = entries.len();
    let (lb_ticks, ub_ticks) = entries
        .par_iter()
        .map(|(key, dur)| {
            let (lb, ub) = solve_multiset(key, capacity, mode);
            (lb as u128 * dur, ub as u128 * dur)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

    OptTotal {
        lb_ticks,
        ub_ticks,
        segments,
        distinct_sets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::bounds::combined_lower_bound;
    use dbp_core::instance::InstanceBuilder;
    use dbp_core::ratio::Ratio;

    fn demo() -> Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6);
        b.add(0, 4, 6); // forces 2 bins while alive
        b.add(2, 8, 4);
        b.build().unwrap()
    }

    #[test]
    fn opt_total_exact_integration() {
        let inst = demo();
        let opt = opt_total(&inst, SolveMode::default());
        assert!(opt.is_exact());
        // Active sets: [0,2): {6,6} -> 2; [2,4): {6,6,4} -> 2; [4,8): {6,4}
        // -> 1; [8,10): {6} -> 1. Integral = 2*2 + 2*2 + 1*4 + 1*2 = 14.
        assert_eq!(opt.exact_ticks(), 14);
    }

    #[test]
    fn opt_at_matches_segment_values() {
        let inst = demo();
        let mode = SolveMode::default();
        assert_eq!(opt_at(&inst, Tick(0), mode), (2, 2));
        assert_eq!(opt_at(&inst, Tick(3), mode), (2, 2));
        assert_eq!(opt_at(&inst, Tick(5), mode), (1, 1));
        assert_eq!(opt_at(&inst, Tick(9), mode), (1, 1));
        assert_eq!(opt_at(&inst, Tick(10), mode), (0, 0));
    }

    #[test]
    fn opt_total_dominates_combined_lower_bound() {
        let inst = demo();
        let opt = opt_total(&inst, SolveMode::default());
        let lb = combined_lower_bound(&inst);
        assert!(Ratio::from_int(opt.exact_ticks()) >= lb);
    }

    #[test]
    fn bounds_mode_brackets_exact() {
        let inst = demo();
        let exact = opt_total(&inst, SolveMode::default());
        let bounds = opt_total(&inst, SolveMode::Bounds);
        assert!(bounds.lb_ticks <= exact.lb_ticks);
        assert!(bounds.ub_ticks >= exact.ub_ticks);
    }

    #[test]
    fn empty_instance_is_zero() {
        let inst = Instance::new(dbp_core::item::Size(5), vec![]).unwrap();
        let opt = opt_total(&inst, SolveMode::default());
        assert_eq!(opt.exact_ticks(), 0);
        assert_eq!(opt.segments, 0);
    }

    #[test]
    fn gap_segments_cost_nothing() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 3);
        b.add(20, 30, 3); // gap [5, 20) has no active items
        let inst = b.build().unwrap();
        let opt = opt_total(&inst, SolveMode::default());
        assert_eq!(opt.exact_ticks(), 15);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use dbp_core::instance::InstanceBuilder;

    #[test]
    fn timeline_integrates_to_opt_total() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6);
        b.add(0, 4, 6);
        b.add(2, 8, 4);
        let inst = b.build().unwrap();
        let timeline = opt_timeline(&inst, SolveMode::default());
        // Integrate the step function manually.
        let mut total: u128 = 0;
        for w in timeline.windows(2) {
            total += (w[1].0 - w[0].0).raw() as u128 * w[0].1 as u128;
        }
        assert_eq!(total, opt_total(&inst, SolveMode::default()).exact_ticks());
        // Final tick has zero active items.
        let last = timeline.last().unwrap();
        assert_eq!((last.1, last.2), (0, 0));
    }

    #[test]
    fn timeline_matches_opt_at_pointwise() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 9, 7);
        b.add(3, 12, 7);
        b.add(5, 15, 7);
        let inst = b.build().unwrap();
        for (t, lb, ub) in opt_timeline(&inst, SolveMode::default()) {
            assert_eq!((lb, ub), opt_at(&inst, t, SolveMode::default()));
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use dbp_core::instance::InstanceBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn parallel_matches_sequential_exactly() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = InstanceBuilder::new(50);
            let mut t = 0;
            for _ in 0..80 {
                t += rng.random_range(0..6);
                b.add(t, t + rng.random_range(5..40), rng.random_range(1..=30));
            }
            let inst = b.build().unwrap();
            for mode in [SolveMode::default(), SolveMode::Bounds] {
                let seq = opt_total(&inst, mode);
                let par = opt_total_parallel(&inst, mode);
                assert_eq!(seq.lb_ticks, par.lb_ticks, "seed {seed}");
                assert_eq!(seq.ub_ticks, par.ub_ticks, "seed {seed}");
                assert_eq!(seq.segments, par.segments);
                assert_eq!(seq.distinct_sets, par.distinct_sets);
            }
        }
    }

    #[test]
    fn parallel_handles_empty_instance() {
        let inst = Instance::new(dbp_core::item::Size(5), vec![]).unwrap();
        let par = opt_total_parallel(&inst, SolveMode::default());
        assert_eq!(par.lb_ticks, 0);
        assert_eq!(par.distinct_sets, 0);
    }
}
