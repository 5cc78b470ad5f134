//! Derived metrics for comparing packings in experiments.

use crate::bounds::combined_lower_bound;
use crate::demand::Demand;
use crate::instance::{GInstance, Instance};
use crate::ratio::Ratio;
use crate::trace::PackingTrace;
use serde::{Deserialize, Serialize};

/// Summary of one algorithm's run on one instance, ready for tabulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of items in the instance.
    pub n_items: usize,
    /// Total cost in bin-ticks (`A_total`, with C = 1 per tick).
    pub total_cost_ticks: u128,
    /// Number of distinct bins ever opened.
    pub bins_used: usize,
    /// Maximum simultaneously open bins (classical DBP objective).
    pub max_open_bins: u32,
    /// `max{u(R)/W, span(R)}` — a lower bound on `OPT_total`.
    pub opt_lower_bound: Ratio,
    /// `total_cost / opt_lower_bound`: an *upper* bound estimate of the
    /// achieved competitive ratio (the true ratio vs `OPT_total` is at most
    /// this).
    pub ratio_vs_lower_bound: Ratio,
    /// Mean bin utilization: `u(R) / (W · total_cost_ticks)`, in `[0, 1]`.
    pub mean_utilization: Ratio,
}

/// Summarize a trace against its instance.
pub fn summarize(instance: &Instance, trace: &PackingTrace) -> RunSummary {
    let cost = trace.total_cost_ticks();
    let lb = combined_lower_bound(instance);
    let ratio = if lb.is_zero() {
        Ratio::ONE
    } else {
        Ratio::from_int(cost) / lb
    };
    let util = if cost == 0 {
        Ratio::ZERO
    } else {
        Ratio::new(
            instance.total_demand(),
            instance.capacity().raw() as u128 * cost,
        )
    };
    RunSummary {
        algorithm: trace.algorithm.clone(),
        n_items: instance.len(),
        total_cost_ticks: cost,
        bins_used: trace.bins_used(),
        max_open_bins: trace.max_open_bins(),
        opt_lower_bound: lb,
        ratio_vs_lower_bound: ratio,
        mean_utilization: util,
    }
}

/// Per-dimension accounting of one run over a vector instance. All sums
/// are exact integers; the utilization is an exact rational.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimReport {
    /// Dimension index.
    pub dim: usize,
    /// Capacity `W_d` of this dimension.
    pub capacity: u64,
    /// Σ over items of `size_d · duration` — the demand volume.
    pub demand_ticks: u128,
    /// `W_d ·` Σ over bins of their open length — the rented volume.
    pub rented_ticks: u128,
    /// `demand_ticks / rented_ticks`, the utilization of this dimension.
    pub utilization: Ratio,
    /// `rented_ticks − demand_ticks`, idle capacity-ticks.
    pub waste_ticks: u128,
}

impl DimReport {
    /// The utilization in parts per million, floored (0 when nothing was
    /// rented) — the integer form metrics exports carry.
    pub fn utilization_ppm(&self) -> u128 {
        (self.demand_ticks * 1_000_000)
            .checked_div(self.rented_ticks)
            .unwrap_or(0)
    }
}

/// The per-dimension ledger of a run that rented `busy_ticks` bin-ticks
/// for `instance`: every bin is a whole server, so each dimension `d`
/// rents `W_d · busy_ticks` and wastes what its demand leaves idle. Bins
/// of several shards add up, so a cluster passes the sum of its shards'
/// busy ticks.
pub fn dim_ledger<Sz: Demand>(instance: &GInstance<Sz>, busy_ticks: u128) -> Vec<DimReport> {
    let cap = instance.capacity();
    instance
        .total_demand_per_dim()
        .into_iter()
        .enumerate()
        .map(|(d, demand_ticks)| {
            let rented_ticks = cap.component(d) as u128 * busy_ticks;
            DimReport {
                dim: d,
                capacity: cap.component(d),
                demand_ticks,
                rented_ticks,
                utilization: if rented_ticks == 0 {
                    Ratio::ZERO
                } else {
                    Ratio::new(demand_ticks, rented_ticks)
                },
                waste_ticks: rented_ticks - demand_ticks,
            }
        })
        .collect()
}

/// Time-weighted distribution statistics of the open-bin count, plus bin
/// lifetime aggregates — the fleet-sizing view of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Time-weighted mean number of open bins over the packing period.
    pub mean_open: f64,
    /// Time-weighted median open bins.
    pub p50_open: u32,
    /// Time-weighted 95th percentile open bins.
    pub p95_open: u32,
    /// Maximum open bins.
    pub max_open: u32,
    /// Shortest bin lifetime in ticks.
    pub min_bin_life: u64,
    /// Mean bin lifetime in ticks.
    pub mean_bin_life: f64,
    /// Longest bin lifetime in ticks.
    pub max_bin_life: u64,
}

/// Compute fleet statistics from a trace. Returns `None` for empty traces.
pub fn fleet_stats(trace: &PackingTrace) -> Option<FleetStats> {
    if trace.bins.is_empty() {
        return None;
    }
    // Time-weighted histogram of the step function.
    let mut weighted: Vec<(u32, u128)> = Vec::new();
    let mut total_time: u128 = 0;
    for w in trace.open_bins_steps.windows(2) {
        let dur = (w[1].0 - w[0].0).raw() as u128;
        if dur > 0 {
            weighted.push((w[0].1, dur));
            total_time += dur;
        }
    }
    weighted.sort_unstable_by_key(|&(n, _)| n);
    let percentile = |p: f64| -> u32 {
        let target = (total_time as f64 * p) as u128;
        let mut acc: u128 = 0;
        for &(n, d) in &weighted {
            acc += d;
            if acc > target {
                return n;
            }
        }
        weighted.last().map(|&(n, _)| n).unwrap_or(0)
    };
    let mean_open = trace.total_cost_ticks() as f64 / total_time.max(1) as f64;

    let lives: Vec<u64> = trace.bins.iter().map(|b| b.usage_len().raw()).collect();
    let sum: u128 = lives.iter().map(|&l| l as u128).sum();
    Some(FleetStats {
        mean_open,
        p50_open: percentile(0.50),
        p95_open: percentile(0.95),
        max_open: trace.max_open_bins(),
        min_bin_life: lives.iter().copied().min().unwrap_or(0),
        mean_bin_life: sum as f64 / lives.len() as f64,
        max_bin_life: lives.iter().copied().max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::engine::simulate_validated;
    use crate::instance::InstanceBuilder;

    #[test]
    fn summary_quantities() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let s = summarize(&inst, &trace);
        // One bin, perfectly packed for 10 ticks.
        assert_eq!(s.total_cost_ticks, 10);
        assert_eq!(s.bins_used, 1);
        assert_eq!(s.max_open_bins, 1);
        assert_eq!(s.opt_lower_bound, Ratio::from_int(10));
        assert_eq!(s.ratio_vs_lower_bound, Ratio::ONE);
        assert_eq!(s.mean_utilization, Ratio::ONE);
    }

    #[test]
    fn fleet_stats_on_simple_staircase() {
        // Two overlapping bins: counts 1 (10 ticks), 2 (10 ticks), 1 (10).
        let mut b = InstanceBuilder::new(10);
        b.add(0, 20, 8);
        b.add(10, 30, 8);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let f = fleet_stats(&trace).unwrap();
        assert_eq!(f.max_open, 2);
        assert!((f.mean_open - 40.0 / 30.0).abs() < 1e-12);
        assert_eq!(f.p50_open, 1);
        assert_eq!(f.p95_open, 2);
        assert_eq!(f.min_bin_life, 20);
        assert_eq!(f.max_bin_life, 20);
        assert!((f.mean_bin_life - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_stats_none_on_empty_trace() {
        let inst = crate::instance::Instance::new(crate::item::Size(5), vec![]).unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        assert_eq!(fleet_stats(&trace), None);
    }

    #[test]
    fn dim_ledger_balances_every_dimension() {
        use crate::demand::VSize;
        let mut b = crate::instance::GInstanceBuilder::new(VSize([10u64, 4]));
        b.add(0, 10, VSize([5, 4]));
        b.add(0, 5, VSize([2, 0]));
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let dims = dim_ledger(&inst, trace.total_cost_ticks());
        assert_eq!(dims.len(), 2);
        assert_eq!((dims[0].demand_ticks, dims[0].rented_ticks), (60, 100));
        assert_eq!((dims[1].demand_ticks, dims[1].rented_ticks), (40, 40));
        for d in &dims {
            assert_eq!(d.rented_ticks, d.demand_ticks + d.waste_ticks);
        }
        assert_eq!(dims[0].utilization_ppm(), 600_000);
        assert_eq!(dims[1].utilization, Ratio::ONE);
    }

    #[test]
    fn utilization_reflects_waste() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 5); // alone in its bin: 50% utilization
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let s = summarize(&inst, &trace);
        assert_eq!(s.mean_utilization, Ratio::new(1, 2));
        assert_eq!(s.ratio_vs_lower_bound, Ratio::ONE); // span LB dominates
    }
}
