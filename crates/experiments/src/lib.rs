//! # dbp-experiments — one experiment per table/figure of the paper
//!
//! Each module reproduces one artifact of the SPAA'14 MinTotal DBP paper
//! (see DESIGN.md's per-experiment index) and is exposed both as a library
//! function `run(quick) -> (Table, rows)` — used by tests and the bench
//! harness — and through the `run_all` sweep (`cargo run --release -p
//! dbp-experiments --bin run_all -- --only <id>` for one artifact,
//! `--quick` for reduced grids). CSV artifacts land in `results/`.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1_span`] | Figure 1 (span definition) |
//! | [`fig2_anyfit_lb`] | Figure 2 / Theorem 1 (Any Fit ≥ µ) |
//! | [`fig3_bestfit_unbounded`] | Figure 3 / Theorem 2 (BF unbounded) |
//! | [`thm3_large_items`] | Theorem 3 (large items ⇒ k·OPT) |
//! | [`thm4_small_items`] | Theorem 4 (small-item FF bound) |
//! | [`thm5_general_ff`] | Theorem 5 (2µ+13) |
//! | [`tab2_case_classification`] | Table 2 + Lemmas 1–5 census |
//! | [`mff_ratio`] | §4.4 MFF bounds |
//! | [`mff_k_ablation`] | §4.4 k = µ+7 optimality |
//! | [`cloud_gaming_costs`] | §1 motivation (rental costs) |
//! | [`mu_sensitivity`] | µ-dependence across algorithms |
//! | [`billing_granularity`] | §1 EC2 hourly billing |
//! | [`constrained_dbp`] | §5 future work (regions) |
//! | [`footnote1_adaptive`] | footnote 1 (adaptive adversary vs any online algorithm) |
//! | [`flash_crowd`] | §1 workload fluctuation (burst scenario) |
//! | [`mff_decomposition`] | §4.4 proof structure (per-class certificates) |
//! | [`unit_fractions`] | related work \[8\] (unit-fraction items, MaxBins vs MinTotal) |
//! | [`value_of_clairvoyance`] | related work \[14\]/\[21\] (known departure times) |
//! | [`migration_gap`] | strength of the `OPT_total` repacking baseline |
//! | [`server_churn`] | provisioning fees vs bin churn |
//! | [`sharding_overhead`] | §5 scale-out: K-shard cluster cost vs one dispatcher |
//! | [`shard_resilience`] | self-healing: shard kills, journal resurrection, degraded routing |
//! | [`fault_tolerance`] | resilience: crashes & flaky provisioning vs the fault-free bill |
//! | [`ff_gap_search`] | the open `[µ, 2µ+13]` gap, probed by adversarial search |
//! | [`hff_class_ablation`] | Harmonic-class generalization of MFF's split |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod billing_granularity;
pub mod cloud_gaming_costs;
pub mod constrained_dbp;
pub mod fault_tolerance;
pub mod ff_gap_search;
pub mod fig1_span;
pub mod fig2_anyfit_lb;
pub mod fig3_bestfit_unbounded;
pub mod flash_crowd;
pub mod footnote1_adaptive;
pub mod harness;
pub mod hff_class_ablation;
pub mod mff_decomposition;
pub mod mff_k_ablation;
pub mod mff_ratio;
pub mod migration_gap;
pub mod mu_sensitivity;
pub mod server_churn;
pub mod shard_resilience;
pub mod sharding_overhead;
pub mod sweep;
pub mod tab2_case_classification;
pub mod thm3_large_items;
pub mod thm4_small_items;
pub mod thm5_general_ff;
pub mod unit_fractions;
pub mod value_of_clairvoyance;

/// Whether `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}
