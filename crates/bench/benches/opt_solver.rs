//! Offline optimum substrate: exact branch-and-bound scaling, a
//! budget-exhausted search, heuristics, bounds, and the full OPT_total
//! integral on a realistic trace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbp_bench::{random_sizes, standard_workload};
use dbp_opt::{ffd, l2_bound, opt_total, ExactSolver, SolveMode};
use std::hint::black_box;

fn static_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("static_bin_packing");
    for &n in &[16usize, 32, 64] {
        let sizes = random_sizes(n, 5);
        group.bench_with_input(BenchmarkId::new("ffd", n), &sizes, |b, s| {
            b.iter(|| black_box(ffd(s, 100)))
        });
        group.bench_with_input(BenchmarkId::new("l2_bound", n), &sizes, |b, s| {
            b.iter(|| black_box(l2_bound(s, 100)))
        });
        group.bench_with_input(BenchmarkId::new("exact_bnb", n), &sizes, |b, s| {
            b.iter(|| black_box(ExactSolver::default().solve(s, 100)))
        });
    }
    group.finish();
}

/// A multiset whose branch-and-bound runs out of its node budget, so every
/// iteration expands exactly `BUDGET` nodes. Budget-exhausted solves are the
/// bulk of the nodes `OPT_total` expands in the Theorem 5 and MFF-k sweeps;
/// the `exact_bnb` cases above mostly finish early and do not isolate them.
fn exhausted_search(c: &mut Criterion) {
    const BUDGET: u64 = 100_000;
    let solver = ExactSolver::with_node_budget(BUDGET);
    // Sizes in [W/4, W/2] of W = 100 often defeat FFD; take the first seed
    // whose search exhausts.
    let sizes = (0..1_000)
        .map(|seed| {
            random_sizes(40, seed)
                .into_iter()
                .map(|s| 25 + s % 26)
                .collect::<Vec<u64>>()
        })
        .find(|s| !solver.solve(s, 100).is_exact())
        .expect("some seed exhausts the node budget");
    let mut group = c.benchmark_group("exhausted_bnb");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("budget", BUDGET), &sizes, |b, s| {
        b.iter(|| black_box(solver.solve(s, 100)))
    });
    group.finish();
}

fn opt_total_integral(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_total");
    group.sample_size(10);
    for &n in &[200usize, 500] {
        let inst = standard_workload(n, 11);
        group.bench_with_input(BenchmarkId::new("exact", n), &inst, |b, inst| {
            b.iter(|| {
                black_box(opt_total(
                    inst,
                    SolveMode::Exact {
                        node_budget: 100_000,
                    },
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("bounds", n), &inst, |b, inst| {
            b.iter(|| black_box(opt_total(inst, SolveMode::Bounds)))
        });
    }
    group.finish();
}

fn fixed_assignment_optimum(c: &mut Criterion) {
    use dbp_opt::fixed_optimum;
    let mut group = c.benchmark_group("fixed_optimum");
    group.sample_size(10);
    for &n in &[8usize, 10] {
        let inst = dbp_bench::standard_workload(n, 33);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(fixed_optimum(inst, 2_000_000).cost_ticks))
        });
    }
    group.finish();
}

fn opt_total_parallel_vs_sequential(c: &mut Criterion) {
    use dbp_opt::opt_total_parallel;
    let inst = standard_workload(500, 11);
    let mut group = c.benchmark_group("opt_total_parallel");
    group.sample_size(10);
    group.bench_function("parallel_500", |b| {
        b.iter(|| {
            black_box(opt_total_parallel(
                &inst,
                SolveMode::Exact {
                    node_budget: 100_000,
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    static_solvers,
    exhausted_search,
    opt_total_integral,
    fixed_assignment_optimum,
    opt_total_parallel_vs_sequential
);
criterion_main!(benches);
