//! The `paper` workload's inputs and traced run: the instances the
//! `thm5_general_ff` and `mff_k_ablation` experiments build, packed and
//! solved through `dbp_opt::opt_total` one by one.
//!
//! The two job lists below mirror the experiments' own loops (grids,
//! seeds, item counts, node budgets). `run_all` builds them in-process;
//! the traced run must build the same ones to attribute its time. To keep
//! the mirror honest the traced run also rebuilds the experiments' ratio
//! columns from its own solves (`--rows-out`), and the benchmark compares
//! them with the CSVs the untraced sweep wrote.

use crate::flags::Flags;
use crate::stats::{secs, Out};
use dbp_adversary::Theorem1;
use dbp_core::algorithms::{FirstFit, ModifiedFirstFit};
use dbp_core::engine::simulate;
use dbp_core::instance::Instance;
use dbp_core::ratio::Ratio;
use dbp_experiments::sweep::{mu_grid, RatioBracket};
use dbp_opt::{opt_total, SolveMode};
use dbp_workloads::{generate_mu_controlled, MuControlledConfig, SizeModel};
use std::time::Instant;

/// One OPT_total solve of a sweep: the instance, the MFF threshold that
/// packs it (`None`: First Fit), the solve mode, and the table cell its
/// ratio feeds (row, column; a cell keeps the worst of its jobs).
struct Job {
    inst: Instance,
    mff_k: Option<u64>,
    mode: SolveMode,
    row: usize,
    col: usize,
}

/// `thm5_general_ff`'s ratio columns; `mff_k_ablation` has one.
const THM5_COLS: [&str; 2] = ["random worst", "adversarial"];
const MFF_COLS: [&str; 1] = ["measured"];

fn mixed(mu: u64, n_items: usize, seed: u64) -> Instance {
    generate_mu_controlled(&MuControlledConfig {
        n_items,
        sizes: SizeModel::Uniform { lo: 5, hi: 60 },
        seed,
        ..MuControlledConfig::new(mu)
    })
}

fn thm5_jobs(quick: bool) -> Vec<Job> {
    let mus = if quick { vec![1, 8] } else { mu_grid(64) };
    let seeds: u64 = if quick { 4 } else { 10 };
    let mut jobs = Vec::new();
    for (row, mu) in mus.into_iter().enumerate() {
        for seed in 0..seeds {
            jobs.push(Job {
                inst: mixed(mu, if quick { 80 } else { 200 }, seed * 77 + mu),
                mff_k: None,
                mode: SolveMode::Exact {
                    node_budget: 100_000,
                },
                row,
                col: 0,
            });
        }
        jobs.push(Job {
            inst: Theorem1::new(32, mu).instance(),
            mff_k: None,
            mode: SolveMode::default(),
            row,
            col: 1,
        });
    }
    jobs
}

fn mff_jobs(quick: bool) -> Vec<Job> {
    let mus: &[u64] = if quick { &[5] } else { &[1, 5, 10, 20] };
    let ks: &[u64] = if quick {
        &[2, 8, 12, 16, 32]
    } else {
        &[2, 3, 4, 6, 8, 10, 12, 15, 17, 20, 24, 27, 32, 40]
    };
    let seeds = if quick { 2 } else { 6 };
    let mut jobs = Vec::new();
    let grid = mus.iter().flat_map(|&mu| ks.iter().map(move |&k| (mu, k)));
    for (row, (mu, k)) in grid.enumerate() {
        jobs.push(Job {
            inst: Theorem1::new(16, mu).instance(),
            mff_k: Some(k),
            mode: SolveMode::default(),
            row,
            col: 0,
        });
        for seed in 0..seeds {
            jobs.push(Job {
                inst: mixed(mu, if quick { 70 } else { 150 }, seed * 13 + mu + k),
                mff_k: Some(k),
                mode: SolveMode::Exact {
                    node_budget: 60_000,
                },
                row,
                col: 0,
            });
        }
    }
    jobs
}

/// `gen-paper`: build both experiments' instance sets `--reps` times;
/// `gen_s` is the median build time.
pub fn gen(f: &Flags) -> Result<Out, String> {
    let quick = f.has("quick");
    let reps = f.u64("reps")?.max(1);
    let mut n = 0;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            n = std::hint::black_box(thm5_jobs(quick)).len()
                + std::hint::black_box(mff_jobs(quick)).len();
            secs(t)
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let mut o = Out::new();
    o.int("instances", n as u128)
        .num("gen_s", times[times.len() / 2]);
    Ok(o)
}

#[derive(Default)]
struct Sweep {
    gen_s: f64,
    simulate_s: f64,
    opt_s: f64,
    wall_s: f64,
    calls: u64,
    exact: u64,
    segments: u128,
    distinct_sets: u128,
    /// The table's ratio cells, `cells[row][col]`.
    cells: Vec<Vec<Ratio>>,
}

fn sweep(build: fn(bool) -> Vec<Job>, quick: bool) -> Sweep {
    let mut s = Sweep::default();
    let start = Instant::now();
    let jobs = build(quick);
    s.gen_s = secs(start);
    for job in &jobs {
        let t = Instant::now();
        let trace = match job.mff_k {
            None => simulate(&job.inst, &mut FirstFit::new()),
            Some(k) => simulate(&job.inst, &mut ModifiedFirstFit::new(k)),
        };
        let cost = trace.total_cost_ticks();
        s.simulate_s += secs(t);
        let t = Instant::now();
        let opt = opt_total(&job.inst, job.mode);
        s.opt_s += secs(t);
        if s.cells.len() <= job.row {
            s.cells.resize(job.row + 1, Vec::new());
        }
        let row = &mut s.cells[job.row];
        if row.len() <= job.col {
            row.resize(job.col + 1, Ratio::ZERO);
        }
        row[job.col] = row[job.col].max(RatioBracket::new(cost, &opt).hi);
        s.calls += 1;
        s.exact += opt.is_exact() as u64;
        s.segments += opt.segments as u128;
        s.distinct_sets += opt.distinct_sets as u128;
    }
    s.wall_s = secs(start);
    s
}

/// The sweep's ratio cells as a JSON object of columns, each cell
/// formatted as the experiment's table formats it.
fn columns_json(s: &Sweep, cols: &[&str]) -> String {
    let fields: Vec<String> = cols
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let cells: Vec<String> = s
                .cells
                .iter()
                .map(|row| format!("\"{:.3}\"", row[c].to_f64()))
                .collect();
            format!("\"{name}\":[{}]", cells.join(","))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// `trace-paper`: both sweeps side by side on two threads, as `run_all
/// --jobs 2` schedules the two experiments. `--rows-out FILE` writes the
/// ratio columns the traced solves give.
pub fn trace(f: &Flags) -> Result<Out, String> {
    let quick = f.has("quick");
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| sweep(thm5_jobs, quick));
        let b = s.spawn(|| sweep(mff_jobs, quick));
        (
            a.join().expect("thm5 sweep panicked"),
            b.join().expect("mff sweep panicked"),
        )
    });
    if f.has("rows-out") {
        let path = f.str("rows-out")?;
        let body = format!(
            "{{\"thm5_general_ff\":{},\"mff_k_ablation\":{}}}\n",
            columns_json(&a, &THM5_COLS),
            columns_json(&b, &MFF_COLS)
        );
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
    }
    let calls = a.calls + b.calls;
    let mut o = Out::new();
    o.num("workloads.gen_s", a.gen_s + b.gen_s)
        .num("core.simulate_s", a.simulate_s + b.simulate_s)
        .num("opt.total_s", a.opt_s + b.opt_s)
        .int("opt.segments", a.segments + b.segments)
        .int("opt.distinct_sets", a.distinct_sets + b.distinct_sets)
        .num("opt.exact_frac", (a.exact + b.exact) as f64 / calls as f64)
        .num("thm5_general_ff.wall_s", a.wall_s)
        .num("mff_k_ablation.wall_s", b.wall_s);
    Ok(o)
}
