//! The batch workloads (`churn`, `hetero`): input generation, the
//! correctness oracle, and the per-layer traced run of `dbp cluster`.

use crate::flags::Flags;
use crate::probes::{Counting, DecisionClock};
use crate::stats::{mean, secs, Out};
use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::indexed::GIndexedFirstFit;
use dbp_core::algorithms::FirstFit;
use dbp_core::engine::{simulate, simulate_probed};
use dbp_core::instance::{GInstance, Instance};
use dbp_core::{Demand, SelectorFactory, VSize};
use dbp_workloads::vector::HETERO_DIMS;
use std::time::Instant;

/// `gen-churn`: the `dbp_workloads::churn` fixture, written as the JSON
/// trace `dbp cluster` reads.
pub fn gen_churn(f: &Flags) -> Result<Out, String> {
    let out = f.str("out")?;
    let t = Instant::now();
    let inst = dbp_workloads::churn(f.u64("items")? as usize, f.u64("seed")?);
    let gen_s = secs(t);
    let body = serde_json::to_string(&inst).map_err(|e| e.to_string())?;
    std::fs::write(out, body).map_err(|e| format!("{out}: {e}"))?;
    let mut o = Out::new();
    o.int("items", inst.len() as u128).num("gen_s", gen_s);
    Ok(o)
}

/// Read and deserialize a trace exactly as the CLI's `load_instance` does.
fn load(path: &str) -> Result<(Instance, usize), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let inst = serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))?;
    Ok((inst, body.len()))
}

/// `∫ max_d ⌈S_d(t)/W_d⌉ dt` over the packing period: no packing of the
/// instance, however clever, pays fewer bin-ticks.
pub fn lower_bound<Sz: Demand>(inst: &GInstance<Sz>) -> u128 {
    let cap = inst.capacity();
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * inst.len());
    for (i, it) in inst.items().iter().enumerate() {
        events.push((it.arrival.raw(), true, i));
        events.push((it.departure.raw(), false, i));
    }
    events.sort_unstable();
    let mut load = vec![0u128; Sz::DIMS];
    let mut bins = 0u128;
    let mut total = 0u128;
    let mut prev = events.first().map_or(0, |e| e.0);
    for (t, arrive, i) in events {
        total += bins * (t - prev) as u128;
        prev = t;
        let size = inst.items()[i].size;
        for (d, l) in load.iter_mut().enumerate() {
            let c = size.component(d) as u128;
            *l = if arrive { *l + c } else { *l - c };
        }
        bins = (0..Sz::DIMS)
            .map(|d| load[d].div_ceil(cap.component(d) as u128))
            .max()
            .unwrap_or(0);
    }
    total
}

/// The bill of FF packing each hash-routed shard, recomputed with the
/// *indexed* First Fit: a second implementation that must place every item
/// where the scanning FF the CLI runs does.
fn oracle_bill<Sz: Demand>(inst: &GInstance<Sz>, shards: usize) -> u128 {
    let assignment = dbp_cluster::assign_vec(Router::HashByItem, inst, shards);
    (0..shards)
        .map(|s| {
            let (sub, _) = inst.restrict(|it| assignment[it.id.index()] == s);
            simulate(&sub, &mut GIndexedFirstFit::<Sz>::new()).total_cost_ticks()
        })
        .sum()
}

/// `expect`: lower bound and oracle bill of a trace file, as `dbp cluster`
/// (and the live daemon, which hash-routes the same ids) must bill it.
pub fn expect(f: &Flags) -> Result<Out, String> {
    let (inst, _) = load(f.file()?)?;
    let shards = f.u64("shards")? as usize;
    let (lb, bill) = if f.has("hetero") {
        let v = dbp_workloads::widen(&inst);
        (lower_bound(&v), oracle_bill(&v, shards))
    } else {
        (lower_bound(&inst), oracle_bill(&inst, shards))
    };
    let mut o = Out::new();
    o.int("items", inst.len() as u128)
        .int("lb_ticks", lb)
        .int("bill_ticks", bill);
    Ok(o)
}

/// Per-shard layer timings shared by the scalar and vector traced runs.
#[derive(Default)]
struct ShardLayers {
    route_s: f64,
    partition_s: f64,
    simulate_s: Vec<f64>,
    validate_s: Vec<f64>,
    traced_s: f64,
    calls: u64,
    scanned: u128,
    decide: DecisionClock,
    bill: u128,
}

/// Route, partition, and pack every shard twice — plainly (the layer
/// time) and through the counting selector + decision clock (the counts,
/// and the tracing overhead as the ratio of the two).
fn shard_layers<Sz: Demand>(
    inst: &GInstance<Sz>,
    shards: usize,
    route: impl FnOnce(&GInstance<Sz>) -> Vec<usize>,
    validate: bool,
) -> Result<ShardLayers, String> {
    let mut l = ShardLayers::default();
    let t = Instant::now();
    let assignment = route(inst);
    l.route_s = secs(t);
    let t = Instant::now();
    let parts: Vec<GInstance<Sz>> = (0..shards)
        .map(|s| inst.restrict(|it| assignment[it.id.index()] == s).0)
        .collect();
    l.partition_s = secs(t);
    for sub in &parts {
        let t = Instant::now();
        let trace = simulate(sub, &mut FirstFit::new());
        l.simulate_s.push(secs(t));
        let t = Instant::now();
        if validate {
            let errs = trace.validate(sub);
            if !errs.is_empty() {
                return Err(format!("shard trace failed validation: {}", errs[0]));
            }
        }
        l.validate_s.push(secs(t));
        l.bill += trace.total_cost_ticks();

        let mut sel = Counting::new(FirstFit::new());
        let t = Instant::now();
        let traced = simulate_probed(sub, &mut sel, &mut l.decide);
        l.traced_s += secs(t);
        if traced.total_cost_ticks() != trace.total_cost_ticks() {
            return Err("instrumented run billed differently from the plain run".into());
        }
        l.calls += sel.calls;
        l.scanned += sel.scanned;
    }
    Ok(l)
}

/// `trace-batch`: the per-layer decomposition of one `dbp cluster` run on
/// FILE, with each layer's public entry point called from here.
pub fn trace(f: &Flags) -> Result<Out, String> {
    let path = f.file()?;
    let shards = f.u64("shards")? as usize;
    let hetero = f.has("hetero");
    let mut o = Out::new();

    let t = Instant::now();
    let (inst, bytes) = load(path)?;
    o.num("io.parse_s", secs(t)).int("io.bytes", bytes as u128);

    // `dbp generate gaming` / the churn fixture, regenerated in-process.
    let t = Instant::now();
    let regenerated = if hetero {
        dbp_workloads::generate(&dbp_workloads::CloudGamingConfig {
            horizon: f.u64("horizon")?,
            arrivals: dbp_workloads::ArrivalKind::Poisson {
                rate: f
                    .str("rate")?
                    .parse()
                    .map_err(|_| "--rate expects a number")?,
            },
            seed: f.u64("seed")?,
            ..dbp_workloads::CloudGamingConfig::default()
        })
    } else {
        dbp_workloads::churn(inst.len(), f.u64("seed")?)
    };
    o.num("workloads.gen_s", secs(t));
    if regenerated.items() != inst.items() {
        return Err("regenerated workload differs from the trace file".into());
    }

    let (layers, widen_s, run_s, run_bill, parallel) = if hetero {
        let t = Instant::now();
        let v = dbp_workloads::widen(&inst);
        let widen_s = secs(t);
        // `dbp cluster --hetero` validates every shard trace and runs the
        // shards one after another.
        let route = |v: &GInstance<_>| dbp_cluster::assign_vec(Router::HashByItem, v, shards);
        let layers = shard_layers(&v, shards, route, true)?;
        let t = Instant::now();
        let run = dbp_cluster::run_cluster_vec(&v, Router::HashByItem, shards, || {
            dbp_core::algorithms::selector_for::<VSize<HETERO_DIMS>>("ff")
                .expect("ff has a vector selector")
        });
        (layers, widen_s, secs(t), run.busy_ticks, false)
    } else {
        let route = |i: &Instance| Router::HashByItem.assign(i, shards);
        let layers = shard_layers(&inst, shards, route, false)?;
        let system = GamingSystem {
            server: ServerType {
                gpu_capacity: inst.capacity().raw(),
                ..ServerType::default_gpu_vm()
            },
            granularity: Granularity::PerTick,
        };
        let config = ClusterConfig::new(shards, Router::HashByItem).map_err(|e| e.to_string())?;
        let parallel = config.workers() > 1;
        let engine = ClusterEngine::new(system, config);
        let factory = SelectorFactory::new("ff", || Box::new(FirstFit::new()));
        let t = Instant::now();
        // The CLI attaches an event log and a metrics probe to every shard.
        let (run, _probes) = engine
            .run_probed(&inst, &factory, |_| {
                (dbp_obs::EventLog::new(), dbp_obs::MetricsProbe::new())
            })
            .map_err(|e| e.to_string())?;
        (layers, 0.0, secs(t), run.report.busy_ticks, parallel)
    };
    if run_bill != layers.bill {
        return Err(format!(
            "cluster run billed {run_bill} but its shards simulate to {}",
            layers.bill
        ));
    }

    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let shard_work: Vec<f64> = layers
        .simulate_s
        .iter()
        .zip(&layers.validate_s)
        .map(|(a, b)| a + b)
        .collect();
    // The shard work on the critical path: the slowest shard when the
    // pool runs shards side by side, all of them when they run in turn.
    let critical = if parallel {
        shard_work.iter().cloned().fold(0.0, f64::max)
    } else {
        sum(&shard_work)
    };
    let plain = sum(&layers.simulate_s);
    o.num("workloads.widen_s", widen_s)
        .int("core.select_calls", layers.calls as u128)
        .num("core.scan_len_mean", mean(layers.scanned, layers.calls))
        .num(
            "core.decide_ns_mean",
            mean(layers.decide.total_ns, layers.decide.n),
        )
        .num("core.simulate_s", plain)
        .num("core.validate_s", sum(&layers.validate_s))
        .num("cluster.route_s", layers.route_s)
        .num("cluster.partition_s", layers.partition_s)
        .num("cluster.run_s", run_s)
        .num(
            "cluster.tax_s",
            run_s - layers.route_s - layers.partition_s - critical,
        )
        .num("cluster.critical_s", critical)
        .num("trace.overhead", layers.traced_s / plain - 1.0);
    Ok(o)
}
