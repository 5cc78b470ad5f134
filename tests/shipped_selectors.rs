//! The shipped FF/BF/MFF names resolve to the indexed selectors. This suite
//! keeps the scanning selectors as an independent oracle: for every
//! cluster path — the plain dispatch and self-healing shard kills
//! (`--shard-faults`) at D=1 and D=3, per-shard fault plans (`--faults`) — a run
//! with the shipped name must produce byte-identical probe JSONL and
//! trace/report JSON to the same run with the scanning selector built by
//! type.

use dbp::prelude::*;
use dbp_cloudsim::{FaultConfig, FaultPlan, GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router, ShardFaultPlan};
use dbp_core::algorithms::{selector_for, BestFit, FirstFit, ModifiedFirstFit};
use dbp_core::demand::{Demand, VSize};
use dbp_core::instance::GInstance;
use dbp_core::packer::{BinSelector, GSelectorFactory, SelectorFactory};
use dbp_obs::export::{events_to_jsonl, events_to_jsonl_dims};
use dbp_obs::{EventLog, GEventLog};
use dbp_workloads::{generate, widen, CloudGamingConfig};

/// `(shipped name, scanning oracle)` for one demand type.
fn pairs<Sz: Demand>() -> Vec<(&'static str, GSelectorFactory<Sz>)> {
    fn boxed<Sz: Demand, S: BinSelector<Sz> + 'static>(
        s: impl Fn() -> S + Send + Sync + 'static,
    ) -> impl Fn() -> Box<dyn BinSelector<Sz>> + Send + Sync + 'static {
        move || Box::new(s())
    }
    vec![
        ("FF", GSelectorFactory::new("FF", boxed(FirstFit::new))),
        ("BF", GSelectorFactory::new("BF", boxed(BestFit::new))),
        (
            "MFF(8)",
            GSelectorFactory::new("MFF(8)", boxed(|| ModifiedFirstFit::new(8))),
        ),
    ]
}

/// The factory the CLI and the daemon build for a shipped name.
fn shipped<Sz: Demand>(name: &'static str) -> GSelectorFactory<Sz> {
    let built = selector_for::<Sz>(name).expect("shipped name");
    assert!(
        !built.needs_views(),
        "{name} must resolve to an indexed selector"
    );
    GSelectorFactory::new(name, move || selector_for::<Sz>(name).unwrap())
}

fn workload(seed: u64) -> Instance {
    generate(&CloudGamingConfig {
        horizon: 2400,
        seed,
        ..CloudGamingConfig::default()
    })
}

fn system(capacity: u64) -> GamingSystem {
    GamingSystem {
        server: ServerType {
            gpu_capacity: capacity,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    }
}

/// Per-shard probe JSONL and trace JSON of one plain cluster run.
fn plain_run<Sz: Demand>(
    inst: &GInstance<Sz>,
    router: Router,
    shards: usize,
    factory: &GSelectorFactory<Sz>,
) -> (Vec<String>, Vec<String>) {
    let engine = ClusterEngine::new(
        system(inst.capacity().component(0)),
        ClusterConfig::new(shards, router).unwrap(),
    );
    let (run, logs) = engine
        .run_probed(inst, factory, |_| GEventLog::<Sz>::new())
        .unwrap();
    let traces = run
        .shards
        .iter()
        .map(|s| serde_json::to_string(&s.trace).unwrap())
        .collect();
    let jsonl = logs
        .iter()
        .map(|log| events_to_jsonl_dims(log.events()))
        .collect();
    (traces, jsonl)
}

fn assert_plain_paths_agree<Sz: Demand>(inst: &GInstance<Sz>, label: &str) {
    for (name, oracle) in pairs::<Sz>() {
        let shipped = shipped::<Sz>(name);
        for router in Router::ALL {
            for shards in 1..=3 {
                let want = plain_run(inst, router, shards, &oracle);
                let got = plain_run(inst, router, shards, &shipped);
                assert_eq!(
                    want.0,
                    got.0,
                    "{label} {name}/{}/{shards}: trace JSON diverged",
                    router.name()
                );
                assert_eq!(
                    want.1,
                    got.1,
                    "{label} {name}/{}/{shards}: probe JSONL diverged",
                    router.name()
                );
            }
        }
    }
}

#[test]
fn shipped_names_match_the_scanning_selectors_on_the_plain_cluster_at_d1() {
    for seed in [3, 11] {
        assert_plain_paths_agree(&workload(seed), &format!("D=1 seed {seed}"));
    }
}

#[test]
fn shipped_names_match_the_scanning_selectors_on_the_plain_cluster_at_d3() {
    for seed in [3, 11] {
        let inst: GInstance<VSize<3>> = widen(&workload(seed));
        assert_plain_paths_agree(&inst, &format!("D=3 seed {seed}"));
    }
}

#[test]
fn shipped_names_match_the_scanning_selectors_under_fault_plans() {
    let inst = workload(5);
    let horizon = inst.last_departure().unwrap().raw();
    for (name, oracle) in pairs::<Size>() {
        let shipped = shipped::<Size>(name);
        for shards in 1..=3usize {
            // Delayed boots open bins out of id order; failed boots burn ids.
            let plans: Vec<FaultPlan> = (0..shards as u64)
                .map(|s| {
                    FaultPlan::generate(
                        40 + s,
                        horizon,
                        8,
                        &FaultConfig {
                            crash_rate_per_hour: 20.0,
                            boot_fail_prob: 0.2,
                            boot_delay_max: 30,
                            reject_prob: 0.1,
                        },
                    )
                })
                .collect();
            for router in Router::ALL {
                let engine = ClusterEngine::new(
                    system(inst.capacity().raw()),
                    ClusterConfig::new(shards, router).unwrap(),
                );
                let run = |f: &SelectorFactory| {
                    let (run, logs) = engine
                        .run_resilient_probed(&inst, f, &plans, |_| EventLog::new())
                        .unwrap();
                    let jsonl: Vec<String> =
                        logs.iter().map(|l| events_to_jsonl(l.events())).collect();
                    (serde_json::to_string(&run.shards).unwrap(), jsonl)
                };
                let want = run(&oracle);
                let got = run(&shipped);
                let at = format!("{name}/{}/{shards}", router.name());
                let log = want.1.concat();
                for kind in ["BinCrashed", "ProvisionFailed", "DispatchRejected"] {
                    assert!(log.contains(kind), "{at}: the plan never fired {kind}");
                }
                assert_eq!(want.0, got.0, "{at}: shard reports diverged");
                assert_eq!(want.1, got.1, "{at}: fault JSONL diverged");
            }
        }
    }
}

#[test]
fn shipped_names_match_the_scanning_selectors_under_shard_kills() {
    let inst = workload(9);
    assert_shard_kill_paths_agree(&inst, "D=1");
    assert_shard_kill_paths_agree(&widen(&inst), "D=3");
}

fn assert_shard_kill_paths_agree<Sz: Demand>(inst: &GInstance<Sz>, label: &str) {
    for (name, oracle) in pairs::<Sz>() {
        let shipped = shipped::<Sz>(name);
        for shards in 2..=3usize {
            let plan = ShardFaultPlan::generate(7, shards, inst.len() as u64 * 2, 3);
            for router in Router::ALL {
                let engine = ClusterEngine::new(
                    system(inst.capacity().component(0)),
                    ClusterConfig::new(shards, router).unwrap(),
                );
                let run = |f: &GSelectorFactory<Sz>| {
                    let mut log = GEventLog::<Sz>::new();
                    let run = engine
                        .run_self_healing_probed(inst, f, &plan, &mut log)
                        .unwrap();
                    (
                        serde_json::to_string(&run.report).unwrap(),
                        serde_json::to_string(&run.shards).unwrap(),
                        events_to_jsonl_dims(log.events()),
                    )
                };
                let want = run(&oracle);
                let got = run(&shipped);
                let at = format!("{label} {name}/{}/{shards}", router.name());
                assert!(
                    want.2.contains("ShardRestarted"),
                    "{at}: no shard restarted"
                );
                assert_eq!(want.0, got.0, "{at}: healed report diverged");
                assert_eq!(want.1, got.1, "{at}: shard health diverged");
                assert_eq!(want.2, got.2, "{at}: healed JSONL diverged");
            }
        }
    }
}
