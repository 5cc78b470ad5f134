//! End-to-end tests of `dbp cluster`: sharded dispatch through a real
//! process, per-shard journals replayed by `dbp recover` to the recorded
//! aggregate cost, labelled metrics, and 1-shard equivalence to `dbp run`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dbp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("failed to spawn dbp")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbp-cluster-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

fn stdout(o: &Output) -> String {
    assert!(
        o.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn field(out: &str, key: &str) -> String {
    out.lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("no '{key}' line in:\n{out}"))
        .split(':')
        .nth(1)
        .unwrap()
        .trim()
        .to_string()
}

fn generate(dir: &std::path::Path, stem: &str) -> String {
    let tr = path(dir, &format!("{stem}.json"));
    stdout(&dbp(&[
        "generate", "scenario", "--name", "steady", "--seed", "5", "--out", &tr,
    ]));
    tr
}

#[test]
fn shard_journals_replay_to_the_recorded_aggregate_cost() {
    let dir = tmpdir();
    let tr = generate(&dir, "replay");
    let wal = path(&dir, "replay.wal");
    let man = path(&dir, "replay.manifest.json");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "3",
        "--router",
        "hash",
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--run-manifest",
        &man,
    ]));
    let busy: u128 = field(&out, "busy ticks").parse().unwrap();

    // Every shard journal is a clean, complete run; their replayed costs
    // sum exactly to the aggregate the cluster reported and recorded.
    let mut replayed_sum: u128 = 0;
    for s in 0..3 {
        let rec = stdout(&dbp(&["recover", &format!("{wal}.shard{s}")]));
        assert!(rec.contains("journal        : clean"), "{rec}");
        let cost_line = field(&rec, "replayed cost");
        assert!(cost_line.ends_with("(complete run)"), "{cost_line}");
        replayed_sum += cost_line
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<u128>()
            .unwrap();
    }
    assert_eq!(replayed_sum, busy);

    let manifest = std::fs::read_to_string(&man).unwrap();
    assert!(
        manifest.contains(&format!("\"total_cost_ticks\": {busy}")),
        "manifest must record the exact aggregate cost:\n{manifest}"
    );
}

#[test]
fn one_shard_cluster_matches_plain_run_output() {
    let dir = tmpdir();
    let tr = generate(&dir, "one");
    let plain = stdout(&dbp(&[
        "run",
        &tr,
        "--algo",
        "bf",
        "--run-manifest",
        &path(&dir, "plain.manifest.json"),
    ]));
    for router in ["hash", "affinity", "least-loaded"] {
        let clustered = stdout(&dbp(&[
            "cluster", &tr, "--algo", "bf", "--shards", "1", "--router", router,
        ]));
        assert_eq!(
            field(&clustered, "busy ticks"),
            field(&plain, "total cost").replace(" bin-ticks", ""),
            "{router}"
        );
        assert_eq!(
            field(&clustered, "instance digest"),
            field(&plain, "instance digest"),
            "{router}"
        );
        assert_eq!(field(&clustered, "sessions"), field(&plain, "items"));
    }
}

#[test]
fn cluster_metrics_carry_per_shard_labels_and_totals() {
    let dir = tmpdir();
    let tr = generate(&dir, "metrics");
    let prom = path(&dir, "metrics.prom");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "4",
        "--router",
        "least-loaded",
        "--metrics",
        &prom,
    ]));
    let sessions: u64 = field(&out, "sessions").parse().unwrap();
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("dbp_cluster_shards 4"), "{text}");
    assert!(
        text.contains(&format!("dbp_cluster_sessions_served_total {sessions}")),
        "{text}"
    );
    for s in 0..4 {
        assert!(
            text.contains(&format!("{{shard=\"{s}\"}}")),
            "no shard {s} series in:\n{text}"
        );
    }
}

#[test]
fn faulted_cluster_reports_a_conserved_ledger() {
    let dir = tmpdir();
    let tr = generate(&dir, "faults");
    let out = stdout(&dbp(&[
        "cluster", &tr, "--algo", "ff", "--shards", "3", "--router", "affinity", "--faults", "42",
    ]));
    assert_eq!(field(&out, "ledger"), "conserved");
    let total: u64 = field(&out, "sessions").parse().unwrap();
    let served: u64 = field(&out, "served").parse().unwrap();
    let dropped: u64 = field(&out, "dropped").parse().unwrap();
    let lost: u64 = field(&out, "lost to crash").parse().unwrap();
    assert_eq!(served + dropped + lost, total);
}

#[test]
fn batch_policies_do_not_change_the_bill() {
    let dir = tmpdir();
    let tr = generate(&dir, "batch");
    let mut bills = Vec::new();
    for batch in ["event", "7", "whole"] {
        let out = stdout(&dbp(&[
            "cluster", &tr, "--algo", "mff", "--shards", "2", "--router", "hash", "--batch", batch,
        ]));
        bills.push((field(&out, "busy ticks"), field(&out, "bill")));
    }
    assert_eq!(bills[0], bills[1]);
    assert_eq!(bills[1], bills[2]);
}

#[test]
fn shard_faulted_cluster_heals_and_conserves_the_extended_ledger() {
    let dir = tmpdir();
    let tr = generate(&dir, "shardfaults");
    let prom = path(&dir, "shardfaults.prom");
    let man = path(&dir, "shardfaults.manifest.json");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "4",
        "--router",
        "hash",
        "--shard-faults",
        "7",
        "--metrics",
        &prom,
        "--run-manifest",
        &man,
    ]));
    assert_eq!(field(&out, "ledger"), "conserved");
    let total: u64 = field(&out, "sessions").parse().unwrap();
    let served: u64 = field(&out, "served").parse().unwrap();
    let dropped: u64 = field(&out, "dropped").parse().unwrap();
    let lost: u64 = field(&out, "lost to kills").parse().unwrap();
    let rerouted: u64 = field(&out, "rerouted").parse().unwrap();
    assert_eq!(served + dropped + lost + rerouted, total);
    // A seeded 4-shard plan lands kills; the footer mirrors `dbp trace`.
    assert!(out.contains("-- shards:"), "{out}");

    let text = std::fs::read_to_string(&prom).unwrap();
    for s in 0..4 {
        assert!(
            text.contains(&format!("dbp_cluster_shard_up{{shard=\"{s}\"}}")),
            "no shard {s} health gauge in:\n{text}"
        );
    }
    assert!(text.contains("dbp_cluster_shard_restarts_total"), "{text}");

    let manifest = std::fs::read_to_string(&man).unwrap();
    assert!(manifest.contains("\"shard_restarts\""), "{manifest}");
    assert!(
        manifest.contains("\"ledger_conserved\": true"),
        "{manifest}"
    );
}

#[test]
fn zero_kill_shard_fault_plan_matches_the_plain_cluster_bill() {
    let dir = tmpdir();
    let tr = generate(&dir, "zerokill");
    let plan = path(&dir, "none.json");
    std::fs::write(&plan, r#"{"seed":0,"kills":[]}"#).unwrap();
    let plain = stdout(&dbp(&[
        "cluster", &tr, "--algo", "ff", "--shards", "3", "--router", "hash",
    ]));
    let healed = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "3",
        "--router",
        "hash",
        "--shard-faults",
        &plan,
    ]));
    assert_eq!(field(&healed, "busy ticks"), field(&plain, "busy ticks"));
    assert_eq!(field(&healed, "bill"), field(&plain, "bill"));
    assert_eq!(field(&healed, "ledger"), "conserved");
    assert!(!healed.contains("-- shards:"), "{healed}");
}

#[test]
fn zero_shards_is_a_clear_error() {
    let dir = tmpdir();
    let tr = generate(&dir, "zeroshards");
    let out = dbp(&["cluster", &tr, "--algo", "ff", "--shards", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shards must be at least 1"), "{err}");
}

#[test]
fn shard_faults_and_faults_are_mutually_exclusive() {
    let dir = tmpdir();
    let tr = generate(&dir, "exclusive");
    let out = dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "2",
        "--faults",
        "1",
        "--shard-faults",
        "2",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}

/// The demand-ticks of dimension `d` on a `dim d ...` report line.
fn dim_demand_ticks(out: &str, prefix: &str) -> u128 {
    let line = out
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no '{prefix}' line in:\n{out}"));
    let value = line.split_once(':').unwrap().1;
    let ticks = value
        .split(',')
        .find(|part| part.contains("demand-ticks"))
        .unwrap_or_else(|| panic!("no demand-ticks on '{line}'"));
    ticks.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn hetero_cluster_journals_replay_the_per_dimension_served_demand() {
    let dir = tmpdir();
    let tr = path(&dir, "hetero.json");
    stdout(&dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "7",
        "--out",
        &tr,
    ]));
    let wal = path(&dir, "hetero.wal");
    let events = path(&dir, "hetero.jsonl");
    let prom = path(&dir, "hetero.prom");
    let man = path(&dir, "hetero.manifest.json");
    let out = stdout(&dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--hetero",
        "--shards",
        "2",
        "--journal",
        &wal,
        "--fsync",
        "never",
        "--trace-events",
        &events,
        "--metrics",
        &prom,
        "--run-manifest",
        &man,
        "--jobs",
        "2",
    ]));
    assert!(out.contains("3-dimensional"), "{out}");
    assert_eq!(field(&out, "ledger"), "conserved");

    // Every shard journal is a 3-dimensional (v2) journal; the per-dimension
    // served demand summed over the shards is the cluster's demand volume.
    let mut served = [0u128; 3];
    let mut replayed = 0u128;
    for s in 0..2 {
        let rec = stdout(&dbp(&["recover", &format!("{wal}.shard{s}")]));
        assert_eq!(field(&rec, "dimensions"), "3", "{rec}");
        assert!(
            field(&rec, "replayed cost").contains("complete run"),
            "{rec}"
        );
        replayed += field(&rec, "replayed cost")
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<u128>()
            .unwrap();
        for (d, slot) in served.iter_mut().enumerate() {
            *slot += dim_demand_ticks(&rec, &format!("dim {d} served"));
        }
        let jsonl = std::fs::read_to_string(format!("{events}.shard{s}")).unwrap();
        assert!(jsonl.lines().count() > 0, "shard {s} traced no events");
    }
    assert_eq!(replayed, field(&out, "busy ticks").parse::<u128>().unwrap());
    for (d, total) in served.iter().enumerate() {
        assert_eq!(
            *total,
            dim_demand_ticks(&out, &format!("dim {d} (")),
            "dimension {d}: journals disagree with the cluster report"
        );
    }

    let metrics = std::fs::read_to_string(&prom).unwrap();
    assert!(metrics.contains("dbp_cluster_shards 2"), "{metrics}");
    assert!(metrics.contains("{shard=\"1\"}"), "{metrics}");
    for dim in ["gpu", "cpu", "mem"] {
        assert!(
            metrics.contains(&format!("dbp_dim_demand_ticks{{dim=\"{dim}\"}}")),
            "{metrics}"
        );
    }
    let manifest = std::fs::read_to_string(&man).unwrap();
    assert!(
        manifest.contains(&format!("\"total_cost_ticks\": {replayed}")),
        "{manifest}"
    );
}

#[test]
fn hetero_cluster_refuses_the_scalar_fault_paths_by_name() {
    let dir = tmpdir();
    let tr = generate(&dir, "heterofaults");
    let out = dbp(&[
        "cluster", &tr, "--algo", "ff", "--hetero", "--shards", "2", "--faults", "1",
    ]);
    assert!(!out.status.success(), "--faults was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--faults is not supported with --hetero"),
        "{err}"
    );
}

#[test]
fn hetero_shard_faults_self_heal_deterministically() {
    let dir = tmpdir();
    let tr = generate(&dir, "heteroheal");
    let argv = [
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--hetero",
        "--shards",
        "4",
        "--router",
        "hash",
        "--shard-faults",
        "7",
    ];
    let out = stdout(&dbp(&argv));
    assert!(out.contains("FF (3-dimensional)"), "{out}");
    assert_eq!(field(&out, "ledger"), "conserved");
    let total: u64 = field(&out, "sessions").parse().unwrap();
    let served: u64 = field(&out, "served").parse().unwrap();
    let dropped: u64 = field(&out, "dropped").parse().unwrap();
    let lost: u64 = field(&out, "lost to kills").parse().unwrap();
    let rerouted: u64 = field(&out, "rerouted").parse().unwrap();
    assert_eq!(served + dropped + lost + rerouted, total);
    assert!(out.contains("-- shards:"), "{out}");
    assert_eq!(out, stdout(&dbp(&argv)), "same plan, same run");
}

#[test]
fn shard_faults_refuse_fsync_without_a_journal() {
    let dir = tmpdir();
    let tr = generate(&dir, "healfsync");
    let out = dbp(&[
        "cluster",
        &tr,
        "--algo",
        "ff",
        "--shards",
        "2",
        "--shard-faults",
        "7",
        "--fsync",
        "never",
    ]);
    assert!(!out.status.success(), "--fsync was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--fsync only makes sense with --journal FILE"),
        "{err}"
    );
}

#[test]
fn profile_honours_hetero_with_and_without_shard_faults() {
    let dir = tmpdir();
    let tr = generate(&dir, "heteroprofile");
    let base = ["profile", &tr, "--algo", "ff", "--hetero", "--shards", "4"];
    let plain = stdout(&dbp(&base));
    assert_eq!(field(&plain, "algorithm"), "FF (3-dimensional)");
    assert!(plain.contains("shard_busy"), "{plain}");

    let mut argv = base.to_vec();
    argv.extend(["--shard-faults", "7"]);
    let healed = stdout(&dbp(&argv));
    assert_eq!(field(&healed, "algorithm"), "FF (3-dimensional)");
    assert!(healed.contains("shard_restart"), "{healed}");
    assert_eq!(field(&healed, "sessions"), field(&plain, "sessions"));
}

#[test]
fn hetero_run_refuses_every_flag_it_does_not_read() {
    let dir = tmpdir();
    let tr = generate(&dir, "heterorun");
    let file = path(&dir, "heterorun.out");
    let cases: [&[&str]; 8] = [
        &["--journal", &file],
        &["--faults", "1"],
        &["--trace-events", &file],
        &["--timeseries", &file],
        &["--gantt"],
        &["--svg", &file],
        &["--save-trace", &file],
        &["--fleet"],
    ];
    for extra in cases {
        let mut argv = vec!["run", &tr, "--algo", "ff", "--hetero"];
        argv.extend_from_slice(extra);
        let out = dbp(&argv);
        assert!(!out.status.success(), "{} was accepted", extra[0]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{} is not supported with --hetero", extra[0])),
            "{err}"
        );
    }
    assert!(!std::path::Path::new(&file).exists());
}
