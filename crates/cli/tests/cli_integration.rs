//! End-to-end tests of the `dbp` binary: every subcommand through a real
//! process, files round-tripping through a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dbp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("failed to spawn dbp")
}

fn tmpfile(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("dbp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    (p.clone(), p.to_string_lossy().into_owned())
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

#[test]
fn help_prints_usage() {
    let out = dbp(&["help"]);
    let text = stdout(&out);
    assert!(text.contains("USAGE"));
    assert!(text.contains("adversary"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dbp(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_run_compare_analyze_opt_pipeline() {
    let (_, path) = tmpfile("mu_trace.json");
    let out = dbp(&["generate", "mu", "--mu", "6", "--n", "80", "--out", &path]);
    assert!(stdout(&out).contains("wrote 80 items"));

    let out = dbp(&["run", &path, "--algo", "ff", "--validate", "--gantt"]);
    let text = stdout(&out);
    assert!(text.contains("algorithm      : FF"));
    assert!(text.contains("cost / LB"));
    assert!(text.contains("open bins:"), "gantt sparkline missing");

    let out = dbp(&["compare", &path]);
    let text = stdout(&out);
    for algo in ["FF", "BF", "WF", "NF", "LF", "MI", "RF", "MFF(8)", "HFF(4)"] {
        assert!(text.contains(algo), "missing {algo} in compare output");
    }

    let out = dbp(&["analyze", &path]);
    let text = stdout(&out);
    assert!(text.contains("analysis clean"));
    assert!(text.contains("Theorem 5 check"));

    let out = dbp(&["opt", &path]);
    assert!(stdout(&out).contains("OPT_total"));
}

#[test]
fn adversary_thm1_produces_exact_witness() {
    let (_, path) = tmpfile("thm1.json");
    let out = dbp(&["adversary", "thm1", "--k", "4", "--mu", "5", "--out", &path]);
    let text = stdout(&out);
    assert!(
        text.contains("ratio 5/2") || text.contains("ratio 20/8"),
        "{text}"
    );

    // The witness runs and yields the forced cost.
    let out = dbp(&["run", &path, "--algo", "bf"]);
    assert!(stdout(&out).contains("total cost     : 20000 bin-ticks"));
}

#[test]
fn adversary_adaptive_works_against_named_algorithm() {
    let (_, path) = tmpfile("adaptive.json");
    let out = dbp(&[
        "adversary",
        "adaptive",
        "--k",
        "3",
        "--mu",
        "4",
        "--algo",
        "wf",
        "--out",
        &path,
    ]);
    let text = stdout(&out);
    assert!(text.contains("3 bins opened"), "{text}");
    let out = dbp(&["opt", &path]);
    assert!(stdout(&out).contains("exact"));
}

#[test]
fn adversary_adaptive_output_is_pinned_for_the_indexed_names() {
    // Captured from the build whose `ff`/`bf`/`mff` still scanned: the
    // indexed selectors the names now run must be driven through the same
    // hooks and force the same bins.
    for algo in ["ff", "bf", "mff"] {
        let out = dbp(&[
            "adversary",
            "adaptive",
            "--k",
            "5",
            "--mu",
            "8",
            "--algo",
            algo,
        ]);
        assert_eq!(
            stdout(&out),
            format!(
                "adaptive adversary vs {algo}: 5 bins opened, forced cost 40000 bin-ticks\n\
                 25 items (pass --out FILE to save)\n"
            )
        );
    }
}

#[test]
fn run_saves_trace_and_prints_fleet() {
    let (_, trace_in) = tmpfile("wl.json");
    let (_, trace_out) = tmpfile("trace_out.json");
    let _ = dbp(&[
        "generate", "mu", "--mu", "4", "--n", "40", "--out", &trace_in,
    ]);
    let out = dbp(&[
        "run",
        &trace_in,
        "--algo",
        "bf",
        "--fleet",
        "--save-trace",
        &trace_out,
    ]);
    let text = stdout(&out);
    assert!(text.contains("fleet"));
    assert!(text.contains("bin lifetimes"));
    assert!(text.contains("trace saved"));
    let body = std::fs::read_to_string(&trace_out).unwrap();
    assert!(body.contains("\"algorithm\":\"BF\""));
}

#[test]
fn generate_scenario_by_name() {
    let (_, path) = tmpfile("scenario.json");
    let out = dbp(&[
        "generate",
        "scenario",
        "--name",
        "launch-day",
        "--seed",
        "2",
        "--out",
        &path,
    ]);
    assert!(stdout(&out).contains("wrote"));
    let out = dbp(&["run", &path, "--algo", "mff"]);
    assert!(stdout(&out).contains("algorithm      : MFF"));

    let out = dbp(&["generate", "scenario", "--name", "nope", "--out", &path]);
    assert!(!out.status.success());
}

#[test]
fn stats_scenarios_and_svg() {
    let (_, path) = tmpfile("svg_wl.json");
    let (_, svg_path) = tmpfile("trace.svg");
    let _ = dbp(&["generate", "mu", "--mu", "3", "--n", "30", "--out", &path]);
    let out = dbp(&["stats", &path]);
    let text = stdout(&out);
    assert!(text.contains("total demand"));
    assert!(text.contains("µ ="));

    let out = dbp(&["run", &path, "--algo", "ff", "--svg", &svg_path]);
    assert!(stdout(&out).contains("svg saved"));
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.matches("<rect").count() >= 30);

    let out = dbp(&["scenarios"]);
    let text = stdout(&out);
    for name in [
        "steady",
        "diurnal-day",
        "launch-day",
        "night-owls",
        "multi-region",
    ] {
        assert!(text.contains(name), "missing scenario {name}");
    }
}

#[test]
fn run_rejects_unknown_algorithm() {
    let (_, path) = tmpfile("r.json");
    let _ = dbp(&["generate", "mu", "--mu", "2", "--n", "10", "--out", &path]);
    let out = dbp(&["run", &path, "--algo", "quantum"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn opt_timeline_prints_profiles() {
    let (_, path) = tmpfile("tl.json");
    let _ = dbp(&["generate", "mu", "--mu", "3", "--n", "25", "--out", &path]);
    let out = dbp(&["opt", &path, "--timeline"]);
    let text = stdout(&out);
    assert!(text.contains("OPT(R,t) profile"));
    assert!(text.contains("top: OPT, bottom: FF"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = dbp(&["run", "/nonexistent/trace.json"]);
    assert!(!out.status.success());
}

#[test]
fn invalid_traces_exit_1_naming_the_item_without_panicking() {
    let ok = r#"{"id":0,"arrival":0,"departure":5,"size":3,"region":0}"#;
    let cases = [
        (
            "empty_interval",
            r#"{"id":1,"arrival":4,"departure":4,"size":3,"region":0}"#,
            "item r1 has departure <= arrival",
        ),
        (
            "bad_id",
            r#"{"id":7,"arrival":1,"departure":4,"size":3,"region":0}"#,
            "item at index 1 has id r7",
        ),
        (
            "oversized",
            r#"{"id":1,"arrival":1,"departure":4,"size":11,"region":0}"#,
            "item r1 has size 11 > capacity 10",
        ),
        (
            "zero_size",
            r#"{"id":1,"arrival":1,"departure":4,"size":0,"region":0}"#,
            "item r1 has zero size",
        ),
    ];
    for (name, bad, message) in cases {
        let (p, path) = tmpfile(&format!("bad_{name}.json"));
        std::fs::write(&p, format!(r#"{{"capacity":10,"items":[{ok},{bad}]}}"#)).unwrap();
        for cmd in ["run", "cluster"] {
            let out = dbp(&[cmd, &path, "--algo", "ff"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {stderr}");
            assert!(stderr.contains(message), "{cmd} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {name}: {stderr}");
        }
    }
}
