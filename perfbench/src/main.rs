//! `dbp-perfbench` — the benchmark's own helper binary.
//!
//! `perfbench/run.py` drives the shipped `dbp` and `run_all` binaries for
//! every end-to-end number. This helper does the work around them that
//! must not live in the program under test:
//!
//! ```text
//! dbp-perfbench gen-churn  --seed S --items N --out FILE     # churn fixture as a JSON trace
//! dbp-perfbench gen-paper  --reps N [--quick]                # median build time of the sweep's instance set
//! dbp-perfbench expect     FILE --shards K [--hetero]        # lower bound + oracle bill
//! dbp-perfbench live-pass  --addr A --trace FILE --rate R|max --pass P [--repeat K] [--lat-out FILE]
//! dbp-perfbench trace-batch FILE --shards K [--hetero] --seed S
//! dbp-perfbench trace-live FILE --shards K --fsync N --dir DIR
//! dbp-perfbench trace-paper [--quick] [--rows-out FILE]
//! ```
//!
//! Every subcommand prints one JSON object on its last stdout line.

mod batch;
mod flags;
mod live;
mod paper;
mod probes;
mod stats;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: dbp-perfbench <subcommand> [flags] (see the module docs)");
        return ExitCode::from(2);
    };
    let flags = match flags::Flags::parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "gen-churn" => batch::gen_churn(&flags),
        "gen-paper" => paper::gen(&flags),
        "expect" => batch::expect(&flags),
        "live-pass" => live::pass(&flags),
        "trace-batch" => batch::trace(&flags),
        "trace-live" => live::trace(&flags),
        "trace-paper" => paper::trace(&flags),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
