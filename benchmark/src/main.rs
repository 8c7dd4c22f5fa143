//! The cellstream end-to-end benchmark: five deterministic workloads,
//! lower-quartile-of-replays timing, a per-layer stage table. See `README.md`.
//!
//! ```text
//! cellstream-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cellstream-benchmark all       [--seed <n>] [--seconds <s>]
//! cellstream-benchmark trace <workload> [--seed <n>] [--seconds <s>]
//! cellstream-benchmark calibrate [--sets 2] [--runs 10] [--seed <n>] [--seconds <s>]
//! cellstream-benchmark manifest
//! ```
//!
//! The first form is what the driver runs; its last line of standard
//! output is one JSON object. `all` and `calibrate` run every workload
//! in its own child process, one at a time.

mod affinity;
mod bound;
mod calibrate;
mod clock;
mod gen;
mod harness;
mod json;
mod metrics;
mod spans;
mod stats;
mod workloads;

use harness::{Args, Outcome, Workload};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use spans::Tracer;
use std::process::ExitCode;

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 20100419;
/// Seconds of timed passes of a run that names none; `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 18;

const USAGE: &str = "usage:
  cellstream-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  cellstream-benchmark all [--seed <n>] [--seconds <s>]
  cellstream-benchmark trace <workload> [--seed <n>] [--seconds <s>]
  cellstream-benchmark calibrate [--sets <n>] [--runs <n>] [--seed <n>] [--seconds <s>]
  cellstream-benchmark manifest
workloads: plan_paper serve_single serve_burst fleet_churn rt_stream";

/// Flags shared by every form, parsed from `--name value` pairs.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        sets: 2,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                f.seconds = value.parse().map_err(|_| bad())?;
                if !(f.seconds.is_finite() && f.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => f.trace = matches!(value.as_str(), "1" | "true"),
            "--sets" => f.sets = value.parse().map_err(|_| bad())?,
            "--runs" => f.runs = value.parse().map_err(|_| bad())?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(f)
}

/// Dispatch a workload name to its implementation.
fn run_workload(args: &Args) -> Option<(Outcome, Tracer)> {
    use workloads::{fleet_churn::FleetChurn, plan_paper::PlanPaper, rt_stream::RtStream, serve};
    Some(match args.workload.as_str() {
        PlanPaper::NAME => harness::run::<PlanPaper>(args),
        serve::ServeSingle::NAME => harness::run::<serve::ServeSingle>(args),
        serve::ServeBurst::NAME => harness::run::<serve::ServeBurst>(args),
        FleetChurn::NAME => harness::run::<FleetChurn>(args),
        RtStream::NAME => harness::run::<RtStream>(args),
        _ => return None,
    })
}

/// One run, in this process: the human-readable report, the trace file
/// and stage table of a traced run, and the JSON result line last.
fn run_one(args: &Args) -> ExitCode {
    let Some((outcome, tracer)) = run_workload(args) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if args.trace && outcome.correct {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let path = dir.join(format!("trace_{}.json", args.workload));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&args.workload, args.seed)));
        match written {
            Ok(()) => println!("{} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        println!("{:<28} {:>8} {:>14} {:>14}", "stage", "calls", "total ms", "self ms");
        for s in tracer.stage_table() {
            println!(
                "{:<28} {:>8} {:>14.3} {:>14.3}",
                s.name,
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    if let Some(e) = &outcome.error {
        eprintln!("FAILED {}: {e}", args.workload);
    }
    println!("{}", outcome.to_json());
    match outcome.correct {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}

/// `BENCHMARK.json`, generated from the registry.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound}}}"
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (form, rest) = match argv.first().map(String::as_str) {
        Some(form @ ("all" | "calibrate" | "manifest")) => (form, &argv[1..]),
        Some("trace") if argv.len() >= 2 => ("trace", &argv[2..]),
        _ => ("run", &argv[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match form {
        "manifest" => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        "all" => calibrate::all(flags.seed, flags.seconds),
        "calibrate" => calibrate::calibrate(flags.sets, flags.runs, flags.seed, flags.seconds),
        form => {
            let workload = match (form, flags.workload) {
                ("trace", _) => argv[1].clone(),
                (_, Some(w)) => w,
                (_, None) => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let trace = flags.trace || form == "trace";
            run_one(&Args { workload, seed: flags.seed, seconds: flags.seconds, trace })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `-- manifest > BENCHMARK.json`");
        assert!(committed.len() < 64 * 1024);
        let doc = json::parse(&committed).unwrap();
        let serde::Value::Obj(pairs) = &doc else { panic!("BENCHMARK.json is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(doc.field("command").unwrap().as_arr().unwrap().len() <= 32);
        assert!((1..=60).contains(&doc.field("run_seconds").unwrap().as_u64().unwrap()));
        for (list, len) in [("workloads", 5), ("end_to_end", 9), ("per_layer", PER_LAYER.len())] {
            assert_eq!(doc.field(list).unwrap().as_arr().unwrap().len(), len);
        }
    }

    #[test]
    fn flags_parse_the_driver_form() {
        let argv: Vec<String> = "--workload rt_stream --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let f = parse_flags(&argv).unwrap();
        assert_eq!(
            (f.workload.as_deref(), f.seed, f.seconds, f.trace),
            (Some("rt_stream"), 7, 3.0, true)
        );
        assert!(parse_flags(&["--seed".into()]).is_err());
        assert!(parse_flags(&["--bogus".into(), "1".into()]).is_err());
        assert!(parse_flags(&["--seconds".into(), "-1".into()]).is_err());
    }
}
