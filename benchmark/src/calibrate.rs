//! `all` and `calibrate`: run every workload in its own child process,
//! one at a time, and — for `calibrate` — measure the benchmark's own
//! noise the way its acceptance rule does.
//!
//! A *set* is `--runs` runs of every workload, run `i` with seed
//! `--seed + i`. Per end-to-end metric and workload, `calibrate` prints
//! each set's median and quartiles, the spread (interquartile range ÷
//! median, over the runs of a set), the set-to-set shift of the median
//! in the metric's worse direction, and the bound. It fails when a
//! spread or a shift exceeds its bound, or when a count metric
//! ([`EXACT`]) of one seed differs between two sets in any bit. Its
//! output is committed as `NOISE.md`.

use crate::json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The end-to-end metrics that are counts of the model, not times: a
/// seed decides them exactly, so between sets they may not move at all.
/// (Their spread over a set's *seeds* is what their bounds are sized
/// on.)
const EXACT: [&str; 3] = ["period_ratio", "accepted_share", "migration_kb_per_op"];

/// End-to-end metrics of one child run, by name.
type Run = BTreeMap<String, f64>;

/// Run one workload in a child process and parse its result line.
/// Echoes the child's report when `echo` is set.
fn child(workload: &str, seed: u64, seconds: f64, echo: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = stdout.lines().last().ok_or(format!("{workload} printed nothing"))?;
    let doc = json::parse(line)?;
    let field = |v: &serde::Value, k: &str| v.field(k).cloned().map_err(|e| e.to_string());
    if !field(&doc, "correct")?.as_bool().map_err(|e| e.to_string())? {
        return Err(format!("{workload} seed {seed} reports an incorrect run"));
    }
    let metrics = field(&doc, "metrics")?;
    let mut run = Run::new();
    for (name, ..) in END_TO_END {
        let value = field(&field(&metrics, name)?, "value")?.as_f64().map_err(|e| e.to_string())?;
        run.insert(name.to_owned(), value);
    }
    Ok(run)
}

/// `all`: every workload once, each in its own process. Exits non-zero
/// when any run fails its oracle.
pub fn all(seed: u64, seconds: f64) -> ExitCode {
    let mut failed = Vec::new();
    for (workload, _) in WORKLOADS {
        if let Err(e) = child(workload, seed, seconds, true) {
            eprintln!("{e}");
            failed.push(workload);
        }
        println!();
    }
    match failed.is_empty() {
        true => {
            println!("all {} workloads correct", WORKLOADS.len());
            ExitCode::SUCCESS
        }
        false => {
            eprintln!("FAILED: {}", failed.join(" "));
            ExitCode::FAILURE
        }
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let delta = match better {
        "higher" => first - second,
        _ => second - first,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// `calibrate`: see the module docs.
pub fn calibrate(sets: usize, runs: usize, seed: u64, seconds: f64) -> ExitCode {
    if sets < 2 || runs < 2 {
        eprintln!("calibrate needs at least 2 sets of 2 runs");
        return ExitCode::from(2);
    }
    // samples[workload][metric][set] = one value per run
    let mut samples: BTreeMap<&str, BTreeMap<&str, Vec<Vec<f64>>>> = BTreeMap::new();
    for set in 0..sets {
        for run in 0..runs {
            for (workload, _) in WORKLOADS {
                let values = match child(workload, seed + run as u64, seconds, false) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                eprintln!("set {set} run {run} {workload}: done");
                for (metric, ..) in END_TO_END {
                    let per_set = samples
                        .entry(workload)
                        .or_default()
                        .entry(metric)
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(values[metric]);
                }
            }
        }
    }

    println!("# Benchmark noise\n");
    println!(
        "`calibrate --sets {sets} --runs {runs} --seed {seed} --seconds {seconds}`: {sets} sets of \
         {runs} runs per workload, run *i* of a set with seed {seed} + *i*, every run in its own \
         process, one at a time. *spread* = (Q3 − Q1) ÷ median over the runs of a set, with the \
         quartiles of Python's `statistics.quantiles(values, n=4)`; *shift* = how much worse the \
         last set's median is than the first's, as a share of the first's. A spread or shift \
         above the bound fails the calibration, and so does a count metric (`period_ratio`, \
         `accepted_share`, `migration_kb_per_op`) that differs between two sets for the same seed \
         in any bit. `nproc` = {}.\n",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let mut failures = Vec::new();
    for (workload, _) in WORKLOADS {
        println!("## {workload}\n");
        println!("| metric | unit | set | median | Q1 | Q3 | spread | shift | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for (metric, unit, better, bound) in END_TO_END {
            let per_set = &samples[workload][metric];
            if EXACT.contains(&metric) && per_set.iter().any(|set| set != &per_set[0]) {
                failures.push(format!("{workload}/{metric} is not the same in every set"));
            }
            let medians: Vec<f64> = per_set.iter().map(|v| stats::median(v)).collect();
            let shift = worsening(medians[0], medians[sets - 1], better);
            for (set, values) in per_set.iter().enumerate() {
                let (q1, q3) = stats::quartiles(values);
                let spread = stats::spread(values);
                let spread_ok = spread <= bound;
                let shift_ok = shift <= bound;
                let verdict = match (spread_ok && shift_ok, spread <= bound / 3.0) {
                    (false, _) => "FAIL",
                    (true, true) => "ok",
                    (true, false) => "ok (spread > bound/3)",
                };
                if !(spread_ok && shift_ok) {
                    failures.push(format!("{workload}/{metric} set {set}"));
                }
                println!(
                    "| `{metric}` | {unit} | {set} | {:.6} | {q1:.6} | {q3:.6} | {:.2} % | {} | {:.1} % | {verdict} |",
                    medians[set],
                    spread * 100.0,
                    if set + 1 == sets { format!("{:+.2} %", shift * 100.0) } else { String::new() },
                    bound * 100.0,
                );
            }
        }
        println!();
    }
    match failures.is_empty() {
        true => {
            println!(
                "Calibration passed: every spread and shift is within its bound, every count \
                 metric repeats exactly for its seed."
            );
            ExitCode::SUCCESS
        }
        false => {
            println!("Calibration FAILED: {}", failures.join(", "));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, "lower") - 0.25).abs() < 1e-12);
        assert!(worsening(2.0, 1.5, "lower") < 0.0);
    }
}
