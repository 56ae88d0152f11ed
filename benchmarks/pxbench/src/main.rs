//! `pxbench` — the wire-level benchmark of the pxml warehouse server.
//!
//! ```text
//! pxbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--json <file>]
//!     one workload in this process; the last stdout line is the result
//!     object BENCHMARK.json's contract asks for
//! pxbench [--seed <n>] [--seconds <s>] [--trace]
//!     all four workloads, each in a child process, as one table
//! pxbench --repeat [--seed <n>] [--seconds <s>]
//!     the untraced set twice; fails if any metric disagrees beyond its bound
//! pxbench --spread <runs> [--seed <n>] [--seconds <s>]
//!     each workload <runs> times with seeds n, n+1, ...; quartile spread of
//!     every end-to-end metric beside its bound
//! pxbench --smoke
//!     all four workloads, untraced and traced, at ~1 % size
//! pxbench --benchmark-json
//!     the text of BENCHMARK.json, generated from spec.rs
//! pxbench --restart <scratch>
//!     internal: one timed server restart in a fresh process (see
//!     `run::Restarts`)
//! ```
//!
//! See README.md in this directory for what is measured and why.

mod checks;
mod ops;
mod probe;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ops::Scale;
use report::Measured;
use run::Restarts;
use spec::Workload;

/// Everything under this directory is the benchmark's to create and delete.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under `out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        // A crashed earlier run with a recycled pid may have left one behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the benchmark's out/ directory is writable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one workload run produced.
struct Outcome {
    metrics: Vec<Measured>,
    exact: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// Median probe duration of the main phases, in microseconds: how fast
    /// the machine was while this ran ([`probe::REFERENCE_US`] is quiet).
    probe_us: f64,
    /// Share of the clients' closed-loop time spent computing
    /// ([`report::cpu_share`]).
    cpu_share: f64,
    /// Median wall time of a server restart in a fresh process (raw, not
    /// normalized), milliseconds, and how many were timed.
    recovery_ms: (f64, usize),
}

/// The untraced run: `repetitions` from identical fresh state.
fn run_untraced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    repetitions: usize,
    restarts: Restarts,
) -> Outcome {
    let scratch = Scratch::new();
    let stream = ops::build(workload, seed, scale);
    let reps: Vec<run::Rep> = (0..repetitions)
        .map(|index| {
            let dir = scratch.0.join(format!("rep-{index}"));
            run::repetition(workload, &stream, &dir, restarts, None, index == 0)
        })
        .collect();
    let mut violations: Vec<String> = reps
        .iter()
        .flat_map(|rep| rep.violations.iter().cloned())
        .collect();
    violations.extend(report::determinism_violations(&reps));
    let cpu_share = report::cpu_share(&reps);
    violations.extend(report::cpu_share_violation(workload, cpu_share));
    Outcome {
        metrics: report::end_to_end(workload, &stream, &reps, procfs::peak_rss_mb()),
        exact: reps[0].exact.clone(),
        attempted: reps
            .iter()
            .map(|rep| rep.tally.attempted + rep.oracle_tally.attempted)
            .sum(),
        failed: reps
            .iter()
            .map(|rep| rep.tally.failed + rep.oracle_tally.failed)
            .sum(),
        violations,
        probe_us: median_probe(&reps),
        cpu_share,
        recovery_ms: median_recovery(&reps),
    }
}

fn median_recovery(reps: &[run::Rep]) -> (f64, usize) {
    let all: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.recovery_ms.iter().copied())
        .collect();
    (stats::median(&all).unwrap_or(0.0), all.len())
}

fn median_probe(reps: &[run::Rep]) -> f64 {
    let all: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.probe_us.iter().copied())
        .collect();
    stats::median(&all).unwrap_or(0.0)
}

/// The traced run: one untraced reference repetition (for the tracing
/// overhead), then one repetition with the shadow beside every wire call.
fn run_traced(workload: Workload, seed: u64, scale: Scale, fresh_process: bool) -> Outcome {
    let scratch = Scratch::new();
    let scale = Scale {
        ops: scale.ops * spec::TRACE_SCALE,
        ..scale
    };
    let stream = ops::build(workload, seed, scale);
    let reference = run::repetition(
        workload,
        &stream,
        &scratch.0.join("reference"),
        Restarts {
            count: 0,
            fresh_process,
        },
        None,
        false,
    );
    let traced_dir = scratch.0.join("traced");
    let tracer = trace::Tracer::new(&traced_dir, stream.docs.len());
    let traced = run::repetition(
        workload,
        &stream,
        &traced_dir,
        Restarts {
            count: spec::RESTARTS_PER_REPETITION,
            fresh_process,
        },
        Some(&tracer),
        true,
    );
    let trace = tracer.finish();
    let spans_path = out_dir().join(format!("spans.{}.jsonl", workload.name()));
    let mut violations = Vec::new();
    if let Err(error) = trace::write_spans(&spans_path, workload.name(), &trace.spans) {
        violations.push(format!("cannot write {}: {error}", spans_path.display()));
    }
    println!(
        "spans {} written to {}; {} wire replies compared with the shadow",
        trace.spans.len(),
        spans_path.display(),
        trace.compared_answers
    );
    violations.extend(reference.violations.iter().cloned());
    violations.extend(traced.violations.iter().cloned());
    violations.extend(trace.violations.iter().cloned());
    Outcome {
        metrics: report::per_layer(&stream, &reference, &traced, &trace),
        exact: traced.exact.clone(),
        attempted: reference.tally.attempted
            + traced.tally.attempted
            + traced.oracle_tally.attempted,
        failed: reference.tally.failed + traced.tally.failed + traced.oracle_tally.failed,
        violations,
        recovery_ms: median_recovery(std::slice::from_ref(&traced)),
        // The shadow replay computes beside every wire call: the traced
        // repetition's share says nothing about the workload.
        cpu_share: report::cpu_share(std::slice::from_ref(&reference)),
        probe_us: median_probe(&[reference, traced]),
    }
}

/// The result object of the contract, on one line.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// A float as JSON: every digit measured, never `NaN` or `inf`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Prints one workload's outcome: a header, one `metric` line per metric,
/// one `count` line per exact count, the operation tally, the checks, and
/// last the result object.
fn print_outcome(workload: Workload, seed: u64, seconds: f64, traced: bool, outcome: &Outcome) {
    println!(
        "pxbench {} seed={seed} seconds={seconds} trace={} clients={} cores={}",
        workload.name(),
        u8::from(traced),
        spec::CLIENTS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for m in &outcome.metrics {
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "metric {} {} {} bound={bound} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    for (key, value) in &outcome.exact {
        println!("count {key} {value}");
    }
    println!(
        "ops attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    println!(
        "info recovery_ms {} n={} (fresh-process restarts, raw wall time)",
        json_number(outcome.recovery_ms.0),
        outcome.recovery_ms.1
    );
    println!(
        "info probe_us {:.2} reference_us={} (times are reported at the reference speed)",
        outcome.probe_us,
        probe::REFERENCE_US
    );
    // Elsewhere the wall time scales with the machine's speed too, and the
    // ratio of a normalized to a raw time says nothing.
    if workload == Workload::FlushBound {
        println!(
            "info cpu_share {:.3} (main-phase CPU time at the reference speed / wall x {} clients)",
            outcome.cpu_share,
            spec::CLIENTS
        );
    }
    if outcome.violations.is_empty() {
        println!("check ok");
    }
    for violation in &outcome.violations {
        println!("check FAILED {violation}");
    }
    println!("{}", result_json(outcome));
}

/// What a child run printed, parsed back.
#[derive(Default)]
struct ChildResult {
    metrics: BTreeMap<String, (f64, String, usize)>,
    exact: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    ok: bool,
}

fn parse_child_output(stdout: &str) -> ChildResult {
    let mut result = ChildResult::default();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                else {
                    continue;
                };
                let samples = words
                    .find_map(|w| w.strip_prefix("n="))
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                if let Ok(value) = value.parse() {
                    result
                        .metrics
                        .insert(name.to_string(), (value, unit.to_string(), samples));
                }
            }
            Some("count") => {
                if let (Some(key), Some(Ok(value))) =
                    (words.next(), words.next().map(str::parse::<u64>))
                {
                    result.exact.insert(key.to_string(), value);
                }
            }
            Some("ops") => {
                for word in words {
                    if let Some(n) = word.strip_prefix("attempted=") {
                        result.attempted = n.parse().unwrap_or(0);
                    } else if let Some(n) = word.strip_prefix("failed=") {
                        result.failed = n.parse().unwrap_or(0);
                    }
                }
            }
            Some("check") => match words.next() {
                Some("ok") => result.ok = true,
                _ => result.violations.push(line.to_string()),
            },
            _ => {}
        }
    }
    result.ok &= result.violations.is_empty();
    result
}

/// Runs one workload in a fresh child process (so `peak_rss_mb` is its
/// own) and parses what it printed.
fn run_child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut result = parse_child_output(&stdout);
    if !output.status.success() {
        result.ok = false;
        result
            .violations
            .push(format!("{} exited with {}", workload.name(), output.status));
    }
    result
}

/// All four workloads, one child each; prints a table per workload.
fn run_set(seed: u64, seconds: f64, traced: bool) -> BTreeMap<Workload, ChildResult> {
    let mut set = BTreeMap::new();
    for workload in Workload::ALL {
        let result = run_child(workload, seed, seconds, traced);
        println!(
            "\n== {} (seed {seed}, {} run) — {} operations attempted, {} failed",
            workload.name(),
            if traced { "traced" } else { "untraced" },
            result.attempted,
            result.failed
        );
        for (name, (value, unit, samples)) in &result.metrics {
            println!("  {name:<34} {value:>14.3} {unit:<6} n={samples}");
        }
        for violation in &result.violations {
            println!("  {violation}");
        }
        set.insert(workload, result);
    }
    set
}

/// `--repeat`: two untraced sets back to back must agree within the
/// benchmark's own bounds, and on every exact count.
fn repeat(seed: u64, seconds: f64) -> bool {
    let first = run_set(seed, seconds, false);
    let second = run_set(seed, seconds, false);
    let mut agreed = true;
    println!(
        "\n{:<12} {:<26} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in Workload::ALL {
        let (a, b) = (&first[&workload], &second[&workload]);
        agreed &= a.ok && b.ok && a.failed == 0 && b.failed == 0;
        for metric in spec::END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let (Some((x, _, _)), Some((y, _, _))) =
                (a.metrics.get(metric.name), b.metrics.get(metric.name))
            else {
                println!("{:<12} {:<26} missing", workload.name(), metric.name);
                agreed = false;
                continue;
            };
            let within = stats::within_bound(*x, *y, bound);
            agreed &= within;
            println!(
                "{:<12} {:<26} {x:>14.3} {y:>14.3} {:>+7.1}% {:>6.0}% {}",
                workload.name(),
                metric.name,
                stats::worsening(*x, *y, metric.better) * 100.0,
                bound * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
        if a.exact != b.exact {
            agreed = false;
            for (key, value) in &a.exact {
                if b.exact.get(key) != Some(value) {
                    println!(
                        "{:<12} count {key}: {value} vs {:?} DIFFERS",
                        workload.name(),
                        b.exact.get(key)
                    );
                }
            }
        }
    }
    println!(
        "\nrepeat: {}",
        if agreed {
            "both sets agree within every bound and on every exact count"
        } else {
            "DISAGREEMENT (see above)"
        }
    );
    agreed
}

/// `--spread <runs>`: the repeatability check the benchmark contract
/// prescribes — each workload `runs` times, each time with another seed;
/// per end-to-end metric the distance between the first and third quartile
/// as a share of the median, beside the metric's bound. Fails if a spread
/// exceeds its bound (`setup_s` excepted, as in the contract).
fn spread(seed: u64, seconds: f64, runs: usize) -> bool {
    let mut held = true;
    for workload in Workload::ALL {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for run in 0..runs {
            let result = run_child(workload, seed + run as u64, seconds, false);
            held &= result.ok && result.failed == 0;
            for violation in &result.violations {
                println!(
                    "{} seed {}: {violation}",
                    workload.name(),
                    seed + run as u64
                );
            }
            for metric in spec::END_TO_END {
                if let Some((value, _, _)) = result.metrics.get(metric.name) {
                    values.entry(metric.name).or_default().push(*value);
                }
            }
        }
        println!(
            "\n== {} — {runs} runs, seeds {seed}..{}",
            workload.name(),
            seed + runs as u64 - 1
        );
        println!(
            "{:<26} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "median", "min", "max", "spread", "bound"
        );
        for metric in spec::END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let samples = values.get(metric.name).map(Vec::as_slice).unwrap_or(&[]);
            let (Some(median), Some(spread)) =
                (stats::median(samples), stats::quartile_spread(samples))
            else {
                println!("{:<26} too few values", metric.name);
                held = false;
                continue;
            };
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else if metric.name == "setup_s" {
                "wide (not gated)"
            } else {
                held = false;
                "EXCEEDS BOUND"
            };
            println!(
                "{:<26} {median:>12.3} {:>12.3} {:>12.3} {:>7.1}% {:>5.0}% {verdict}",
                metric.name,
                samples.iter().copied().fold(f64::INFINITY, f64::min),
                samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "\nspread: {}",
        if held {
            "every spread is within its bound"
        } else {
            "NOT STEADY (see above)"
        }
    );
    held
}

/// Sizes of `--smoke`: ~1 % of the op counts on a tenth of the datasets.
const SMOKE: Scale = Scale {
    ops: 0.01,
    datasets: 0.1,
};

/// Runs every workload untraced (two repetitions, so the determinism check
/// has something to compare) and traced at smoke size; returns every
/// violation. `fresh_process` must be false where the running executable is
/// not `pxbench` (the unit tests).
fn smoke(fresh_process: bool) -> Vec<String> {
    let mut violations = Vec::new();
    for workload in Workload::ALL {
        for (kind, outcome) in [
            (
                "untraced",
                run_untraced(
                    workload,
                    1,
                    SMOKE,
                    2,
                    Restarts {
                        count: 1,
                        fresh_process,
                    },
                ),
            ),
            (
                "traced",
                run_traced(
                    workload,
                    1,
                    Scale {
                        // The traced run shrinks by TRACE_SCALE itself.
                        ops: SMOKE.ops / spec::TRACE_SCALE,
                        ..SMOKE
                    },
                    fresh_process,
                ),
            ),
        ] {
            if outcome.failed > 0 {
                violations.push(format!(
                    "{} {kind}: {} failed operations",
                    workload.name(),
                    outcome.failed
                ));
            }
            violations.extend(
                outcome
                    .violations
                    .iter()
                    .map(|v| format!("{} {kind}: {v}", workload.name())),
            );
        }
    }
    violations
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<PathBuf>,
    repeat: bool,
    spread: Option<usize>,
    smoke: bool,
    benchmark_json: bool,
    restart: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        ..Args::default()
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned 64-bit integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number".to_string())?
            }
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.traced = false,
                Some(v) if v == "1" => args.traced = true,
                other => {
                    args.traced = true;
                    pending = other;
                }
            },
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--repeat" => args.repeat = true,
            "--spread" => {
                args.spread = Some(
                    value("--spread")?
                        .parse()
                        .ok()
                        .filter(|runs| *runs >= 2)
                        .ok_or("--spread takes a number of runs, at least 2".to_string())?,
                )
            }
            "--smoke" => args.smoke = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--restart" => args.restart = Some(PathBuf::from(value("--restart")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pxbench: {message} (see the header of src/main.rs for usage)");
            return ExitCode::from(2);
        }
    };
    if let Some(scratch) = &args.restart {
        let Some(manifest) = run::RestartManifest::read(scratch) else {
            eprintln!("pxbench: no restart manifest under {}", scratch.display());
            return ExitCode::from(2);
        };
        let outcome = run::restart(&manifest, &scratch.join("server"));
        println!("{}", outcome.to_line());
        for violation in &outcome.violations {
            println!("violation {violation}");
        }
        return ExitCode::SUCCESS;
    }
    if args.benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.smoke {
        let violations = smoke(true);
        for violation in &violations {
            println!("check FAILED {violation}");
        }
        println!(
            "smoke: {}",
            if violations.is_empty() {
                "ok"
            } else {
                "FAILED"
            }
        );
        return ExitCode::from(u8::from(!violations.is_empty()));
    }
    if args.repeat {
        return ExitCode::from(u8::from(!repeat(args.seed, args.seconds)));
    }
    if let Some(runs) = args.spread {
        return ExitCode::from(u8::from(!spread(args.seed, args.seconds, runs)));
    }
    let Some(name) = &args.workload else {
        let set = run_set(args.seed, args.seconds, args.traced);
        let ok = set.values().all(|result| result.ok && result.failed == 0);
        return ExitCode::from(u8::from(!ok));
    };
    let Some(workload) = Workload::from_name(name) else {
        eprintln!(
            "pxbench: unknown workload `{name}`; the workloads are {}",
            Workload::ALL.map(Workload::name).join(", ")
        );
        return ExitCode::from(2);
    };
    let (repetitions, scale) = spec::repetitions_for(args.seconds);
    let outcome = if args.traced {
        run_traced(workload, args.seed, scale, true)
    } else {
        run_untraced(
            workload,
            args.seed,
            scale,
            repetitions,
            Restarts {
                count: spec::RESTARTS_PER_REPETITION,
                fresh_process: true,
            },
        )
    };
    print_outcome(workload, args.seed, args.seconds, args.traced, &outcome);
    if let Some(path) = &args.json {
        if let Err(error) = std::fs::write(path, result_json(&outcome) + "\n") {
            eprintln!("pxbench: cannot write {}: {error}", path.display());
            return ExitCode::from(1);
        }
    }
    ExitCode::from(u8::from(!outcome.violations.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> impl Iterator<Item = String> {
        words
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(argv(&[
            "--workload",
            "mixed_rw",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("mixed_rw"));
        assert_eq!((args.seed, args.seconds, args.traced), (42, 10.0, false));
        let args = parse_args(argv(&["--trace", "1", "--seed", "7"])).unwrap();
        assert!(args.traced && args.seed == 7);
    }

    #[test]
    fn a_bare_trace_flag_does_not_swallow_the_next_flag() {
        let args = parse_args(argv(&["--trace", "--seed", "9"])).unwrap();
        assert!(args.traced);
        assert_eq!(args.seed, 9);
        let args = parse_args(argv(&["--seed", "9", "--trace"])).unwrap();
        assert!(args.traced);
        assert!(parse_args(argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(argv(&["--bogus"])).is_err());
    }

    #[test]
    fn child_output_round_trips_through_the_parser() {
        let outcome = Outcome {
            metrics: vec![Measured {
                name: "ops_per_s".into(),
                value: 1234.5,
                unit: "1/s",
                bound: Some(0.1),
                samples: 3,
            }],
            exact: [("dir-hot.nodes".to_string(), 611u64)].into(),
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            probe_us: 40.0,
            cpu_share: 0.25,
            recovery_ms: (12.0, 30),
        };
        let json = result_json(&outcome);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        let text = "metric ops_per_s 1234.5 1/s bound=0.1 n=3\ncount dir-hot.nodes 611\n\
                    ops attempted=10 failed=0\ncheck ok\n";
        let parsed = parse_child_output(text);
        assert!(parsed.ok);
        assert_eq!(parsed.metrics["ops_per_s"], (1234.5, "1/s".to_string(), 3));
        assert_eq!(parsed.exact["dir-hot.nodes"], 611);
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
        let parsed = parse_child_output("check FAILED something\n");
        assert!(!parsed.ok);
    }

    /// Tier-1 coverage of the whole benchmark: every workload, untraced and
    /// traced, with every correctness check on, at ~1 % size.
    #[test]
    fn smoke_runs_every_workload_untraced_and_traced() {
        let started = std::time::Instant::now();
        let violations = smoke(false);
        assert!(violations.is_empty(), "{violations:#?}");
        assert!(
            started.elapsed()
                < std::time::Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 5 }),
            "smoke took {:?}",
            started.elapsed()
        );
    }
}
