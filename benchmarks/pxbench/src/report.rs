//! Turns repetitions into named metrics: which samples each metric pools,
//! how repetitions combine, and the determinism self-check between them.

use std::collections::BTreeMap;

use crate::ops::{Class, Kind, OpStream};
use crate::run::Rep;
use crate::spec::{self, MetricSpec, Workload};
use crate::stats;
use crate::trace::TraceReport;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub bound: Option<f64>,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// A percentile of `items` when the ten-beyond rule allows it — judged on
/// `raw`, the number of raw measurements behind the items — otherwise the
/// largest item. Only runs far below the frozen op counts (`--smoke`) are
/// ever that short, and they report no numbers anyone compares.
///
/// The percentile is the mean of the order statistics within half a percent
/// of the count on either side of the nearest rank (at least two on each
/// side). Over thousands of items that is the nearest-rank value to within
/// sampling noise; over the 200 load commits `read_heavy` takes its
/// `commit_p99_us` from, it is the five slowest — all three
/// checkpoint-paying commits instead of one of them, whose file-system luck
/// alone ranged over 17 % of its median between runs.
fn percentile_or_max(items: &[f64], q: f64, raw: usize) -> f64 {
    let mut sorted = items.to_vec();
    stats::sort(&mut sorted);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let beyond = (raw as f64 * (1.0 - q)).floor() as usize;
    if q > 0.5 && beyond < 10 {
        return sorted[last];
    }
    let nearest = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    let reach = (sorted.len() / 200).max(2);
    let window = &sorted[nearest.saturating_sub(reach)..=(nearest + reach).min(last)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Folds repetitions item by item: the i-th value is the *smallest* i-th
/// measurement any repetition made (`None` if every repetition failed it).
///
/// The repetitions send the identical op stream from identical state, so
/// the i-th request does the same work each time and what differs is the
/// machine, whose disturbances only ever add time (a stall, a descheduled
/// vCPU, a cold cache). The minimum is therefore the estimate of what the
/// request costs; a cost every repetition pays (a checkpoint, a big answer)
/// survives it, which is what keeps a p99 over the folded values both
/// meaningful and repeatable (pooling the raw samples instead let the p99
/// of one seed range over 17-54 % of its median between runs; folded, over
/// 6-14 %).
fn fold<'a>(reps: &'a [Rep], pick: impl Fn(&'a Rep) -> &'a [Option<f64>]) -> Vec<Option<f64>> {
    let mut folded: Vec<Option<f64>> = Vec::new();
    for rep in reps {
        let values = pick(rep);
        folded.resize(folded.len().max(values.len()), None);
        for (best, value) in folded.iter_mut().zip(values) {
            *best = match (*best, *value) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }
    folded
}

/// Which requests a latency metric is about.
#[derive(Clone, Copy)]
enum Wanted {
    /// Queries of one class, or of every class.
    Queries(Option<Class>),
    SyncCommits,
}

impl Wanted {
    fn takes(self, kind: Kind) -> bool {
        match (self, kind) {
            (Wanted::Queries(None), Kind::Query(_)) => true,
            (Wanted::Queries(Some(wanted)), Kind::Query(class)) => wanted == class,
            (Wanted::SyncCommits, Kind::SyncCommit) => true,
            _ => false,
        }
    }
}

/// Folded latencies of the wanted requests, from the phase `workload` takes
/// them from: the main phase when it issues such requests, otherwise the
/// load phase (commits) or the read-back phase (queries). Returns the folded
/// items and the raw measurement count.
fn latencies(
    workload: Workload,
    stream: &OpStream,
    reps: &[Rep],
    wanted: Wanted,
) -> (Vec<f64>, usize) {
    let from_main = match wanted {
        Wanted::Queries(_) => workload.main_has_queries(),
        Wanted::SyncCommits => workload.main_has_commits(),
    };
    let mut items = Vec::new();
    if matches!(wanted, Wanted::SyncCommits) && !from_main {
        // read_heavy: the sync commits that load `dir-hot`, which the
        // second loading connection has to itself. It finishes first, so
        // every one of them ran beside the other connection's commits —
        // the two-client regime of every main phase. `dir-large`'s are left
        // out: the second half of them run alone (idle-core wake-ups, a
        // different and noisier regime: their p99 ranged over 17-19 % of its
        // median between runs), and a median over the two populations mixed
        // would sit on the edge between them.
        items.extend(fold(reps, |rep| &rep.load[1]).into_iter().flatten());
    } else {
        for client in 0..spec::CLIENTS {
            let (ops, folded) = if from_main {
                (&stream.main[client], fold(reps, |rep| &rep.main[client]))
            } else {
                (
                    &stream.readback[client],
                    fold(reps, |rep| &rep.readback[client]),
                )
            };
            items.extend(
                ops.iter()
                    .zip(folded)
                    .filter(|(op, _)| wanted.takes(op.kind()))
                    .filter_map(|(_, value)| value),
            );
        }
    }
    let raw = items.len() * reps.len();
    (items, raw)
}

/// Closed-loop throughput of the main phase on a quiet machine: requests
/// completed over the slower client's time, where a client's time is the
/// sum of its folded request latencies (a closed-loop client does nothing
/// but wait for replies).
fn ops_per_s(reps: &[Rep]) -> f64 {
    let mut completed = 0usize;
    let mut slowest_us = 0.0f64;
    for client in 0..spec::CLIENTS {
        let folded = fold(reps, |rep| &rep.main[client]);
        completed += folded.iter().flatten().count();
        slowest_us = slowest_us.max(folded.iter().flatten().sum());
    }
    completed as f64 / (slowest_us / 1e6)
}

/// The end-to-end metrics of an untraced run.
///
/// Latency percentiles and throughput are computed over the repetitions
/// folded request by request ([`fold`]); `cpu_us_per_op` and `setup_s` are
/// the median repetition's (CPU time has no finer grain than a repetition,
/// and the benchmark contract asks for the median set-up).
pub fn end_to_end(
    workload: Workload,
    stream: &OpStream,
    reps: &[Rep],
    peak_rss_mb: f64,
) -> Vec<Measured> {
    let (point, point_raw) = latencies(workload, stream, reps, Wanted::Queries(Some(Class::Point)));
    let (broad, broad_raw) = latencies(workload, stream, reps, Wanted::Queries(Some(Class::Broad)));
    let (queries, queries_raw) = latencies(workload, stream, reps, Wanted::Queries(None));
    let (commits, commits_raw) = latencies(workload, stream, reps, Wanted::SyncCommits);
    let cpu_us_per_op = stats::median(
        &reps
            .iter()
            .map(|rep| rep.main_cpu_s * 1e6 / rep.main_completed.max(1) as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let first = &reps[0];
    let values: [(f64, usize); 10] = [
        (
            stats::median(&reps.iter().map(|rep| rep.setup_s).collect::<Vec<_>>()).unwrap_or(0.0),
            reps.len(),
        ),
        (ops_per_s(reps), reps.len()),
        (cpu_us_per_op, reps.len()),
        (percentile_or_max(&point, 0.50, point_raw), point_raw),
        (percentile_or_max(&broad, 0.50, broad_raw), broad_raw),
        (percentile_or_max(&queries, 0.99, queries_raw), queries_raw),
        (percentile_or_max(&commits, 0.50, commits_raw), commits_raw),
        (percentile_or_max(&commits, 0.99, commits_raw), commits_raw),
        (
            first.journal_tail_bytes as f64 / first.journal_tail_batches.max(1) as f64,
            first.journal_tail_batches as usize,
        ),
        (peak_rss_mb, 1),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (value, samples))| measured(spec.name.to_string(), spec, value, samples))
        .collect()
}

fn measured(name: String, spec: &MetricSpec, value: f64, samples: usize) -> Measured {
    Measured {
        name,
        value,
        unit: spec.unit,
        bound: spec.bound,
        samples,
    }
}

/// Every per-layer metric of a traced run: medians over the tracer's
/// samples, its totals, and what the traced repetition itself observed.
/// A metric the workload has no samples for reports 0.
pub fn per_layer(
    stream: &OpStream,
    reference: &Rep,
    traced: &Rep,
    trace: &TraceReport,
) -> Vec<Measured> {
    let mut direct: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    direct.insert(
        "server.tenant_open_us",
        (
            stats::median(&traced.tenant_open_us).unwrap_or(0.0),
            traced.tenant_open_us.len(),
        ),
    );
    direct.insert(
        "recovery_ms",
        (
            stats::median(&traced.recovery_ms).unwrap_or(0.0),
            traced.recovery_ms.len(),
        ),
    );
    direct.insert("server.busy_shed", (traced.tally.busy as f64, 1));
    direct.insert("store.checkpoints", (traced.checkpoints as f64, 1));
    direct.insert(
        "store.disk_bytes_per_doc_byte",
        (traced.disk_bytes as f64 / traced.doc_bytes.max(1) as f64, 1),
    );
    direct.insert(
        "store.fsyncs_per_commit",
        (
            traced.fsyncs as f64 / traced.wire_commits.max(1) as f64,
            traced.wire_commits as usize,
        ),
    );
    direct.insert("store.window_occupancy", (traced.window_occupancy, 1));
    direct.insert("trace.spans", (trace.spans.len() as f64, 1));
    direct.insert(
        "trace.overhead_pct",
        (overhead_pct(stream, reference, traced), 1),
    );

    spec::per_layer()
        .iter()
        .map(|(name, spec)| {
            let (value, samples) = if let Some(value) = direct.get(name.as_str()) {
                *value
            } else if let Some(total) = trace.totals.get(name) {
                (*total, 1)
            } else {
                let samples = trace.samples.get(name).map(Vec::as_slice).unwrap_or(&[]);
                (stats::median(samples).unwrap_or(0.0), samples.len())
            };
            measured(name.clone(), spec, value, samples)
        })
        .collect()
}

/// How much tracing slowed the wire: the largest relative increase of a
/// request kind's median wire latency from the untraced reference
/// repetition to the traced one, in percent.
fn overhead_pct(stream: &OpStream, reference: &Rep, traced: &Rep) -> f64 {
    let medians = |rep: &Rep| -> Vec<Option<f64>> {
        let mut by_kind: [Vec<f64>; 4] = Default::default();
        let phases = stream
            .main
            .iter()
            .zip(&rep.main)
            .chain(stream.readback.iter().zip(&rep.readback));
        for (ops, values) in phases {
            for (op, value) in ops.iter().zip(values) {
                let slot = match op.kind() {
                    Kind::Query(class) => class as usize,
                    Kind::SyncCommit => 3,
                    Kind::AsyncCommit => continue,
                };
                by_kind[slot].extend(value);
            }
        }
        by_kind.iter().map(|values| stats::median(values)).collect()
    };
    medians(reference)
        .into_iter()
        .zip(medians(traced))
        .filter_map(|pair| match pair {
            (Some(before), Some(after)) if before > 0.0 => Some((after / before - 1.0) * 100.0),
            _ => None,
        })
        .fold(f64::NEG_INFINITY, f64::max)
        .max(-100.0)
}

/// The share of the clients' closed-loop time the process spent computing:
/// main-phase CPU time over wall x [`spec::CLIENTS`] (with two closed-loop
/// clients at most two requests are ever in flight), the median repetition's.
///
/// CPU time is taken at the reference machine speed and the median of the
/// repetitions is judged, not each one: the share says whether the
/// *workload's sizing* leaves the device in charge, and a slow stretch of the
/// machine (which inflates raw CPU time by up to half while the simulated
/// flush stays 5 ms) must not fail a run for it.
pub fn cpu_share(reps: &[Rep]) -> f64 {
    let shares: Vec<f64> = reps
        .iter()
        .filter(|rep| rep.main_wall_s > 0.0)
        .map(|rep| rep.main_cpu_s / (rep.main_wall_s * spec::CLIENTS as f64))
        .collect();
    stats::median(&shares).unwrap_or(0.0)
}

/// `flush_bound`'s validity check: above the ceiling the requests compute
/// nearly as long as they wait and the device model no longer sets the pace.
pub fn cpu_share_violation(workload: Workload, share: f64) -> Option<String> {
    (workload == Workload::FlushBound && share > spec::FLUSH_BOUND_MAX_CPU_SHARE).then(|| {
        format!(
            "flush_bound computed for {:.0}% of its clients' closed-loop time; the device model must set the pace (< {:.0}%)",
            share * 100.0,
            spec::FLUSH_BOUND_MAX_CPU_SHARE * 100.0
        )
    })
}

/// The determinism self-check: every exact count of every repetition equals
/// the first repetition's.
pub fn determinism_violations(reps: &[Rep]) -> Vec<String> {
    let Some((first, rest)) = reps.split_first() else {
        return Vec::new();
    };
    let mut violations = Vec::new();
    for (index, rep) in rest.iter().enumerate() {
        for (key, expected) in &first.exact {
            let got = rep.exact.get(key);
            if got != Some(expected) {
                violations.push(format!(
                    "repetition {} counted {key} = {got:?}, repetition 0 counted {expected}",
                    index + 1
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, Scale};

    #[test]
    fn folding_keeps_the_fastest_measurement_of_each_request() {
        let reps = [
            Rep {
                load: vec![vec![Some(5.0), None, Some(9.0), None]],
                ..Rep::default()
            },
            Rep {
                load: vec![vec![Some(7.0), Some(4.0), Some(8.0), None]],
                ..Rep::default()
            },
        ];
        assert_eq!(
            fold(&reps, |rep| &rep.load[0]),
            vec![Some(5.0), Some(4.0), Some(8.0), None]
        );
    }

    #[test]
    fn tail_percentiles_need_ten_raw_measurements_beyond_them() {
        let items: Vec<f64> = (1..=500).map(f64::from).collect();
        // 500 items from 3 repetitions: 15 raw measurements beyond p99.
        assert_eq!(percentile_or_max(&items, 0.99, 1500), 495.0);
        // From one repetition only 5 lie beyond: report the largest instead.
        assert_eq!(percentile_or_max(&items, 0.99, 500), 500.0);
        assert_eq!(percentile_or_max(&items, 0.50, 500), 250.0);
        assert_eq!(percentile_or_max(&[], 0.50, 0), 0.0);
    }

    /// A two-repetition run of the smallest read_heavy stream, with made-up
    /// latencies: request i took `base + i` µs, slower in the second run.
    #[test]
    fn metrics_come_from_the_right_phase_and_fold_the_repetitions() {
        let scale = Scale {
            ops: 20.0 / spec::main_ops_per_client(Workload::ReadHeavy) as f64,
            datasets: 0.05,
        };
        let stream = ops::build(Workload::ReadHeavy, 1, scale);
        let loads: usize = stream.docs.iter().map(|doc| doc.load.len()).sum();
        let rep = |slowdown: f64| Rep {
            setup_s: slowdown,
            main_wall_s: 1.0,
            main_cpu_s: 0.004 * slowdown,
            main_completed: 40,
            load: vec![
                Vec::new(),
                (0..loads)
                    .map(|i| Some((1000 + i) as f64 * slowdown))
                    .collect(),
            ],
            main: stream
                .main
                .iter()
                .map(|ops| (0..ops.len()).map(|_| Some(100.0 * slowdown)).collect())
                .collect(),
            readback: vec![Vec::new(); spec::CLIENTS],
            recovery_ms: vec![10.0 * slowdown, 30.0 * slowdown],
            journal_tail_bytes: 900,
            journal_tail_batches: 3,
            ..Rep::default()
        };
        let reps = [rep(2.0), rep(1.0), rep(3.0)];
        let metrics = end_to_end(Workload::ReadHeavy, &stream, &reps, 64.0);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("setup_s").value, 2.0);
        // 40 requests, each client 20 x 100 µs at its fastest.
        assert_eq!(get("ops_per_s").value, 40.0 / 0.002);
        assert_eq!(get("cpu_us_per_op").value, 200.0);
        assert_eq!(get("point_query_p50_us").value, 100.0);
        assert_eq!(get("point_query_p50_us").samples, 28 * 3);
        // read_heavy's main phase has no commits: they come from the second
        // loading connection.
        assert_eq!(get("commit_p50_us").samples, loads * 3);
        assert_eq!(get("commit_p99_us").samples, loads * 3);
        assert!(get("commit_p50_us").value >= 1000.0);
        assert_eq!(get("journal_bytes_per_commit").value, 300.0);
        assert_eq!(get("peak_rss_mb").value, 64.0);
        assert_eq!(metrics.len(), spec::END_TO_END.len());
    }

    #[test]
    fn the_cpu_share_is_the_median_repetition_s_and_only_flush_bound_is_held_to_it() {
        let rep = |cpu: f64| Rep {
            main_wall_s: 2.0,
            main_cpu_s: cpu,
            ..Rep::default()
        };
        // One repetition in a slow stretch does not move the median.
        let reps = [rep(1.0), rep(3.0), rep(1.2)];
        assert_eq!(cpu_share(&reps), 1.2 / 4.0);
        assert_eq!(cpu_share(&[]), 0.0);
        let over = spec::FLUSH_BOUND_MAX_CPU_SHARE + 0.01;
        assert!(cpu_share_violation(Workload::FlushBound, over).is_some());
        assert!(cpu_share_violation(Workload::FlushBound, 0.3).is_none());
        assert!(cpu_share_violation(Workload::WriteHeavy, 0.9).is_none());
    }

    #[test]
    fn a_count_that_differs_between_repetitions_is_a_violation() {
        let rep = |exact: &[(&str, u64)]| Rep {
            exact: exact.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Rep::default()
        };
        let same = [rep(&[("a", 1), ("b", 2)]), rep(&[("a", 1), ("b", 2)])];
        assert!(determinism_violations(&same).is_empty());
        let differ = [rep(&[("a", 1), ("b", 2)]), rep(&[("a", 1), ("b", 3)])];
        assert_eq!(determinism_violations(&differ).len(), 1);
        let missing = [rep(&[("a", 1)]), rep(&[])];
        assert_eq!(determinism_violations(&missing).len(), 1);
    }
}
