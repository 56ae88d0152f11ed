//! The frozen definition of the benchmark: workloads, dataset sizes, op
//! counts, metric names, units and regression bounds. `BENCHMARK.json` at the
//! repository root is generated from this file (`pxbench --benchmark-json`)
//! and a unit test keeps the two identical.
//!
//! A change that claims a performance gain may not edit this file, the rest
//! of this directory, or `BENCHMARK.json` (see README.md).

use std::time::Duration;

use crate::stats::Better;

/// The one tenant every benchmark document lives in.
pub const TENANT: &str = "bench";
/// The tenant of the possible-worlds oracle document.
pub const ORACLE_TENANT: &str = "oracle";
/// Closed-loop client connections driving the server. Fixed at two: the
/// paper's modules each wait for their reply (closed loop), the seed machine
/// has two cores, and one client alone measures idle-core wake-ups rather
/// than the program (see README "Clients").
pub const CLIENTS: usize = 2;
/// Socket read/write deadline of every client request; a request that
/// overruns it is a failed operation.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Seed of the *structure* of the static datasets (which person receives
/// which kind of extraction update, in which order). Fixed, because the cost
/// of `person { phone }` swings by 6x with that structure (README "The
/// cliff"); `--seed` re-draws every confidence and the whole timed op
/// stream instead.
pub const DATASET_SEED: u64 = 0x5EED_D1DC;
/// The `--seconds` value `BENCHMARK.json` fixes for the driver.
pub const RUN_SECONDS: u32 = 15;
/// Seconds of timed main phase one repetition of the frozen op counts takes
/// on the 2-core seed machine (three repetitions make the issue's ten
/// seconds).
pub const SECONDS_PER_REPETITION: f64 = 10.0 / 3.0;
/// Server restarts timed at the end of each repetition.
pub const RESTARTS_PER_REPETITION: usize = 6;
/// Share of the untraced op counts the traced run replays.
pub const TRACE_SCALE: f64 = 0.2;
/// Simulated device flush latency and group window of `flush_bound`.
pub const FLUSH_LATENCY: Duration = Duration::from_millis(5);
pub const FLUSH_WINDOW_BATCHES: usize = 8;
/// Ceiling on `flush_bound`'s CPU share ([`crate::report::cpu_share`]:
/// process CPU time at the reference machine speed over the clients' total
/// closed-loop time, the median repetition's). At the frozen sizing the
/// share measures 19-28 %; the issue's sizing, which was not flush-bound at
/// all, measured 55 %. Above the ceiling the requests compute nearly as long
/// as they wait, the device model no longer sets the pace, and the workload
/// has stopped measuring what it is for.
pub const FLUSH_BOUND_MAX_CPU_SHARE: f64 = 0.40;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ReadHeavy,
    WriteHeavy,
    MixedRw,
    FlushBound,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadHeavy,
        Workload::WriteHeavy,
        Workload::MixedRw,
        Workload::FlushBound,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHeavy => "read_heavy",
            Workload::WriteHeavy => "write_heavy",
            Workload::MixedRw => "mixed_rw",
            Workload::FlushBound => "flush_bound",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadHeavy => {
                "queries only on static documents: snapshots never change, so per-snapshot caches and indexes must win here"
            }
            Workload::WriteHeavy => {
                "sync commits to private documents: commit path is CPU-bound (apply, simplify, journal), read caches must move nothing"
            }
            Workload::MixedRw => {
                "90% queries beside 10% commits on shared documents: every publish invalidates per-snapshot state; the MVCC guard"
            }
            Workload::FlushBound => {
                "grouped commits behind a 5 ms simulated flush: the device sets the pace, CPU-path changes must predict no change"
            }
        }
    }

    /// Whether the main phase issues queries; when it does not, query
    /// latencies are sampled in a read-back phase after it.
    pub fn main_has_queries(self) -> bool {
        matches!(self, Workload::ReadHeavy | Workload::MixedRw)
    }

    /// Whether the main phase issues sync commits; when it does not
    /// (`read_heavy`), commit latencies are sampled in the load phase.
    pub fn main_has_commits(self) -> bool {
        !matches!(self, Workload::ReadHeavy)
    }
}

/// Size of one people-directory dataset: people in the initial document and
/// extraction updates committed on top during the load phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSize {
    pub people: usize,
    pub updates: usize,
}

pub const DIR_LARGE: DatasetSize = DatasetSize {
    people: 400,
    updates: 300,
};
/// Kept below the BDD cliff on purpose — do not enlarge it.
pub const DIR_HOT: DatasetSize = DatasetSize {
    people: 100,
    updates: 200,
};
pub const DIR_W: DatasetSize = DatasetSize {
    people: 200,
    updates: 0,
};
pub const FB: DatasetSize = DatasetSize {
    people: 20,
    updates: 0,
};
/// `fb-*` documents per client. Many and small on purpose: a commit costs
/// CPU in proportion to its document, and at ~70 phone inserts per document
/// a commit stays near its floor (~0.4 ms), far below the 5 ms flush. The
/// issue's sizing (four documents per client, 750 inserts each) measured
/// 110 % CPU of wall — not flush-bound at all (README "flush_bound").
pub const FB_DOCS_PER_CLIENT: usize = 24;

/// How `--seconds` becomes work: whole repetitions of the frozen op stream
/// (more seconds, more repetitions from identical fresh state — the op
/// counts, and with them document growth, stay as frozen), with the counts
/// scaled only by what rounding to whole repetitions leaves over.
pub fn repetitions_for(seconds: f64) -> (usize, crate::ops::Scale) {
    let repetitions = ((seconds / SECONDS_PER_REPETITION).round() as usize).max(1);
    let scale = crate::ops::Scale {
        ops: seconds / (repetitions as f64 * SECONDS_PER_REPETITION),
        datasets: 1.0,
    };
    (repetitions, scale)
}

/// Main-phase operations per client per repetition (frozen; see
/// [`repetitions_for`]).
pub fn main_ops_per_client(workload: Workload) -> usize {
    match workload {
        Workload::ReadHeavy => 4500,
        Workload::WriteHeavy => 900,
        Workload::MixedRw => 2300,
        Workload::FlushBound => 1680,
    }
}

/// Read-back queries per client per repetition (write workloads only), same
/// scaling: 400 broad queries per repetition, 40 requests beyond the 99th
/// percentile.
pub const READBACK_QUERIES_PER_CLIENT: usize = 2000;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The ten end-to-end metrics. Every workload reports every one of them;
/// README "Metrics" says from which phase each workload takes each, and why
/// nearly every bound sits at the contract's ceiling of 25 %. The issue's
/// eleventh, `recovery_ms`, could not hold even that on the seed machine
/// and is reported per layer instead, under the same name.
pub const END_TO_END: [MetricSpec; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("point_query_p50_us", "us", Better::Lower, 0.25),
    e2e("broad_query_p50_us", "us", Better::Lower, 0.25),
    e2e("query_p99_us", "us", Better::Lower, 0.25),
    e2e("commit_p50_us", "us", Better::Lower, 0.25),
    e2e("commit_p99_us", "us", Better::Lower, 0.25),
    e2e("journal_bytes_per_commit", "bytes", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// Query classes, in the order their per-class layer metrics are listed.
pub const CLASS_NAMES: [&str; 3] = ["point", "scan", "broad"];

/// Per-layer metrics whose value depends on the query class: reported once
/// pooled over all queries (the bare name) and once per class (the name
/// with `.point` / `.scan` / `.broad` appended).
pub const PER_CLASS_LAYER: [MetricSpec; 9] = [
    layer("server.wire_residual_us", "us", Better::Lower),
    layer("query.match_us", "us", Better::Lower),
    layer("query.matches_per_query", "count", Better::Lower),
    layer("core.query_us", "us", Better::Lower),
    layer("event.selection_us", "us", Better::Lower),
    layer("event.merge_us", "us", Better::Lower),
    layer("event.bdd_nodes", "count", Better::Lower),
    layer("tree.answers_xml_us", "us", Better::Lower),
    layer("warehouse.query_inproc_us", "us", Better::Lower),
];

/// Per-layer metrics reported once.
pub const POOLED_LAYER: [MetricSpec; 32] = [
    layer("recovery_ms", "ms", Better::Lower),
    layer("server.frame_us", "us", Better::Lower),
    layer("server.tenant_open_us", "us", Better::Lower),
    layer("server.busy_shed", "count", Better::Lower),
    layer("query.parse_us", "us", Better::Lower),
    layer("core.apply_us", "us", Better::Lower),
    layer("core.simplify_us", "us", Better::Lower),
    layer("core.doc_nodes", "count", Better::Lower),
    layer("core.doc_events", "count", Better::Lower),
    layer("core.doc_literals", "count", Better::Lower),
    layer("tree.clone_us", "us", Better::Lower),
    layer("tree.chunk_copies_per_commit", "count", Better::Lower),
    layer("store.batch_encode_us", "us", Better::Lower),
    layer("store.batch_decode_us", "us", Better::Lower),
    layer("store.append_us", "us", Better::Lower),
    layer("store.append_mem_us", "us", Better::Lower),
    layer("store.checkpoint_us", "us", Better::Lower),
    layer("store.checkpoint_serialize_us", "us", Better::Lower),
    layer("store.checkpoints", "count", Better::Lower),
    layer("store.recover_us", "us", Better::Lower),
    layer("store.checkpoint_parse_us", "us", Better::Lower),
    layer("store.journal_bytes", "count", Better::Lower),
    layer("store.disk_bytes_per_doc_byte", "ratio", Better::Lower),
    layer("store.fsyncs_per_commit", "ratio", Better::Lower),
    layer("store.window_occupancy", "ratio", Better::Higher),
    layer("warehouse.pin_us", "us", Better::Lower),
    layer("warehouse.query_self_us", "us", Better::Lower),
    layer("warehouse.commit_inproc_us", "us", Better::Lower),
    layer("warehouse.commit_self_us", "us", Better::Lower),
    layer("warehouse.open_us", "us", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
];

/// Every per-layer metric, in `BENCHMARK.json` order: pooled ones, then each
/// class-dependent one followed by its three per-class variants.
pub fn per_layer() -> Vec<(String, MetricSpec)> {
    let mut all: Vec<(String, MetricSpec)> = POOLED_LAYER
        .iter()
        .map(|spec| (spec.name.to_string(), *spec))
        .collect();
    for spec in PER_CLASS_LAYER {
        all.push((spec.name.to_string(), spec));
        for class in CLASS_NAMES {
            all.push((format!("{}.{class}", spec.name), spec));
        }
    }
    all
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmarks/pxbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmarks/pxbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&end_to_end.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, m)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_at_the_repository_root_is_generated_from_this_file() {
        let committed = include_str!("../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `pxbench --benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for workload in Workload::ALL {
            assert!(name_ok(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert!(seen.insert(workload.name().to_string()));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        for metric in END_TO_END {
            assert!(name_ok(metric.name) && unit_ok(metric.unit));
            let bound = metric.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(seen.insert(metric.name.to_string()));
        }
        let layers = per_layer();
        assert!(!layers.is_empty() && layers.len() <= 128);
        for (name, metric) in &layers {
            assert!(name_ok(name) && unit_ok(metric.unit), "{name}");
            assert!(metric.bound.is_none());
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert!(benchmark_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn seconds_become_whole_repetitions_of_nearly_frozen_counts() {
        let (repetitions, scale) = repetitions_for(10.0);
        assert_eq!(repetitions, 3);
        assert!((scale.ops - 1.0).abs() < 1e-12);
        let (repetitions, scale) = repetitions_for(f64::from(RUN_SECONDS));
        assert_eq!(repetitions, 5);
        assert!((scale.ops - 0.9).abs() < 1e-9);
        let (repetitions, scale) = repetitions_for(1.0);
        assert_eq!(repetitions, 1);
        assert!((scale.ops - 0.3).abs() < 1e-12);
    }
}
