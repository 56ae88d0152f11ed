//! Seeded op streams: the documents a workload loads and the fixed sequence
//! of requests each client sends. Everything the server receives is generated
//! here from `--seed`; the same seed gives the same frames in the same
//! per-client order.
//!
//! Streams are fixed *counts*, not durations, so document growth and every
//! exact count are identical on both sides of a comparison.

use pxml_core::UpdateTransaction;
use pxml_gen::scenarios::ExtractionKind;
use pxml_gen::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml_tree::write_data_tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{self, DatasetSize, Workload};

/// The three query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `person { name[="<seeded name>"], phone }` — one person's phones.
    Point,
    /// `person { name, email }` — every person with an e-mail.
    Scan,
    /// `person { phone }` — every phone; the BDD-heavy class.
    Broad,
}

impl Class {
    pub fn name(self) -> &'static str {
        spec::CLASS_NAMES[self as usize]
    }
}

/// One request of a client's stream. `doc` indexes [`OpStream::docs`].
#[derive(Debug, Clone)]
pub enum Op {
    Query {
        class: Class,
        doc: usize,
        pattern: String,
    },
    Commit {
        doc: usize,
        update: UpdateTransaction,
        /// `true` for `Client::commit` (acknowledged when durable), `false`
        /// for `Client::commit_async` (acknowledged at enqueue).
        sync: bool,
    },
}

/// What a request is, for choosing which metric its latency feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query(Class),
    SyncCommit,
    AsyncCommit,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Query { class, .. } => Kind::Query(*class),
            Op::Commit { sync: true, .. } => Kind::SyncCommit,
            Op::Commit { sync: false, .. } => Kind::AsyncCommit,
        }
    }
}

/// A document of the workload: its initial content and the extraction
/// updates the load phase commits on top, one single-update batch each.
#[derive(Debug, Clone)]
pub struct DocPlan {
    pub name: String,
    pub initial_xml: String,
    pub load: Vec<UpdateTransaction>,
}

/// Everything one repetition sends, in order.
#[derive(Debug, Clone)]
pub struct OpStream {
    pub docs: Vec<DocPlan>,
    /// The timed main phase, one stream per client.
    pub main: Vec<Vec<Op>>,
    /// The read-back phase of the write workloads, one stream per client;
    /// empty streams when the main phase already issues queries.
    pub readback: Vec<Vec<Op>>,
}

/// How far a run shrinks the frozen sizes: `ops` multiplies op counts
/// (`--seconds`, the traced run, `--smoke`), `datasets` multiplies dataset
/// sizes (`--smoke` only — every measured run uses the frozen datasets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub ops: f64,
    pub datasets: f64,
}

impl Scale {
    pub fn ops(self, count: usize) -> usize {
        ((count as f64 * self.ops).round() as usize).max(1)
    }

    fn dataset(self, size: DatasetSize) -> DatasetSize {
        DatasetSize {
            people: ((size.people as f64 * self.datasets).round() as usize).max(2),
            updates: (size.updates as f64 * self.datasets).round() as usize,
        }
    }
}

fn scenario(people: usize) -> PeopleScenarioConfig {
    PeopleScenarioConfig {
        people,
        ..PeopleScenarioConfig::default()
    }
}

/// The person names of a directory, read back from the generated document so
/// the benchmark does not re-derive the generator's naming scheme.
fn names_of(people: usize) -> Vec<String> {
    let tree = people_directory(&scenario(people));
    tree.find_elements("name")
        .into_iter()
        .map(|node| {
            tree.node_value(node)
                .expect("every generated name has a value")
                .to_string()
        })
        .collect()
}

/// The person an extraction update targets: the one value test of its
/// pattern.
fn target_name(update: &UpdateTransaction) -> &str {
    let pattern = update.pattern();
    pattern
        .node_ids()
        .find_map(|id| pattern.node(id).value.as_deref())
        .expect("every extraction update selects a person by name")
}

/// Which client may update a person on a shared document. Partitioning the
/// people keeps the two clients' commits commutative, so the final document
/// (and every exact count) does not depend on how their requests interleave.
fn owner(name: &str) -> usize {
    name.bytes().map(usize::from).sum::<usize>() % spec::CLIENTS
}

/// Draws extraction updates until one passes `accept`.
fn draw_update(
    rng: &mut StdRng,
    config: &PeopleScenarioConfig,
    accept: impl Fn(&UpdateTransaction, ExtractionKind) -> bool,
) -> UpdateTransaction {
    loop {
        let (update, kind) = extraction_update(rng, config);
        if accept(&update, kind) {
            return update;
        }
    }
}

/// A static dataset: structure from the frozen [`spec::DATASET_SEED`],
/// confidences re-drawn from the run's seed (a confidence changes every
/// probability the server reports but not the shape of any condition, so
/// cost stays put while answers vary with `--seed`).
fn dataset(name: &str, size: DatasetSize, structure_seed: u64, values: &mut StdRng) -> DocPlan {
    let config = scenario(size.people);
    let mut structure = StdRng::seed_from_u64(structure_seed);
    let load = (0..size.updates)
        .map(|_| {
            let (update, _) = extraction_update(&mut structure, &config);
            let confidence = values.gen_range(config.min_confidence..=config.max_confidence);
            update
                .with_confidence(confidence)
                .expect("confidence drawn from the scenario's valid range")
        })
        .collect();
    DocPlan {
        name: name.to_string(),
        initial_xml: write_data_tree(&people_directory(&config), false),
        load,
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Slots of one block of a query mix: 70 % point, 20 % scan, 10 % broad.
const QUERY_BLOCK: [Class; 10] = [
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Point,
    Class::Scan,
    Class::Scan,
    Class::Broad,
];

/// Where each query class is sent and whose names point queries draw.
struct QueryTargets {
    point_doc: usize,
    point_names: Vec<String>,
    scan_doc: usize,
    broad_doc: usize,
}

impl QueryTargets {
    fn op(&self, class: Class, rng: &mut StdRng) -> Op {
        let (doc, pattern) = match class {
            Class::Point => {
                let name = &self.point_names[rng.gen_range(0..self.point_names.len())];
                (
                    self.point_doc,
                    format!("person {{ name[=\"{name}\"], phone }}"),
                )
            }
            Class::Scan => (self.scan_doc, "person { name, email }".to_string()),
            Class::Broad => (self.broad_doc, "person { phone }".to_string()),
        };
        Op::Query {
            class,
            doc,
            pattern,
        }
    }
}

/// `count` queries in exact 70/20/10 shares, shuffled within blocks of ten
/// so the shares hold over any long window and do not drift with the seed.
fn query_stream(count: usize, targets: &QueryTargets, rng: &mut StdRng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count + QUERY_BLOCK.len());
    while ops.len() < count {
        let mut block = QUERY_BLOCK;
        shuffle(&mut block, rng);
        ops.extend(block.iter().map(|class| targets.op(*class, rng)));
    }
    ops.truncate(count);
    ops
}

/// Per-client generator seed: distinct streams per client, one `--seed`.
fn client_seed(seed: u64, client: usize, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64 + 1) << 32)
}

/// Builds the op stream of one repetition of `workload`.
pub fn build(workload: Workload, seed: u64, scale: Scale) -> OpStream {
    let mut values = StdRng::seed_from_u64(seed);
    let main_ops = scale.ops(spec::main_ops_per_client(workload));
    let readback_ops = scale.ops(spec::READBACK_QUERIES_PER_CLIENT);
    let large = scale.dataset(spec::DIR_LARGE);
    let hot = scale.dataset(spec::DIR_HOT);
    let mut docs = Vec::new();
    let mut main = Vec::new();
    let mut readback = vec![Vec::new(); spec::CLIENTS];

    match workload {
        Workload::ReadHeavy | Workload::MixedRw => {
            docs.push(dataset("dir-large", large, spec::DATASET_SEED, &mut values));
            docs.push(dataset("dir-hot", hot, spec::DATASET_SEED + 1, &mut values));
            let targets = QueryTargets {
                point_doc: 0,
                point_names: names_of(large.people),
                scan_doc: 0,
                broad_doc: 1,
            };
            for client in 0..spec::CLIENTS {
                let mut rng = StdRng::seed_from_u64(client_seed(seed, client, 1));
                if workload == Workload::ReadHeavy {
                    main.push(query_stream(main_ops, &targets, &mut rng));
                    continue;
                }
                // mixed_rw: blocks of 100 = 90 queries in the usual shares
                // + 5 full-mix commits to dir-large + 5 e-mail/city commits
                // to dir-hot. No phone ever reaches dir-hot here, so the
                // broad query's condition set stays where the load phase
                // left it (off the cliff) while every commit still
                // publishes a new snapshot and grows the event table.
                let large_config = scenario(large.people);
                let hot_config = scenario(hot.people);
                let mut ops = Vec::with_capacity(main_ops + 100);
                while ops.len() < main_ops {
                    let mut block = query_stream(90, &targets, &mut rng);
                    for _ in 0..5 {
                        block.push(Op::Commit {
                            doc: 0,
                            update: draw_update(&mut rng, &large_config, |update, _| {
                                owner(target_name(update)) == client
                            }),
                            sync: true,
                        });
                        block.push(Op::Commit {
                            doc: 1,
                            update: draw_update(&mut rng, &hot_config, |update, kind| {
                                matches!(kind, ExtractionKind::Email | ExtractionKind::City)
                                    && owner(target_name(update)) == client
                            }),
                            sync: true,
                        });
                    }
                    shuffle(&mut block, &mut rng);
                    ops.extend(block);
                }
                ops.truncate(main_ops);
                main.push(ops);
            }
        }
        Workload::WriteHeavy => {
            let size = scale.dataset(spec::DIR_W);
            for client in 0..spec::CLIENTS {
                docs.push(dataset(&format!("dir-w{client}"), size, 0, &mut values));
            }
            let config = scenario(size.people);
            for client in 0..spec::CLIENTS {
                let mut rng = StdRng::seed_from_u64(client_seed(seed, client, 2));
                main.push(
                    (0..main_ops)
                        .map(|_| Op::Commit {
                            doc: client,
                            update: draw_update(&mut rng, &config, |_, _| true),
                            sync: true,
                        })
                        .collect(),
                );
            }
        }
        Workload::FlushBound => {
            let size = scale.dataset(spec::FB);
            for index in 0..spec::CLIENTS * spec::FB_DOCS_PER_CLIENT {
                docs.push(dataset(&format!("fb-{index}"), size, 0, &mut values));
            }
            let config = scenario(size.people);
            // Whole bursts only: 7 async commits, then the sync commit whose
            // acknowledgement is the durability barrier for all eight.
            // Burst b writes documents 7b..7b+7 (mod the client's share), so
            // consecutive bursts overlap by one document and the sync commit
            // — the only kind that may fold a journal into a checkpoint —
            // visits every document in turn (7 and the share are coprime).
            let burst = spec::FLUSH_WINDOW_BATCHES;
            let bursts = (main_ops / burst).max(1);
            for client in 0..spec::CLIENTS {
                let mut rng = StdRng::seed_from_u64(client_seed(seed, client, 3));
                main.push(
                    (0..bursts * burst)
                        .map(|i| Op::Commit {
                            doc: client * spec::FB_DOCS_PER_CLIENT
                                + (i / burst * (burst - 1) + i % burst) % spec::FB_DOCS_PER_CLIENT,
                            update: draw_update(&mut rng, &config, |_, kind| {
                                kind == ExtractionKind::Phone
                            }),
                            sync: i % burst == burst - 1,
                        })
                        .collect(),
                );
            }
        }
    }

    if !workload.main_has_queries() {
        // The write workloads sample query latency after their writes, on a
        // static side document none of their commits touch.
        let side = docs.len();
        docs.push(dataset("dir-hot", hot, spec::DATASET_SEED + 1, &mut values));
        let targets = QueryTargets {
            point_doc: side,
            point_names: names_of(hot.people),
            scan_doc: side,
            broad_doc: side,
        };
        for (client, stream) in readback.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(client_seed(seed, client, 4));
            *stream = query_stream(readback_ops, &targets, &mut rng);
        }
    }

    OpStream {
        docs,
        main,
        readback,
    }
}

/// A 64-bit FNV-1a digest of everything the stream will send — the
/// determinism tests compare streams through it.
#[cfg(test)]
pub fn fingerprint(stream: &OpStream) -> u64 {
    use pxml_store::serialize_update;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |text: &str| {
        for byte in text.bytes().chain(std::iter::once(0xff)) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for doc in &stream.docs {
        feed(&doc.name);
        feed(&doc.initial_xml);
        for update in &doc.load {
            feed(&serialize_update(update, false));
        }
    }
    for ops in stream.main.iter().chain(&stream.readback) {
        feed("client");
        for op in ops {
            match op {
                Op::Query {
                    class,
                    doc,
                    pattern,
                } => feed(&format!("q {} {doc} {pattern}", class.name())),
                Op::Commit { doc, update, sync } => feed(&format!(
                    "c {doc} {sync} {}",
                    serialize_update(update, false)
                )),
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale {
        ops: 0.05,
        datasets: 0.1,
    };

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        for workload in Workload::ALL {
            let a = fingerprint(&build(workload, 7, SMALL));
            let b = fingerprint(&build(workload, 7, SMALL));
            let c = fingerprint(&build(workload, 8, SMALL));
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn the_seed_moves_confidences_but_not_dataset_structure() {
        let a = build(Workload::ReadHeavy, 1, SMALL);
        let b = build(Workload::ReadHeavy, 2, SMALL);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.initial_xml, y.initial_xml);
            assert_eq!(x.load.len(), y.load.len());
            for (u, v) in x.load.iter().zip(&y.load) {
                assert_eq!(u.pattern().to_string(), v.pattern().to_string());
                assert_eq!(u.operations().len(), v.operations().len());
            }
            assert!(x
                .load
                .iter()
                .zip(&y.load)
                .any(|(u, v)| u.confidence() != v.confidence()));
        }
    }

    fn class_counts(ops: &[Op]) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for op in ops {
            match op {
                Op::Query { class, .. } => counts[*class as usize] += 1,
                Op::Commit { .. } => counts[3] += 1,
            }
        }
        counts
    }

    #[test]
    fn query_shares_are_exact_over_whole_blocks() {
        let scale = Scale {
            ops: 1000.0 / spec::main_ops_per_client(Workload::ReadHeavy) as f64,
            datasets: 0.1,
        };
        let stream = build(Workload::ReadHeavy, 3, scale);
        assert_eq!(stream.main.len(), spec::CLIENTS);
        for ops in &stream.main {
            assert_eq!(class_counts(ops), [700, 200, 100, 0]);
        }
        assert!(stream.readback.iter().all(Vec::is_empty));
        let scale = Scale {
            ops: 1000.0 / spec::main_ops_per_client(Workload::MixedRw) as f64,
            datasets: 0.1,
        };
        let stream = build(Workload::MixedRw, 3, scale);
        for ops in &stream.main {
            assert_eq!(class_counts(ops), [630, 180, 90, 100]);
        }
    }

    #[test]
    fn shared_documents_are_partitioned_between_the_clients() {
        let stream = build(Workload::MixedRw, 5, SMALL);
        for (client, ops) in stream.main.iter().enumerate() {
            for op in ops {
                if let Op::Commit { update, sync, .. } = op {
                    assert!(sync);
                    assert_eq!(owner(target_name(update)), client);
                }
            }
        }
        let names = names_of(spec::DIR_HOT.people);
        let mine = names.iter().filter(|name| owner(name) == 0).count();
        assert!(
            mine * 3 > names.len() && mine * 3 < names.len() * 2,
            "partition is lopsided: {mine} of {}",
            names.len()
        );
    }

    #[test]
    fn flush_bound_sends_whole_bursts_round_robin_over_private_documents() {
        let stream = build(Workload::FlushBound, 9, SMALL);
        assert_eq!(
            stream.docs.len(),
            spec::CLIENTS * spec::FB_DOCS_PER_CLIENT + 1
        );
        for (client, ops) in stream.main.iter().enumerate() {
            assert_eq!(ops.len() % spec::FLUSH_WINDOW_BATCHES, 0);
            for (i, op) in ops.iter().enumerate() {
                let Op::Commit { doc, sync, update } = op else {
                    panic!("flush_bound's main phase only commits");
                };
                assert_eq!(*doc / spec::FB_DOCS_PER_CLIENT, client);
                assert_eq!(
                    *doc % spec::FB_DOCS_PER_CLIENT,
                    (i / 8 * 7 + i % 8) % spec::FB_DOCS_PER_CLIENT
                );
                assert_eq!(*sync, i % 8 == 7);
                assert_eq!(update.operations().len(), 1);
            }
        }
        // Over one full cycle the sync commit lands on every document once.
        let synced: std::collections::BTreeSet<usize> = (0..spec::FB_DOCS_PER_CLIENT)
            .map(|b| (b * 7 + 7) % spec::FB_DOCS_PER_CLIENT)
            .collect();
        assert_eq!(synced.len(), spec::FB_DOCS_PER_CLIENT);
        // The write workloads read back from the static side document.
        for ops in &stream.readback {
            assert!(!ops.is_empty());
            assert!(ops
                .iter()
                .all(|op| matches!(op, Op::Query { doc, .. } if *doc == stream.docs.len() - 1)));
        }
    }
}
