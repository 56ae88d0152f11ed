//! The traced run: a shadow in-process warehouse kept in lock-step with the
//! server by the same op stream, with a span around every call into a
//! layer's public functions.
//!
//! Nothing inside the engine is instrumented (that is ROADMAP E16, a later
//! change); every span here is recorded from outside, around a public
//! function. A call the engine makes internally — `Pattern::evaluate` inside
//! `FuzzyTree::query`, say — is therefore measured by executing it again,
//! stand-alone, right after its caller returned, and recorded as that
//! caller's child: a parent's self time is its duration minus its
//! children's durations, not interval arithmetic on their timestamps.

use std::collections::BTreeMap;
use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use pxml_core::{FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_event::Bdd;
use pxml_query::Pattern;
use pxml_server::frame::{
    read_request, read_response, split_doc_payload, tag, write_request, write_response,
};
use pxml_server::{RemoteAnswers, DEFAULT_MAX_FRAME_BYTES};
use pxml_store::{
    parse_batch, parse_fuzzy_document, serialize_batch, serialize_fuzzy_document, FsBackend,
    MemBackend, StorageBackend,
};
use pxml_tree::{data_tree_to_xml, parse_data_tree, XmlElement};
use pxml_warehouse::{MergedQuery, SessionConfig, Warehouse};

use crate::ops::Class;
use crate::spec;

/// Wire and shadow must agree on every probability to this tolerance.
const SHADOW_TOLERANCE: f64 = 1e-12;
/// The side store is checkpointed on the session's default cadence.
const CHECKPOINT_EVERY: usize = 64;

/// One recorded interval. `parent` is 0 for a root span; spans of one
/// request share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Collected {
    spans: Vec<Span>,
    samples: BTreeMap<String, Vec<f64>>,
    violations: Vec<String>,
    /// Batches appended to the side store since its last checkpoint, per
    /// document.
    side_batches: BTreeMap<String, usize>,
    journal_bytes: u64,
    compared_answers: u64,
}

/// What the traced run hands back: per-layer samples (microseconds or
/// counts), totals, spans, and any wire-vs-shadow disagreement.
pub struct TraceReport {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub totals: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub violations: Vec<String>,
    pub compared_answers: u64,
}

/// The spans of one request, buffered locally and handed to the tracer in
/// one piece so the two client threads contend on its lock once per op.
struct OpTrace<'a> {
    tracer: &'a Tracer,
    op: u64,
    spans: Vec<Span>,
    samples: Vec<(String, f64)>,
}

impl OpTrace<'_> {
    fn now_ns(&self) -> u64 {
        self.tracer.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `body` inside a span; returns its value, the span's id and its
    /// duration in microseconds.
    fn span<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        body: impl FnOnce() -> T,
    ) -> (T, u32, f64) {
        let start_ns = self.now_ns();
        let value = std::hint::black_box(body());
        let end_ns = self.now_ns();
        let id = self.push(parent, name, start_ns, end_ns);
        (value, id, (end_ns - start_ns) as f64 / 1e3)
    }

    /// A root span for the wire call that just returned `wire_us` ago.
    fn wire_root(&mut self, name: &'static str, wire_us: f64) {
        let end_ns = self.now_ns();
        self.push(
            0,
            name,
            end_ns.saturating_sub((wire_us * 1e3) as u64),
            end_ns,
        );
    }

    fn sample(&mut self, name: &str, value: f64) {
        self.samples.push((name.to_string(), value));
    }

    /// A class-dependent sample: recorded under the bare name and under
    /// `name.<class>`.
    fn class_sample(&mut self, name: &str, class: Class, value: f64) {
        self.sample(name, value);
        self.sample(&format!("{name}.{}", class.name()), value);
    }

    fn finish(self, violations: Vec<String>) {
        let mut collected = self.tracer.lock_collected();
        collected.spans.extend(self.spans);
        for (name, value) in self.samples {
            collected.samples.entry(name).or_default().push(value);
        }
        collected.violations.extend(violations);
    }
}

/// In-memory frame round trip of a request: what the client's
/// `write_request` and the server's `read_request` do to these bytes.
fn frame_request(verb: u8, payload: &[u8]) -> Vec<u8> {
    let mut buffer = Vec::new();
    write_request(&mut buffer, verb, spec::TENANT, payload).expect("writing to memory");
    read_request(&mut Cursor::new(&buffer), DEFAULT_MAX_FRAME_BYTES)
        .expect("a frame just written decodes")
        .payload
}

fn frame_response(verb: u8, payload: &[u8]) -> usize {
    let mut buffer = Vec::new();
    write_response(&mut buffer, verb, payload).expect("writing to memory");
    read_response(&mut Cursor::new(&buffer), DEFAULT_MAX_FRAME_BYTES)
        .expect("a frame just written decodes")
        .payload
        .len()
}

fn tree_xml(tree: &pxml_tree::Tree) -> String {
    let mut xml = String::new();
    data_tree_to_xml(tree).root.write_xml(&mut xml, false, 0);
    xml
}

/// The `answers` frame payload, built the way the server's dispatch does.
fn answers_payload(merged: &MergedQuery) -> String {
    let mut answers = XmlElement::new("pxml:answers")
        .with_attribute("seq", merged.seq.to_string())
        .with_attribute("selection", merged.selection.to_string());
    for (tree, probability) in &merged.answers {
        let answer = XmlElement::new("pxml:answer")
            .with_attribute("probability", probability.to_string())
            .with_child(data_tree_to_xml(tree).root);
        answers = answers.with_child(answer);
    }
    let mut xml = String::new();
    answers.write_xml(&mut xml, false, 0);
    format!("{}\n{}\n{xml}", merged.seq, merged.selection)
}

/// Same answer trees, probabilities within [`SHADOW_TOLERANCE`].
fn compare_answers(pattern: &str, wire: &RemoteAnswers, shadow: &MergedQuery) -> Option<String> {
    if wire.seq != shadow.seq {
        return Some(format!(
            "`{pattern}`: wire answered at seq {} but the shadow is at seq {}",
            wire.seq, shadow.seq
        ));
    }
    if (wire.selection - shadow.selection).abs() > SHADOW_TOLERANCE {
        return Some(format!(
            "`{pattern}`: wire selection {} but shadow selection {}",
            wire.selection, shadow.selection
        ));
    }
    let mut served: Vec<(&str, f64)> = wire
        .answers
        .iter()
        .map(|a| (a.xml.as_str(), a.probability))
        .collect();
    let expected: Vec<(String, f64)> = shadow
        .answers
        .iter()
        .map(|(tree, p)| (tree_xml(tree), *p))
        .collect();
    let mut expected: Vec<(&str, f64)> = expected.iter().map(|(x, p)| (x.as_str(), *p)).collect();
    let by_tree = |a: &(&str, f64), b: &(&str, f64)| a.0.cmp(b.0).then(a.1.total_cmp(&b.1));
    served.sort_by(by_tree);
    expected.sort_by(by_tree);
    if served.len() != expected.len() {
        return Some(format!(
            "`{pattern}`: wire returned {} answers but the shadow {}",
            served.len(),
            expected.len()
        ));
    }
    served
        .iter()
        .zip(&expected)
        .find(|(s, e)| s.0 != e.0 || (s.1 - e.1).abs() > SHADOW_TOLERANCE)
        .map(|(s, e)| {
            format!(
                "`{pattern}`: wire answer {} @ {} but shadow answer {} @ {}",
                s.0, s.1, e.0, e.1
            )
        })
}

/// The shadow side of a traced run.
pub struct Tracer {
    epoch: Instant,
    shadow_root: PathBuf,
    shadow: Warehouse,
    side_fs: FsBackend,
    side_mem: MemBackend,
    /// One lock per document of the op stream: a query holds it shared and a
    /// commit exclusively across *both* the wire call and the shadow replay,
    /// so server and shadow apply commits to a document in the same order
    /// and a query sees the same snapshot on both sides.
    locks: Vec<RwLock<()>>,
    /// Names of the stream's documents, by index, once created.
    doc_names: Mutex<Vec<Option<String>>>,
    next_op: AtomicU64,
    collected: Mutex<Collected>,
}

impl Tracer {
    /// A shadow warehouse over `scratch/shadow` (default session: sync
    /// commits, inline simplification, compaction every 64 batches) plus the
    /// side stores the append and checkpoint probes write to.
    pub fn new(scratch: &Path, docs: usize) -> Tracer {
        let shadow_root = scratch.join("shadow");
        let shadow = Warehouse::with_config(&shadow_root, SessionConfig::default())
            .expect("shadow warehouse opens on a fresh directory");
        let side_fs =
            FsBackend::open(scratch.join("side")).expect("side store opens on a fresh directory");
        Tracer {
            epoch: Instant::now(),
            shadow_root,
            shadow,
            side_fs,
            side_mem: MemBackend::new(),
            locks: (0..docs).map(|_| RwLock::new(())).collect(),
            doc_names: Mutex::new(vec![None; docs]),
            next_op: AtomicU64::new(1),
            collected: Mutex::new(Collected::default()),
        }
    }

    fn lock_collected(&self) -> std::sync::MutexGuard<'_, Collected> {
        self.collected
            .lock()
            .expect("no tracer method panics while holding the collection lock")
    }

    pub fn lock_shared(&self, doc: usize) -> RwLockReadGuard<'_, ()> {
        self.locks[doc]
            .read()
            .expect("lock-step locks guard no data and cannot be left inconsistent")
    }

    pub fn lock_exclusive(&self, doc: usize) -> RwLockWriteGuard<'_, ()> {
        self.locks[doc]
            .write()
            .expect("lock-step locks guard no data and cannot be left inconsistent")
    }

    fn begin(&self) -> OpTrace<'_> {
        OpTrace {
            tracer: self,
            op: self.next_op.fetch_add(1, Ordering::Relaxed),
            spans: Vec::with_capacity(16),
            samples: Vec::with_capacity(32),
        }
    }

    /// Creates `doc` in the shadow and the side stores, as `open` did on the
    /// server.
    pub fn create(&self, index: usize, doc: &str, initial_xml: &str) {
        let tree = parse_data_tree(initial_xml).expect("generated documents parse");
        let fuzzy = FuzzyTree::from_tree(tree.clone());
        self.shadow
            .create_document(doc, tree)
            .expect("shadow accepts a fresh document");
        self.side_fs
            .save_document(doc, &fuzzy)
            .expect("side store accepts a fresh document");
        self.side_mem
            .save_document(doc, &fuzzy)
            .expect("memory store accepts a fresh document");
        self.doc_names
            .lock()
            .expect("name list is only assigned to")[index] = Some(doc.to_string());
    }

    /// Replays a query layer by layer, in the order the server's dispatch
    /// calls them, and compares the wire reply with the shadow's.
    pub fn replay_query(
        &self,
        class: Class,
        doc: &str,
        pattern_text: &str,
        reply: Option<(&RemoteAnswers, f64)>,
    ) {
        let Some((reply, wire_us)) = reply else {
            return;
        };
        let mut op = self.begin();
        op.wire_root("wire.query", wire_us);
        let shadow_start = op.now_ns();
        let root = op.push(0, "shadow.query", shadow_start, shadow_start);

        let payload = format!("{doc}\n{pattern_text}");
        let (request, _, frame_in_us) = op.span(root, "server.frame", || {
            frame_request(tag::QUERY, payload.as_bytes())
        });
        let (doc_name, rest) = split_doc_payload(&request).expect("payload written above");
        let (pattern, _, parse_us) = op.span(root, "query.parse", || {
            Pattern::parse(rest.trim()).expect("generated patterns parse")
        });
        let (merged, merged_id, inproc_us) = op.span(root, "warehouse.query_merged", || {
            self.shadow
                .query_merged(&doc_name, &pattern)
                .expect("shadow holds every document of the stream")
        });
        // query_merged's own callees, re-executed stand-alone (module docs).
        let (snapshot, _, pin_us) = op.span(merged_id, "warehouse.pin", || {
            self.shadow
                .snapshot(&doc_name)
                .expect("shadow holds every document of the stream")
        });
        let fuzzy = snapshot.fuzzy();
        let (result, core_id, core_us) = op.span(merged_id, "core.query", || fuzzy.query(&pattern));
        let (matched, _, match_us) =
            op.span(core_id, "query.match", || pattern.evaluate(fuzzy.tree()));
        let (_, _, selection_us) = op.span(merged_id, "event.selection", || {
            result.selection_probability(fuzzy.events())
        });
        let (_, _, merge_us) = op.span(merged_id, "event.merge", || {
            result.merged_answers(fuzzy.events())
        });
        let bdd_nodes = {
            let mut bdd = Bdd::new();
            bdd.any_of(result.matches.iter().map(|m| &m.condition));
            bdd.node_count()
        };
        let (answers, _, xml_us) = op.span(root, "tree.answers_xml", || answers_payload(&merged));
        let (_, _, frame_out_us) = op.span(root, "server.frame", || {
            frame_response(tag::ANSWERS, answers.as_bytes())
        });
        let shadow_end = op.now_ns();
        op.spans[root as usize - 1].end_ns = shadow_end;

        let frame_us = frame_in_us + frame_out_us;
        op.sample("server.frame_us", frame_us);
        op.sample("query.parse_us", parse_us);
        op.sample("warehouse.pin_us", pin_us);
        op.sample(
            "warehouse.query_self_us",
            inproc_us - core_us - selection_us - merge_us,
        );
        op.class_sample("warehouse.query_inproc_us", class, inproc_us);
        op.class_sample("query.match_us", class, match_us);
        op.class_sample("query.matches_per_query", class, matched.len() as f64);
        op.class_sample("core.query_us", class, core_us - match_us);
        op.class_sample("event.selection_us", class, selection_us);
        op.class_sample("event.merge_us", class, merge_us);
        op.class_sample("event.bdd_nodes", class, bdd_nodes as f64);
        op.class_sample("tree.answers_xml_us", class, xml_us);
        op.class_sample(
            "server.wire_residual_us",
            class,
            wire_us - (frame_us + parse_us + inproc_us + xml_us),
        );

        let violation = compare_answers(pattern_text, reply, &merged);
        self.lock_collected().compared_answers += 1;
        op.finish(violation.into_iter().collect());
    }

    /// Replays a commit layer by layer and applies it to the shadow.
    pub fn replay_commit(
        &self,
        doc: &str,
        update: &UpdateTransaction,
        sync: bool,
        wire_us: Option<f64>,
    ) {
        let Some(wire_us) = wire_us else {
            self.lock_collected().violations.push(format!(
                "a commit to {doc} failed on the wire; the shadow can no longer follow"
            ));
            return;
        };
        let mut op = self.begin();
        op.wire_root(
            if sync {
                "wire.commit"
            } else {
                "wire.commit_async"
            },
            wire_us,
        );
        let shadow_start = op.now_ns();
        let root = op.push(0, "shadow.commit", shadow_start, shadow_start);

        let batch = std::slice::from_ref(update);
        let (text, _, encode_us) = op.span(root, "store.batch_encode", || serialize_batch(batch));
        let payload = format!("{doc}\n{text}");
        let verb = if sync { tag::COMMIT } else { tag::COMMIT_ASYNC };
        let (request, _, frame_in_us) = op.span(root, "server.frame", || {
            frame_request(verb, payload.as_bytes())
        });
        let (doc_name, rest) = split_doc_payload(&request).expect("payload written above");
        let (decoded, _, decode_us) = op.span(root, "store.batch_decode", || {
            parse_batch(&rest).expect("a batch just serialized parses")
        });

        // commit_batch's own callees, re-executed stand-alone on clones of
        // the base snapshot before the real shadow commit below.
        let base = self
            .shadow
            .snapshot(&doc_name)
            .expect("shadow holds every document of the stream");
        let (mut plain, _, clone_us) = op.span(root, "tree.clone", || base.fuzzy().clone());
        let (_, _, apply_us) = op.span(root, "core.apply", || {
            decoded[0]
                .apply_to_fuzzy_with(&mut plain, SimplifyPolicy::Never)
                .expect("generated updates apply")
        });
        let mut working = base.fuzzy().clone();
        let copies_before = working.tree().chunk_copies();
        let (_, _, inline_us) = op.span(root, "core.apply_inline", || {
            decoded[0]
                .apply_to_fuzzy_with(&mut working, SimplifyPolicy::Inline)
                .expect("generated updates apply")
        });
        // An arena rebuild restarts the counter; such a commit reports 0.
        let chunk_copies = working.tree().chunk_copies().saturating_sub(copies_before);

        let journal_before = self.side_fs.journal_size_bytes(&doc_name).unwrap_or(0);
        let (_, _, append_us) = op.span(root, "store.append", || {
            self.side_fs
                .append_batch(&doc_name, &decoded)
                .expect("side store appends")
        });
        let journal_after = self.side_fs.journal_size_bytes(&doc_name).unwrap_or(0);
        let (_, _, append_mem_us) = op.span(root, "store.append_mem", || {
            self.side_mem
                .append_batch(&doc_name, &decoded)
                .expect("memory store appends")
        });
        let checkpoint_due = {
            let mut collected = self.lock_collected();
            collected.journal_bytes += journal_after.saturating_sub(journal_before);
            let batches = collected.side_batches.entry(doc_name.clone()).or_default();
            *batches += 1;
            let due = *batches >= CHECKPOINT_EVERY;
            if due {
                *batches = 0;
            }
            due
        };
        if checkpoint_due {
            let (_, _, serialize_us) = op.span(root, "store.checkpoint_serialize", || {
                serialize_fuzzy_document(&working, false)
            });
            let (_, _, checkpoint_us) = op.span(root, "store.checkpoint", || {
                self.side_fs
                    .checkpoint(&doc_name, &working)
                    .expect("side store checkpoints")
            });
            self.side_mem
                .checkpoint(&doc_name, &working)
                .expect("memory store checkpoints");
            op.sample("store.checkpoint_serialize_us", serialize_us);
            op.sample("store.checkpoint_us", checkpoint_us);
        }

        let (_, _, inproc_us) = op.span(root, "warehouse.commit_batch", || {
            self.shadow
                .commit_batch(&doc_name, &decoded, None)
                .expect("shadow commits what the server committed")
        });
        let (_, _, frame_out_us) = op.span(root, "server.frame", || {
            frame_response(tag::OK, b"applied=1")
        });
        let shadow_end = op.now_ns();
        op.spans[root as usize - 1].end_ns = shadow_end;

        op.sample("server.frame_us", frame_in_us + frame_out_us);
        op.sample("store.batch_encode_us", encode_us);
        op.sample("store.batch_decode_us", decode_us);
        op.sample("tree.clone_us", clone_us);
        op.sample("core.apply_us", apply_us);
        op.sample("core.simplify_us", inline_us - apply_us);
        op.sample("tree.chunk_copies_per_commit", chunk_copies as f64);
        op.sample("store.append_us", append_us);
        op.sample("store.append_mem_us", append_mem_us);
        op.sample("warehouse.commit_inproc_us", inproc_us);
        op.sample(
            "warehouse.commit_self_us",
            inproc_us - inline_us - append_us,
        );
        op.finish(Vec::new());
    }

    /// Shadow and server must agree on every document's sequence number and
    /// node, event and literal counts once the workload is over.
    pub fn compare_final_state(&self, served: &[Option<(u64, FuzzyTree)>]) -> Vec<String> {
        let names = self
            .doc_names
            .lock()
            .expect("name list is only assigned to");
        let mut violations = Vec::new();
        for (name, state) in names.iter().zip(served) {
            let (Some(name), Some((seq, fuzzy))) = (name, state) else {
                continue;
            };
            let shadow = self
                .shadow
                .snapshot(name)
                .expect("shadow holds every document of the stream");
            let ours = (
                shadow.seq(),
                shadow.fuzzy().node_count(),
                shadow.fuzzy().event_count(),
                shadow.fuzzy().condition_literal_count(),
            );
            let theirs = (
                *seq,
                fuzzy.node_count(),
                fuzzy.event_count(),
                fuzzy.condition_literal_count(),
            );
            if ours != theirs {
                violations.push(format!(
                    "{name}: server (seq, nodes, events, literals) = {theirs:?} but shadow = {ours:?}"
                ));
            }
        }
        violations
    }

    /// End-of-workload probes (checkpoint parse, store recovery, warehouse
    /// open over the finished shadow root), then everything collected.
    pub fn finish(self) -> TraceReport {
        let names: Vec<String> = self
            .doc_names
            .into_inner()
            .expect("name list is only assigned to")
            .into_iter()
            .flatten()
            .collect();
        let mut collected = self
            .collected
            .into_inner()
            .expect("no tracer method panics while holding the collection lock");
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        let mut op = 0u64;
        // Times `body` as a root span `name` and as a sample of `<name>_us`.
        let mut probe = |name: &'static str, samples: &mut Collected, body: &mut dyn FnMut()| {
            op += 1;
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            body();
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            samples
                .samples
                .entry(format!("{name}_us"))
                .or_default()
                .push((end_ns - start_ns) as f64 / 1e3);
            samples.spans.push(Span {
                // Probe spans get op ids from the top of the range so they
                // never collide with request ids.
                op: u64::MAX - op,
                id: 1,
                parent: 0,
                name,
                start_ns,
                end_ns,
            });
        };
        for name in &names {
            let snapshot = self
                .shadow
                .snapshot(name)
                .expect("shadow holds every document of the stream");
            let fuzzy = snapshot.fuzzy();
            *totals.entry("core.doc_nodes".into()).or_default() += fuzzy.node_count() as f64;
            *totals.entry("core.doc_events".into()).or_default() += fuzzy.event_count() as f64;
            *totals.entry("core.doc_literals".into()).or_default() +=
                fuzzy.condition_literal_count() as f64;
            let text = serialize_fuzzy_document(fuzzy, false);
            probe("store.checkpoint_parse", &mut collected, &mut || {
                std::hint::black_box(
                    parse_fuzzy_document(&text).expect("a document just serialized parses"),
                );
            });
        }
        totals.insert("store.journal_bytes".into(), collected.journal_bytes as f64);
        // Close the shadow so its root can be recovered from like a restart.
        self.shadow.group_barrier();
        drop(self.shadow);
        let backend =
            FsBackend::open(&self.shadow_root).expect("finished shadow root reopens as a store");
        for name in &names {
            probe("store.recover", &mut collected, &mut || {
                std::hint::black_box(
                    backend
                        .recover_document(name)
                        .expect("every shadow document recovers"),
                );
            });
        }
        let backend: Arc<dyn StorageBackend> = Arc::new(backend);
        probe("warehouse.open", &mut collected, &mut || {
            std::hint::black_box(
                Warehouse::with_backend(Arc::clone(&backend), SessionConfig::default())
                    .expect("finished shadow root reopens as a warehouse"),
            );
        });
        TraceReport {
            samples: collected.samples,
            totals,
            spans: collected.spans,
            violations: collected.violations,
            compared_answers: collected.compared_answers,
        }
    }
}

/// Writes spans as JSON lines: one object per span with `workload`, `op`,
/// `id`, `parent`, `name`, `start_ns`, `end_ns` (nanoseconds since the
/// tracer was created).
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.op, span.id, span.parent, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}
