//! One repetition of a workload, over the wire: start a server on a fresh
//! root, load the documents, run the timed main phase with two closed-loop
//! clients, read back, capture the final state, shut down, then time
//! restarts on the same root. The traced run drives the same code with a
//! [`Tracer`] beside every wire call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use pxml_core::FuzzyTree;
use pxml_server::{
    Client, ClientConfig, ClientError, RemoteAnswers, Server, ServerConfig, DEFAULT_MAX_FRAME_BYTES,
};
use pxml_store::{serialize_fuzzy_document, FsBackend};
use pxml_warehouse::CommitPolicy;

use crate::checks;
use crate::ops::{Op, OpStream};
use crate::probe::{self, Speed};
use crate::procfs;
use crate::spec::{self, Workload};
use crate::stats;
use crate::trace::Tracer;

/// Request accounting of one connection (or a sum of them).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
    }
}

/// What one repetition measured. Times marked *normalized* are reported at
/// the probe's reference machine speed (see [`crate::probe`]).
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Set-up wall time, normalized by the load phase's median probe.
    pub setup_s: f64,
    /// Main-phase wall time, raw (only the CPU share reads it; see
    /// [`crate::report::cpu_share`]).
    pub main_wall_s: f64,
    /// Main-phase process CPU time, normalized by its median probe.
    pub main_cpu_s: f64,
    /// Every probe measurement of the main phase, both clients, in
    /// microseconds.
    pub probe_us: Vec<f64>,
    /// Requests of the main phase that were answered without error.
    pub main_completed: u64,
    /// Normalized wire latency in microseconds of every commit of the load
    /// phase, one vector per loading connection (its documents in order,
    /// each one's updates in order); `None` where the request failed.
    pub load: Vec<Vec<Option<f64>>>,
    /// The same for the main phase, one vector per client, aligned with
    /// [`OpStream::main`] — except on `flush_bound`, whose main phase is
    /// paced by the simulated device, not the CPU, and is recorded raw.
    pub main: Vec<Vec<Option<f64>>>,
    /// The same for the read-back phase, aligned with
    /// [`OpStream::readback`].
    pub readback: Vec<Vec<Option<f64>>>,
    pub tally: Tally,
    /// Requests of the possible-worlds oracle, kept apart because only the
    /// first repetition of a process runs it.
    pub oracle_tally: Tally,
    /// Restart times, raw: a restart is dominated by thread start-up, file
    /// reads and page faults, which the probe does not track (normalizing
    /// made its run-to-run spread worse, not better).
    pub recovery_ms: Vec<f64>,
    /// First gated request on the cold tenant, per restart, in microseconds.
    pub tenant_open_us: Vec<f64>,
    pub journal_tail_bytes: u64,
    pub journal_tail_batches: u64,
    pub disk_bytes: u64,
    pub doc_bytes: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
    pub wire_commits: u64,
    pub window_occupancy: f64,
    /// Counts that must repeat exactly between repetitions of one seed.
    pub exact: BTreeMap<String, u64>,
    /// Failed correctness checks, human-readable; empty when all passed.
    pub violations: Vec<String>,
}

/// A client connection that counts what it sends and survives errors.
pub struct Wire {
    addr: String,
    tenant: &'static str,
    client: Client,
    pub tally: Tally,
}

impl Wire {
    pub fn connect(server: &Server, tenant: &'static str) -> Wire {
        let addr = server.local_addr().to_string();
        Wire {
            client: Self::dial(&addr, tenant),
            addr,
            tenant,
            tally: Tally::default(),
        }
    }

    fn dial(addr: &str, tenant: &str) -> Client {
        let config = ClientConfig {
            read_timeout: Some(spec::REQUEST_TIMEOUT),
            write_timeout: Some(spec::REQUEST_TIMEOUT),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        };
        Client::connect_with(addr, tenant, config)
            .expect("the in-process server accepts loopback connections")
    }

    /// Sends one request; returns its reply and wire latency in
    /// microseconds, or `None` after counting it failed. A timeout, `Busy`
    /// or error reply is a failed operation and yields no latency sample;
    /// the connection is re-dialled because a timed-out one is
    /// desynchronized.
    pub fn call<T>(
        &mut self,
        request: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Option<(T, f64)> {
        self.tally.attempted += 1;
        let started = Instant::now();
        match request(&mut self.client) {
            Ok(reply) => Some((reply, started.elapsed().as_secs_f64() * 1e6)),
            Err(error) => {
                self.tally.failed += 1;
                if error.is_busy() {
                    self.tally.busy += 1;
                }
                if self.tally.failed <= 3 {
                    eprintln!("pxbench: request failed: {error}");
                }
                self.client = Self::dial(&self.addr, self.tenant);
                None
            }
        }
    }

    /// Drains pending async commits and closes; the drain summary must
    /// report none failed.
    pub fn close(mut self) -> (Tally, Option<String>) {
        let summary = self.call(|client| client.close()).map(|(text, _)| text);
        let violation = match &summary {
            Some(text) if text.ends_with("failed=0") => None,
            Some(text) => Some(format!("close reported lost async commits: {text}")),
            None => Some("close request failed".to_string()),
        };
        (self.tally, violation)
    }
}

fn server_config(workload: Workload, root: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(root);
    if workload == Workload::FlushBound {
        config.session.commit = CommitPolicy::Grouped {
            window_max_batches: spec::FLUSH_WINDOW_BATCHES,
            window_max_wait: spec::FLUSH_LATENCY,
        };
        config.fs.simulated_sync_latency = spec::FLUSH_LATENCY;
    }
    config
}

fn start_server(workload: Workload, root: &Path) -> Server {
    Server::start(server_config(workload, root)).expect("loopback ephemeral port binds")
}

/// One connection's sending state: the wire, the thread's machine-speed
/// estimate, and whether latencies are to be normalized by it.
struct Sender<'a> {
    wire: Wire,
    speed: Speed,
    normalize: bool,
    stream: &'a OpStream,
    tracer: Option<&'a Tracer>,
    /// Answers returned so far (an exact count of the run).
    answers: u64,
    /// Replies that carried a probability outside [0, 1].
    improbable: u64,
}

/// Sends one op of a stream; returns its wire latency in microseconds
/// (normalized if the sender says so), or `None` if it failed. With a
/// tracer, the wire call and its shadow replay run under the document's
/// lock-step lock.
fn send(sender: &mut Sender, op: &Op) -> Option<f64> {
    // Measured before the request, never inside it.
    let factor = sender.speed.factor();
    let factor = if sender.normalize { factor } else { 1.0 };
    let Sender {
        wire,
        stream,
        tracer,
        answers,
        improbable,
        ..
    } = sender;
    let tracer = *tracer;
    match op {
        Op::Query {
            class,
            doc,
            pattern,
        } => {
            let name = &stream.docs[*doc].name;
            let _guard = tracer.map(|t| t.lock_shared(*doc));
            let reply = wire.call(|client| client.query(name, pattern));
            if let Some(tracer) = tracer {
                tracer.replay_query(
                    *class,
                    name,
                    pattern,
                    reply.as_ref().map(|(answers, us)| (answers, *us)),
                );
            }
            reply.map(|(reply, us)| {
                *improbable += u64::from(!probabilities_in_range(&reply));
                *answers += reply.answers.len() as u64;
                us * factor
            })
        }
        Op::Commit { doc, update, sync } => {
            let name = &stream.docs[*doc].name;
            let batch = std::slice::from_ref(update);
            let _guard = tracer.map(|t| t.lock_exclusive(*doc));
            let reply = if *sync {
                wire.call(|client| client.commit(name, batch))
            } else {
                wire.call(|client| client.commit_async(name, batch))
            };
            if let Some(tracer) = tracer {
                tracer.replay_commit(name, update, *sync, reply.as_ref().map(|(_, us)| *us));
            }
            reply.map(|(_, us)| us * factor)
        }
    }
}

/// Every answers frame, traced or not, must be a fragment of a probability
/// distribution: selection and every answer probability inside [0, 1].
fn probabilities_in_range(reply: &RemoteAnswers) -> bool {
    let in_unit = |p: f64| (0.0..=1.0 + 1e-12).contains(&p);
    in_unit(reply.selection) && reply.answers.iter().all(|a| in_unit(a.probability))
}

impl Sender<'_> {
    fn new<'a>(wire: Wire, stream: &'a OpStream, tracer: Option<&'a Tracer>) -> Sender<'a> {
        Sender {
            wire,
            speed: Speed::new(),
            normalize: true,
            stream,
            tracer,
            answers: 0,
            improbable: 0,
        }
    }

    /// Closes the connection; returns its tally and whatever went wrong on
    /// it.
    fn finish(self) -> (Tally, Vec<String>) {
        let (tally, violation) = self.wire.close();
        let mut violations: Vec<String> = violation.into_iter().collect();
        if self.improbable > 0 {
            violations.push(format!(
                "{} replies carried a probability outside [0, 1]",
                self.improbable
            ));
        }
        (tally, violations)
    }
}

/// A cheap query every people directory answers: the restart probe.
const PROBE_PATTERN: &str = "person { name[=\"alice-0\"] }";

/// The served state of every document: commit sequence number and tree.
fn capture(wire: &mut Wire, stream: &OpStream) -> Vec<Option<(u64, FuzzyTree)>> {
    stream
        .docs
        .iter()
        .map(|doc| {
            wire.call(|client| client.snapshot(&doc.name))
                .map(|(state, _)| state)
        })
        .collect()
}

/// How many restarts a repetition times, and whether each runs in a fresh
/// process.
///
/// A fresh process is what a restart is, and it is also the only steady way
/// to time one: inside the benchmark's long-lived process the same recovery
/// takes 9 ms or 14 ms depending on whether the allocator still holds the
/// pages the previous server freed. The in-process form exists for the unit
/// tests, whose executable is not `pxbench`.
#[derive(Debug, Clone, Copy)]
pub struct Restarts {
    pub count: usize,
    pub fresh_process: bool,
}

/// What a restart needs to know, written to the scratch directory for the
/// child process: the workload (for the server configuration), the
/// documents to ask for, and the canonical text each must still have.
pub struct RestartManifest {
    workload: Workload,
    docs: Vec<String>,
    expected: Vec<String>,
}

impl RestartManifest {
    fn write(&self, scratch: &Path) {
        let mut listing = format!("{}\n", self.workload.name());
        for (index, (doc, expected)) in self.docs.iter().zip(&self.expected).enumerate() {
            listing.push_str(doc);
            listing.push('\n');
            std::fs::write(scratch.join(format!("expected-{index}.txt")), expected)
                .expect("scratch directory is writable");
        }
        std::fs::write(scratch.join("restart.txt"), listing)
            .expect("scratch directory is writable");
    }

    pub fn read(scratch: &Path) -> Option<RestartManifest> {
        let listing = std::fs::read_to_string(scratch.join("restart.txt")).ok()?;
        let mut lines = listing.lines();
        let workload = Workload::from_name(lines.next()?)?;
        let docs: Vec<String> = lines.map(str::to_string).collect();
        let expected = (0..docs.len())
            .map(|index| std::fs::read_to_string(scratch.join(format!("expected-{index}.txt"))))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        Some(RestartManifest {
            workload,
            docs,
            expected,
        })
    }
}

/// What one restart measured and found.
#[derive(Debug, Default)]
pub struct RestartOutcome {
    pub recovery_ms: Option<f64>,
    pub tenant_open_us: Option<f64>,
    pub tally: Tally,
    pub violations: Vec<String>,
}

impl RestartOutcome {
    /// One line for the parent process to parse back.
    pub fn to_line(&self) -> String {
        format!(
            "restart recovery_ms={} tenant_open_us={} attempted={} failed={} busy={}",
            self.recovery_ms.unwrap_or(f64::NAN),
            self.tenant_open_us.unwrap_or(f64::NAN),
            self.tally.attempted,
            self.tally.failed,
            self.tally.busy
        )
    }

    fn from_output(stdout: &str) -> RestartOutcome {
        let mut outcome = RestartOutcome::default();
        for line in stdout.lines() {
            if let Some(violation) = line.strip_prefix("violation ") {
                outcome.violations.push(violation.to_string());
            }
            let Some(fields) = line.strip_prefix("restart ") else {
                continue;
            };
            for field in fields.split_whitespace() {
                let Some((key, value)) = field.split_once('=') else {
                    continue;
                };
                let number: f64 = value.parse().unwrap_or(f64::NAN);
                match key {
                    "recovery_ms" => outcome.recovery_ms = Some(number).filter(|n| n.is_finite()),
                    "tenant_open_us" => {
                        outcome.tenant_open_us = Some(number).filter(|n| n.is_finite())
                    }
                    "attempted" => outcome.tally.attempted = number as u64,
                    "failed" => outcome.tally.failed = number as u64,
                    "busy" => outcome.tally.busy = number as u64,
                    _ => {}
                }
            }
        }
        outcome
    }
}

/// One restart: start a server on the finished root, time until every
/// document has answered a first query, then check that what is served is
/// the document that was served before the shutdown, and shut down again.
pub fn restart(manifest: &RestartManifest, root: &Path) -> RestartOutcome {
    let mut outcome = RestartOutcome::default();
    let started = Instant::now();
    let server = start_server(manifest.workload, root);
    let mut wire = Wire::connect(&server, spec::TENANT);
    let mut answered = 0;
    for (index, doc) in manifest.docs.iter().enumerate() {
        let reply = wire.call(|client| client.query(doc, PROBE_PATTERN));
        answered += usize::from(reply.is_some());
        if index == 0 {
            outcome.tenant_open_us = reply.map(|(_, us)| us);
        }
    }
    if answered == manifest.docs.len() {
        outcome.recovery_ms = Some(started.elapsed().as_secs_f64() * 1e3);
    }
    // Durability, second half.
    for (doc, expected) in manifest.docs.iter().zip(&manifest.expected) {
        let served = wire
            .call(|client| client.snapshot(doc))
            .map(|((_, fuzzy), _)| checks::canonical_document(&fuzzy));
        if served.as_deref() != Some(expected.as_str()) {
            outcome
                .violations
                .push(format!("{doc} is not served as it was before the shutdown"));
        }
    }
    let (tally, violation) = wire.close();
    outcome.tally = tally;
    outcome.violations.extend(violation);
    server.shutdown();
    outcome
}

/// The same restart in a fresh `pxbench --restart <scratch>` process.
fn restart_in_child(scratch: &Path) -> RestartOutcome {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = std::process::Command::new(exe)
        .arg("--restart")
        .arg(scratch)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output();
    match output {
        Ok(output) if output.status.success() => {
            RestartOutcome::from_output(&String::from_utf8_lossy(&output.stdout))
        }
        Ok(output) => RestartOutcome {
            violations: vec![format!("restart process exited with {}", output.status)],
            ..RestartOutcome::default()
        },
        Err(error) => RestartOutcome {
            violations: vec![format!("cannot start a restart process: {error}")],
            ..RestartOutcome::default()
        },
    }
}

/// Runs one repetition of `workload` on a fresh root under `scratch`.
pub fn repetition(
    workload: Workload,
    stream: &OpStream,
    scratch: &Path,
    restarts: Restarts,
    tracer: Option<&Tracer>,
    oracle: bool,
) -> Rep {
    let mut rep = Rep::default();
    let root: PathBuf = scratch.join("server");
    std::fs::create_dir_all(&root).expect("scratch directory is writable");

    // ---- set-up: server start + load phase -------------------------------
    let setup_started = Instant::now();
    let server = start_server(workload, &root);
    // One loading connection per client, documents dealt round-robin, each
    // document loaded by one connection in order (so its content does not
    // depend on timing). Two, not one, for the same reason the main phase
    // has two: a lone connection measures idle-core wake-ups, and
    // `read_heavy` takes its commit latencies from here.
    let sync_load = workload != Workload::FlushBound;
    let mut answers_total = 0u64;
    let mut load_probes: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec::CLIENTS)
            .map(|loader| {
                let server = &server;
                scope.spawn(move || {
                    let mut sender =
                        Sender::new(Wire::connect(server, spec::TENANT), stream, tracer);
                    let mut latencies = Vec::new();
                    let mine = stream
                        .docs
                        .iter()
                        .enumerate()
                        .filter(|(index, _)| index % spec::CLIENTS == loader);
                    for (index, doc) in mine {
                        sender
                            .wire
                            .call(|client| client.open(&doc.name, Some(&doc.initial_xml)));
                        if let Some(tracer) = tracer {
                            tracer.create(index, &doc.name, &doc.initial_xml);
                        }
                        for update in &doc.load {
                            // Under the grouped policy a sync commit costs a
                            // whole simulated flush, so flush_bound loads
                            // asynchronously and drains at close.
                            let op = Op::Commit {
                                doc: index,
                                update: update.clone(),
                                sync: sync_load,
                            };
                            latencies.push(send(&mut sender, &op));
                        }
                    }
                    let probes = std::mem::take(&mut sender.speed.samples);
                    let (tally, violations) = sender.finish();
                    (latencies, probes, tally, violations)
                })
            })
            .collect();
        for handle in handles {
            let (latencies, probes, tally, violations) =
                handle.join().expect("loader thread panicked");
            rep.load.push(latencies);
            load_probes.extend(probes);
            rep.tally.absorb(tally);
            rep.violations.extend(violations);
        }
    });
    let mut wires: Vec<Wire> = (0..spec::CLIENTS)
        .map(|_| Wire::connect(&server, spec::TENANT))
        .collect();
    let load_speed = probe::REFERENCE_US / stats::median(&load_probes).unwrap_or(1.0);
    rep.setup_s = setup_started.elapsed().as_secs_f64() * load_speed;

    // ---- the possible-worlds oracle (untimed, once per process) ----------
    if oracle {
        let mut wire = Wire::connect(&server, spec::ORACLE_TENANT);
        rep.violations.extend(checks::oracle(&mut wire));
        let (tally, violation) = wire.close();
        rep.oracle_tally = tally;
        rep.violations.extend(violation);
    }

    // ---- main phase (timed) and read-back phase --------------------------
    let start_line = Barrier::new(spec::CLIENTS + 1);
    let finish_line = Barrier::new(spec::CLIENTS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .drain(..)
            .enumerate()
            .map(|(client, wire)| {
                let (start_line, finish_line) = (&start_line, &finish_line);
                scope.spawn(move || {
                    let mut sender = Sender::new(wire, stream, tracer);
                    // flush_bound's main phase waits on the simulated
                    // device; scaling a sleep by CPU speed would add the
                    // very noise normalization removes elsewhere.
                    sender.normalize = workload != Workload::FlushBound;
                    start_line.wait();
                    let main: Vec<Option<f64>> = stream.main[client]
                        .iter()
                        .map(|op| send(&mut sender, op))
                        .collect();
                    finish_line.wait();
                    // Only the main phase's probes scale the main phase's
                    // CPU time.
                    let probes = std::mem::take(&mut sender.speed.samples);
                    sender.normalize = true;
                    let readback: Vec<Option<f64>> = stream.readback[client]
                        .iter()
                        .map(|op| send(&mut sender, op))
                        .collect();
                    let answers = sender.answers;
                    let (tally, violations) = sender.finish();
                    (main, readback, answers, probes, tally, violations)
                })
            })
            .collect();
        start_line.wait();
        let (wall, cpu) = (Instant::now(), procfs::cpu_seconds());
        finish_line.wait();
        rep.main_wall_s = wall.elapsed().as_secs_f64();
        rep.main_cpu_s = procfs::cpu_seconds() - cpu;
        for handle in handles {
            let (main, readback, answers, probes, tally, violations) =
                handle.join().expect("client thread panicked");
            rep.main_completed += main.iter().flatten().count() as u64;
            rep.main.push(main);
            rep.readback.push(readback);
            rep.probe_us.extend(probes);
            answers_total += answers;
            rep.tally.absorb(tally);
            rep.violations.extend(violations);
        }
    });
    rep.main_cpu_s *=
        probe::REFERENCE_US / stats::median(&rep.probe_us).unwrap_or(probe::REFERENCE_US);

    // ---- final state, through the wire ------------------------------------
    let mut observer = Wire::connect(&server, spec::TENANT);
    let before = capture(&mut observer, stream);
    if let Some((stats, _)) = observer.call(|client| client.stats()) {
        rep.fsyncs = stats.fsyncs as u64;
        rep.checkpoints = stats.checkpoints as u64;
        rep.wire_commits = stats.updates_applied as u64;
        rep.window_occupancy = stats.mean_window_occupancy;
    }
    let (tally, violation) = observer.close();
    rep.tally.absorb(tally);
    rep.violations.extend(violation);
    server.shutdown();

    let acked: Vec<u64> = {
        let mut acked: Vec<u64> = stream
            .docs
            .iter()
            .map(|doc| doc.load.len() as u64)
            .collect();
        for op in stream.main.iter().flatten() {
            if let Op::Commit { doc, .. } = op {
                acked[*doc] += 1;
            }
        }
        acked
    };
    let mut before_text = Vec::new();
    for ((doc, state), acked) in stream.docs.iter().zip(&before).zip(&acked) {
        let Some((seq, fuzzy)) = state else {
            rep.violations
                .push(format!("no final snapshot of {}", doc.name));
            before_text.push(String::new());
            continue;
        };
        // Durability, first half: with zero failed operations the served
        // sequence number is exactly the number of acknowledged commits.
        if rep.tally.failed == 0 && *seq != *acked {
            rep.violations.push(format!(
                "{}: served seq {seq} but {acked} commits were acknowledged",
                doc.name
            ));
        }
        let text = serialize_fuzzy_document(fuzzy, false);
        rep.doc_bytes += text.len() as u64;
        rep.exact.insert(format!("{}.seq", doc.name), *seq);
        rep.exact
            .insert(format!("{}.nodes", doc.name), fuzzy.node_count() as u64);
        rep.exact
            .insert(format!("{}.events", doc.name), fuzzy.event_count() as u64);
        rep.exact.insert(
            format!("{}.literals", doc.name),
            fuzzy.condition_literal_count() as u64,
        );
        before_text.push(checks::canonical_document(fuzzy));
    }
    if let Some(tracer) = tracer {
        rep.violations.extend(tracer.compare_final_state(&before));
    }

    // ---- on-disk state, through the store's public meters -----------------
    let tenant_dir = root.join(spec::TENANT);
    rep.disk_bytes = procfs::dir_bytes(&tenant_dir);
    match FsBackend::open(&tenant_dir) {
        Ok(backend) => {
            for doc in &stream.docs {
                rep.journal_tail_bytes += backend.journal_size_bytes(&doc.name).unwrap_or(0);
                rep.journal_tail_batches += backend.journal_batches(&doc.name).unwrap_or(0) as u64;
            }
        }
        Err(error) => rep
            .violations
            .push(format!("cannot reopen the tenant's store: {error}")),
    }

    // ---- recovery phase: restart, first answer on every document ----------
    let manifest = RestartManifest {
        workload,
        docs: stream.docs.iter().map(|doc| doc.name.clone()).collect(),
        expected: before_text,
    };
    manifest.write(scratch);
    for index in 0..restarts.count {
        let outcome = if restarts.fresh_process {
            restart_in_child(scratch)
        } else {
            restart(&manifest, &root)
        };
        rep.recovery_ms.extend(outcome.recovery_ms);
        rep.tenant_open_us.extend(outcome.tenant_open_us);
        rep.tally.absorb(outcome.tally);
        rep.violations.extend(
            outcome
                .violations
                .into_iter()
                .map(|violation| format!("restart {index}: {violation}")),
        );
    }

    // ---- exact counts -------------------------------------------------------
    rep.exact
        .insert("ops.attempted".to_string(), rep.tally.attempted);
    rep.exact.insert("ops.failed".to_string(), rep.tally.failed);
    rep.exact
        .insert("main.completed".to_string(), rep.main_completed);
    // Answer counts depend on which snapshot a query pinned, which on
    // mixed_rw depends on how the two clients interleave.
    if workload != Workload::MixedRw {
        rep.exact
            .insert("answers.returned".to_string(), answers_total);
    }
    rep.exact
        .insert("journal.tail_batches".to_string(), rep.journal_tail_batches);
    if workload != Workload::MixedRw {
        rep.exact
            .insert("journal.tail_bytes".to_string(), rep.journal_tail_bytes);
    }
    rep.exact
        .insert("store.checkpoints".to_string(), rep.checkpoints);

    std::fs::remove_dir_all(&root).expect("scratch root is removable");
    rep
}
