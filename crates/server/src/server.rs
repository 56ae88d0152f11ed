//! The multi-tenant warehouse server: accept loop, per-connection handler
//! threads, tenant registry and admission control.
//!
//! # Tenant model
//!
//! Every request frame names a tenant; each tenant is one
//! [`Warehouse`] over its own storage subdirectory (`<root>/<tenant>`),
//! opened lazily on first use and held in an LRU registry of at most
//! [`ServerConfig::max_tenants`] resident warehouses. Eviction picks the
//! least-recently-used tenant that no request currently holds — the
//! registry's `Arc` is the sole reference (`Arc::strong_count == 1`),
//! checked while the registry lock is held, so no new holder can appear
//! mid-decision — and whose warehouse has no fold in flight
//! ([`Warehouse::fold_in_flight`]; only a request's commit begins one, so
//! an unheld tenant cannot start one either). It drains the victim's
//! group-commit pipeline ([`Warehouse::group_barrier`]) and drops it; a
//! later request re-opens it from storage via normal crash recovery. If
//! every other tenant is held or folding, the registry temporarily
//! overshoots rather than evicting a warehouse that can still write, which
//! would let a re-opened backend race the old one on the same files: the
//! new backend's open-time sweep would delete the fold's staged
//! checkpoint, and its first touch would scan journals the old folder is
//! about to delete.
//!
//! # Admission control
//!
//! Two admission gates bound the work in flight: a global one and one per
//! tenant.
//! A request that cannot enter both gates within
//! [`ServerConfig::admission_timeout`] is shed with a typed `Busy` frame —
//! the server never queues unboundedly, so an overloaded tenant degrades
//! into fast rejections instead of unbounded latency for everyone.
//! `stats` and `close` frames bypass admission: observability and draining
//! must keep working exactly when the server is saturated. To keep that
//! admission-free path harmless, `stats` answers only for tenants already
//! resident in the registry (typed `not-resident` error otherwise) — it
//! never lazily opens a warehouse, so it cannot create storage directories
//! or force evictions of live tenants.
//!
//! # Locks
//!
//! Three lock classes, all ranked ahead of every engine class (see README
//! "Concurrency correctness"): `server-conns` (the connection registry),
//! `server-admission` (a gate's in-flight counter, held only inside
//! `try_enter`/`leave`), and `server-tenants` (the LRU registry, held while
//! lazily opening a warehouse — which takes engine shard locks, hence the
//! rank ordering). No server lock is ever held across an engine call that
//! blocks on another server lock.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, LockClass, Mutex};
use pxml_core::CoreError;
use pxml_query::Pattern;
use pxml_store::{parse_batch, serialize_fuzzy_document, FsBackend, FsOptions};
use pxml_tree::{data_tree_to_xml, parse_data_tree, TreeError, XmlElement};
use pxml_warehouse::{AsyncCommit, SessionConfig, Warehouse, WarehouseError};

use crate::frame::{
    read_request, write_response, FrameError, RawRequest, RawResponse, DEFAULT_MAX_FRAME_BYTES,
};
use crate::frame::{split_doc_payload, tag};

/// Most async commits a single connection may leave un-drained; beyond
/// this the oldest pending commit is waited out before accepting the next,
/// bounding the per-connection ticket memory.
pub const MAX_PENDING_ASYNC: usize = 256;

/// Everything the server needs to know at start-up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Storage root; each tenant gets the subdirectory `<root>/<tenant>`.
    pub root: PathBuf,
    /// Session configuration every tenant warehouse is opened under (the
    /// `commit` field also drives the per-tenant backend's commit policy).
    pub session: SessionConfig,
    /// Backend tuning for each tenant's [`FsBackend`] (`commit` is
    /// overridden by `session.commit` so there is one knob, not two).
    pub fs: FsOptions,
    /// Resident-warehouse cap of the tenant LRU registry.
    pub max_tenants: usize,
    /// Per-tenant in-flight request budget.
    pub tenant_inflight: usize,
    /// Global in-flight request budget.
    pub global_inflight: usize,
    /// How long a request may wait for gate capacity before it is shed
    /// with `Busy`.
    pub admission_timeout: Duration,
    /// Cap on a frame's declared length.
    pub max_frame_bytes: u32,
    /// Per-connection idle read deadline: a peer that sends no complete
    /// frame for this long is reaped (its handler exits and drains any
    /// pending async commits). Keeps silent or wedged clients from pinning
    /// handler threads and socket buffers forever.
    pub idle_timeout: Duration,
}

impl ServerConfig {
    /// Defaults for a root directory: loopback ephemeral port, 8 resident
    /// tenants, 64 in-flight per tenant, 256 global, 100 ms admission
    /// timeout, 30 s idle read deadline.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            root: root.into(),
            session: SessionConfig::default(),
            fs: FsOptions::default(),
            max_tenants: 8,
            tenant_inflight: 64,
            global_inflight: 256,
            admission_timeout: Duration::from_millis(100),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// A counting admission gate: at most `limit` holders at once, bounded
/// waiting. (Tenant-LRU busyness is judged by `Arc` holders of the tenant,
/// not by gate occupancy — a request holds the `Arc` strictly longer than
/// its gate slot, so the reference count covers the windows the gate
/// cannot see.)
struct Gate {
    limit: usize,
    count: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(limit: usize) -> Gate {
        Gate {
            limit: limit.max(1),
            count: Mutex::with_class(LockClass::ServerAdmission, 0),
            freed: Condvar::new(),
        }
    }

    /// Takes a slot, waiting at most `timeout`; `false` means the budget
    /// stayed exhausted the whole time and the request must be shed.
    fn try_enter(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut count = self.count.lock();
        while *count >= self.limit {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.freed.wait_for(&mut count, deadline - now);
        }
        *count += 1;
        true
    }

    fn leave(&self) {
        let mut count = self.count.lock();
        *count = count.saturating_sub(1);
        drop(count);
        self.freed.notify_one();
    }
}

/// Floor and ceiling of the per-tenant quarantine re-open backoff.
const REOPEN_BACKOFF_MIN_MS: u64 = 50;
const REOPEN_BACKOFF_MAX_MS: u64 = 5_000;

/// One resident tenant: its warehouse, its admission gate, and its LRU
/// recency stamp, plus the backoff state of quarantine auto-reopen (plain
/// atomics — no lock class, no lock ordering to get wrong).
struct Tenant {
    name: String,
    warehouse: Warehouse,
    gate: Gate,
    last_used: AtomicU64,
    /// Server-clock millisecond before which no re-open attempt runs; the
    /// winning CAS on this value claims the attempt, so concurrent requests
    /// against a quarantined document never pile re-opens on top of each
    /// other.
    reopen_at_ms: AtomicU64,
    /// Current backoff step, doubled on every failed re-open up to the cap
    /// and reset on success.
    reopen_backoff_ms: AtomicU64,
}

/// Streams and join handles of live connections, under one
/// `server-conns` mutex. Handles of finished handlers are reaped by the
/// accept loop as new connections arrive, so a long-running server does
/// not accumulate one `JoinHandle` per connection ever accepted.
#[derive(Default)]
struct ConnTable {
    streams: HashMap<u64, TcpStream>,
    handles: Vec<JoinHandle<()>>,
}

struct ServerInner {
    config: ServerConfig,
    /// Monotonic base of the millisecond clock the re-open backoff runs on.
    started: Instant,
    stopping: AtomicBool,
    /// Logical LRU clock: bumped on every tenant touch.
    clock: AtomicU64,
    global: Gate,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    conns: Mutex<ConnTable>,
    next_conn: AtomicU64,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, closes every connection, and drains each resident
/// tenant's group-commit pipeline before returning — pipelined commits are
/// never abandoned mid-window.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts serving.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            global: Gate::new(config.global_inflight),
            config,
            started: Instant::now(),
            stopping: AtomicBool::new(false),
            clock: AtomicU64::new(0),
            tenants: Mutex::with_class(LockClass::ServerTenants, HashMap::new()),
            conns: Mutex::with_class(LockClass::ServerConns, ConnTable::default()),
            next_conn: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("pxml-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Names of the tenants currently resident in the LRU registry
    /// (observability / test hook).
    pub fn resident_tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.tenants.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Graceful shutdown: stop accepting, close every connection (their
    /// handlers drain any per-connection pending async commits on exit),
    /// then run each resident tenant's group-commit barrier so everything
    /// acknowledged is durable when this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.inner.stopping.store(true, Ordering::Release);
        // Unblock the accept loop with one last connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        let (streams, handles) = {
            let mut conns = self.inner.conns.lock();
            let streams: Vec<TcpStream> = conns.streams.drain().map(|(_, s)| s).collect();
            let handles = std::mem::take(&mut conns.handles);
            (streams, handles)
        };
        for stream in streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in handles {
            let _ = handle.join();
        }
        let tenants: Vec<Arc<Tenant>> = self.inner.tenants.lock().drain().map(|(_, t)| t).collect();
        for tenant in tenants {
            tenant.warehouse.group_barrier();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(inner: Arc<ServerInner>, listener: TcpListener) {
    for incoming in listener.incoming() {
        if inner.stopping.load(Ordering::Acquire) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let conn_id = inner.next_conn.fetch_add(1, Ordering::AcqRel);
        // Register the shutdown clone BEFORE spawning the handler: the
        // handler removes its entry on exit, and inserting afterwards
        // would race a short-lived connection, leaking a clone that holds
        // the peer's socket open until server shutdown.
        if let Ok(registered) = stream.try_clone() {
            inner.conns.lock().streams.insert(conn_id, registered);
        }
        let handler_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name(format!("pxml-conn-{conn_id}"))
            .spawn(move || handle_connection(handler_inner, stream, conn_id));
        let mut conns = inner.conns.lock();
        conns.handles.retain(|handle| !handle.is_finished());
        match spawned {
            Ok(handle) => conns.handles.push(handle),
            Err(_) => {
                conns.streams.remove(&conn_id);
            }
        }
    }
}

/// One connection's async commits: the ones accepted but not yet reported
/// durable (oldest first), and how many of those already waited out — by
/// the [`MAX_PENDING_ASYNC`] bound — never became durable.
#[derive(Default)]
struct AsyncBacklog {
    pending: VecDeque<AsyncCommit>,
    failed: usize,
}

impl AsyncBacklog {
    /// Waits out the oldest pending commit, counting a lost one.
    fn settle_oldest(&mut self) {
        if let Some(oldest) = self.pending.pop_front() {
            if oldest.wait().is_err() {
                self.failed += 1;
            }
        }
    }

    /// Waits out every pending async commit and summarizes the outcome —
    /// the payload of the `close` acknowledgement. `failed` counts every
    /// commit this connection had accepted that did not become durable,
    /// including those settled early.
    fn drain(&mut self) -> String {
        let total = self.pending.len();
        while !self.pending.is_empty() {
            self.settle_oldest();
        }
        format!("closed pending={total} failed={}", self.failed)
    }
}

fn handle_connection(inner: Arc<ServerInner>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    // The idle read deadline reaps silent peers: a timed-out read surfaces
    // as `FrameError::Io(WouldBlock | TimedOut)` and drops the connection
    // below. The write deadline keeps a peer that stopped draining its
    // responses from wedging this handler forever.
    let _ = stream.set_read_timeout(Some(inner.config.idle_timeout));
    let _ = stream.set_write_timeout(Some(inner.config.idle_timeout));
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = stream;
    let mut backlog = AsyncBacklog::default();
    let cap = inner.config.max_frame_bytes;
    loop {
        let request = match read_request(&mut reader, cap) {
            Ok(request) => request,
            // Clean close, mid-frame disconnect, transport error, idle
            // deadline: nothing sensible to answer on; drop the connection
            // (the drain below still waits out pending async commits).
            Err(FrameError::Closed) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => break,
            // Framing is provably broken (hostile length prefix, garbled
            // header): answer with a typed error, then refuse to keep
            // parsing the stream.
            Err(err @ FrameError::Oversized { .. }) | Err(err @ FrameError::BadHeader(_)) => {
                let _ = respond(
                    &mut writer,
                    error_response("malformed", false, &err.to_string()),
                );
                break;
            }
        };
        if inner.stopping.load(Ordering::Acquire) {
            let _ = respond(
                &mut writer,
                error_response("shutdown", true, "server is shutting down"),
            );
            break;
        }
        if request.tag == tag::CLOSE {
            let summary = backlog.drain();
            let _ = respond(
                &mut writer,
                RawResponse {
                    tag: tag::OK,
                    payload: summary.into_bytes(),
                },
            );
            break;
        }
        let mut response = inner.execute(&request, &mut backlog);
        // A reply gets the bound a request gets: a client refuses a frame
        // past its cap as a framing error, and the connection with it. The
        // error in its place carries its code alone, a 17-byte frame.
        if 1 + response.payload.len() > cap as usize {
            response = error_response("too-large", false, "");
        }
        if respond(&mut writer, response).is_err() {
            break;
        }
    }
    // An abrupt disconnect still drains: waiting the tickets out keeps the
    // documented contract that nothing this handler enqueued is abandoned
    // in an open window.
    backlog.drain();
    inner.conns.lock().streams.remove(&conn_id);
}

fn respond(writer: &mut impl Write, response: RawResponse) -> io::Result<()> {
    write_response(writer, response.tag, &response.payload)
}

/// A typed error frame: `code\nretryable\nmessage`. `retryable` tells the
/// client whether re-sending the same request later can succeed (`retry` —
/// transient conditions like a quarantined document under auto-reopen)
/// or cannot (`final` — bad names, malformed payloads, missing documents).
fn error_response(code: &str, retryable: bool, message: &str) -> RawResponse {
    let retryable = if retryable { "retry" } else { "final" };
    RawResponse {
        tag: tag::ERROR,
        payload: format!("{code}\n{retryable}\n{message}").into_bytes(),
    }
}

fn busy_response(scope: &str, message: &str) -> RawResponse {
    RawResponse {
        tag: tag::BUSY,
        payload: format!("{scope}\n{message}").into_bytes(),
    }
}

fn ok_response(message: String) -> RawResponse {
    RawResponse {
        tag: tag::OK,
        payload: message.into_bytes(),
    }
}

fn engine_error(err: WarehouseError) -> RawResponse {
    match err {
        WarehouseError::UnknownDocument(name) => error_response(
            "unknown-doc",
            false,
            &format!("document `{name}` does not exist"),
        ),
        WarehouseError::DuplicateDocument(name) => error_response(
            "duplicate-doc",
            false,
            &format!("document `{name}` already exists"),
        ),
        // Quarantine is transient by design: the tenant auto-reopen path
        // (backoff-gated, see `maybe_reopen_quarantined`) restores the
        // document from its journal, so the same request can succeed on a
        // later attempt.
        err @ WarehouseError::Quarantined { .. } => {
            error_response("quarantined", true, &err.to_string())
        }
        // Raw storage failures (a failed fsync, an injected fault, a full
        // disk that later clears) are the transient class the retry
        // guidance in README "Failure model & recovery" is about.
        err @ WarehouseError::Store(_) => error_response("engine", true, &err.to_string()),
        // A tree no stored document can hold, or an insert that would land
        // too deep: the client's to fix, not the engine's.
        err @ WarehouseError::Core(
            CoreError::Tree(TreeError::Unstorable(_)) | CoreError::InsertionTooDeep(_),
        ) => error_response("bad-payload", false, &err.to_string()),
        other => error_response("engine", false, &other.to_string()),
    }
}

/// Tenant ids and document names share one safety rule: short, ASCII, no
/// path separators, no leading dot — a tenant id becomes a directory name
/// under the storage root.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl ServerInner {
    fn execute(&self, request: &RawRequest, backlog: &mut AsyncBacklog) -> RawResponse {
        if !valid_name(&request.tenant) {
            return error_response(
                "bad-tenant",
                false,
                "tenant id must be 1-64 chars of [A-Za-z0-9._-], not starting with `.`",
            );
        }
        match request.tag {
            // Observability bypasses admission: stats must answer exactly
            // when the gates are full. Being admission-free it must also
            // stay harmless, so it only looks at already-resident tenants —
            // a lazy open here would let an unthrottled probe create
            // storage directories and evict live tenants.
            tag::STATS => match self.resident_tenant(&request.tenant) {
                Some(tenant) => stats_response(&tenant.warehouse),
                None => error_response(
                    "not-resident",
                    false,
                    &format!(
                        "tenant `{}` is not resident; touch it with a gated request first",
                        request.tenant
                    ),
                ),
            },
            tag::OPEN | tag::QUERY | tag::COMMIT | tag::COMMIT_ASYNC | tag::SNAPSHOT => {
                self.admitted(request, backlog)
            }
            other => error_response(
                "unknown-tag",
                false,
                &format!("unknown request tag 0x{other:02x}"),
            ),
        }
    }

    /// The gated path: global budget, tenant resolution, tenant budget,
    /// then the actual operation. Shedding releases every slot it took.
    fn admitted(&self, request: &RawRequest, backlog: &mut AsyncBacklog) -> RawResponse {
        let timeout = self.config.admission_timeout;
        if !self.global.try_enter(timeout) {
            let response = busy_response(
                "global",
                &format!(
                    "global in-flight budget of {} exhausted for {:?}",
                    self.config.global_inflight, timeout
                ),
            );
            return response;
        }
        let response = match self.resolve_tenant(&request.tenant) {
            Err(response) => response,
            Ok(tenant) => {
                if !tenant.gate.try_enter(timeout) {
                    busy_response(
                        "tenant",
                        &format!(
                            "tenant `{}` in-flight budget of {} exhausted for {:?}",
                            tenant.name, self.config.tenant_inflight, timeout
                        ),
                    )
                } else {
                    let response = self.dispatch(&tenant, request, backlog);
                    tenant.gate.leave();
                    response
                }
            }
        };
        self.global.leave();
        response
    }

    /// Stats-path lookup: already-resident tenants only, never a lazy
    /// open. Does not bump the LRU stamp — observability must not perturb
    /// eviction order. The returned `Arc` keeps the tenant safe from
    /// eviction while the stats frame is built (`strong_count > 1`).
    fn resident_tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().get(name).map(Arc::clone)
    }

    /// Looks a tenant up, lazily opening its warehouse and LRU-evicting an
    /// unheld one when over capacity. The registry lock is held across the
    /// lazy open (so two connections cannot open the same tenant twice);
    /// the evicted warehouse's barrier runs *after* the lock is released.
    fn resolve_tenant(&self, name: &str) -> Result<Arc<Tenant>, RawResponse> {
        let stamp = self.clock.fetch_add(1, Ordering::AcqRel);
        let mut evicted: Option<Arc<Tenant>> = None;
        let resolved = {
            let mut tenants = self.tenants.lock();
            if let Some(tenant) = tenants.get(name) {
                tenant.last_used.store(stamp, Ordering::Release);
                Arc::clone(tenant)
            } else {
                let opened = self.open_tenant(name)?;
                let tenant = Arc::new(Tenant {
                    name: name.to_string(),
                    warehouse: opened,
                    gate: Gate::new(self.config.tenant_inflight),
                    last_used: AtomicU64::new(stamp),
                    reopen_at_ms: AtomicU64::new(0),
                    reopen_backoff_ms: AtomicU64::new(REOPEN_BACKOFF_MIN_MS),
                });
                tenants.insert(name.to_string(), Arc::clone(&tenant));
                if tenants.len() > self.config.max_tenants {
                    // Evict the least-recently-used tenant that no request
                    // holds. "Holds" means `Arc` holders, not gate
                    // occupancy: a request clones the `Arc` (under this
                    // lock) before it enters the tenant gate, and the
                    // stats path never enters the gate at all — judging
                    // busyness by the gate would evict a tenant a request
                    // is about to use. With the registry lock held,
                    // `strong_count == 1` means the map entry is the sole
                    // reference and no new holder can appear until the
                    // lock is released. A tenant whose warehouse is writing
                    // a checkpoint is skipped the same way, and no unheld
                    // tenant can begin a fold. If every other tenant is held
                    // or folding, overshoot instead: dropping a warehouse
                    // that can still write would let a re-opened backend
                    // race it on the same files.
                    let victim = tenants
                        .values()
                        .filter(|t| {
                            t.name != name
                                && Arc::strong_count(t) == 1
                                && !t.warehouse.fold_in_flight()
                        })
                        .min_by_key(|t| t.last_used.load(Ordering::Acquire))
                        .map(|t| t.name.clone());
                    if let Some(victim) = victim {
                        evicted = tenants.remove(&victim);
                    }
                }
                tenant
            }
        };
        if let Some(evicted) = evicted {
            evicted.warehouse.group_barrier();
        }
        Ok(resolved)
    }

    fn open_tenant(&self, name: &str) -> Result<Warehouse, RawResponse> {
        let options = FsOptions {
            commit: self.config.session.commit,
            ..self.config.fs.clone()
        };
        let backend =
            FsBackend::with_options(self.config.root.join(name), options).map_err(|err| {
                error_response("engine", true, &format!("opening tenant `{name}`: {err}"))
            })?;
        Warehouse::with_backend(Arc::new(backend), self.config.session).map_err(|err| {
            error_response(
                "engine",
                true,
                &format!("recovering tenant `{name}`: {err}"),
            )
        })
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Backoff-gated quarantine auto-reopen. If `doc` is quarantined and
    /// the tenant's backoff window has elapsed, one request (the winner of
    /// the CAS on `reopen_at_ms`) replays the document's journal via
    /// [`Warehouse::reopen_document`]; everyone else proceeds and gets the
    /// typed `quarantined` (retryable) error until the re-open lands. A
    /// failed re-open doubles the backoff up to the cap so a persistently
    /// broken disk is probed, not hammered.
    fn maybe_reopen_quarantined(&self, tenant: &Tenant, doc: &str) {
        if !tenant.warehouse.is_quarantined(doc) {
            return;
        }
        let now = self.now_ms();
        let at = tenant.reopen_at_ms.load(Ordering::Acquire);
        if now < at {
            return;
        }
        let backoff = tenant.reopen_backoff_ms.load(Ordering::Acquire);
        if tenant
            .reopen_at_ms
            .compare_exchange(at, now + backoff, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Another request claimed this attempt.
            return;
        }
        match tenant.warehouse.reopen_document(doc) {
            Ok(()) => {
                tenant
                    .reopen_backoff_ms
                    .store(REOPEN_BACKOFF_MIN_MS, Ordering::Release);
                tenant.reopen_at_ms.store(now, Ordering::Release);
            }
            // The quarantine stays; the client keeps getting the typed
            // retryable error while the backoff runs.
            Err(_) => {
                tenant
                    .reopen_backoff_ms
                    .store((backoff * 2).min(REOPEN_BACKOFF_MAX_MS), Ordering::Release);
            }
        }
    }

    fn dispatch(
        &self,
        tenant: &Tenant,
        request: &RawRequest,
        backlog: &mut AsyncBacklog,
    ) -> RawResponse {
        let (doc, rest) = match split_doc_payload(&request.payload) {
            Ok(parts) => parts,
            Err(message) => return error_response("bad-payload", false, &message),
        };
        if !valid_name(&doc) {
            return error_response(
                "bad-name",
                false,
                "document name must be 1-64 chars of [A-Za-z0-9._-], not starting with `.`",
            );
        }
        self.maybe_reopen_quarantined(tenant, &doc);
        let warehouse = &tenant.warehouse;
        match request.tag {
            tag::OPEN => match warehouse.snapshot(&doc) {
                Ok(snapshot) => ok_response(format!("opened {doc} seq={}", snapshot.seq())),
                Err(WarehouseError::UnknownDocument(_)) if !rest.trim().is_empty() => {
                    let tree = match parse_data_tree(rest.trim()) {
                        Ok(tree) => tree,
                        Err(err) => return error_response("bad-payload", false, &err.to_string()),
                    };
                    match warehouse.create_document(&doc, tree) {
                        Ok(()) => ok_response(format!("created {doc}")),
                        // Lost a creation race: the document exists now,
                        // which is what `open` asked for.
                        Err(WarehouseError::DuplicateDocument(_)) => {
                            ok_response(format!("opened {doc}"))
                        }
                        Err(err) => engine_error(err),
                    }
                }
                Err(err) => engine_error(err),
            },
            tag::QUERY => {
                let pattern = match Pattern::parse(rest.trim()) {
                    Ok(pattern) => pattern,
                    Err(err) => return error_response("bad-pattern", false, &err.to_string()),
                };
                match warehouse.query_merged(&doc, &pattern) {
                    Ok(merged) => {
                        let (seq, selection) = (merged.seq, merged.selection);
                        let mut answers = XmlElement::new("pxml:answers")
                            .with_attribute("seq", seq.to_string())
                            .with_attribute("selection", selection.to_string());
                        for (tree, probability) in &merged.answers {
                            let mut answer = XmlElement::new("pxml:answer")
                                .with_attribute("probability", probability.to_string());
                            answer = answer.with_child(data_tree_to_xml(tree).root);
                            answers = answers.with_child(answer);
                        }
                        let mut xml = String::new();
                        answers.write_xml(&mut xml, false, 0);
                        RawResponse {
                            tag: tag::ANSWERS,
                            payload: format!("{seq}\n{selection}\n{xml}").into_bytes(),
                        }
                    }
                    Err(err) => engine_error(err),
                }
            }
            tag::COMMIT => {
                let batch = match parse_batch(&rest) {
                    Ok(batch) => batch,
                    Err(err) => return error_response("bad-payload", false, &err.to_string()),
                };
                match warehouse.commit_batch(&doc, &batch, None) {
                    Ok(stats) => ok_response(format!("applied={}", stats.len())),
                    Err(err) => engine_error(err),
                }
            }
            tag::COMMIT_ASYNC => {
                let batch = match parse_batch(&rest) {
                    Ok(batch) => batch,
                    Err(err) => return error_response("bad-payload", false, &err.to_string()),
                };
                // Bound the un-drained ticket backlog: wait out the oldest
                // before accepting more.
                if backlog.pending.len() >= MAX_PENDING_ASYNC {
                    backlog.settle_oldest();
                }
                match warehouse.commit_batch_async(&doc, &batch, None) {
                    Ok(commit) => {
                        let applied = commit.stats().len();
                        backlog.pending.push_back(commit);
                        RawResponse {
                            tag: tag::ACCEPTED,
                            payload: format!("applied={applied} pending={}", backlog.pending.len())
                                .into_bytes(),
                        }
                    }
                    Err(err) => engine_error(err),
                }
            }
            tag::SNAPSHOT => match warehouse.snapshot(&doc) {
                Ok(snapshot) => {
                    let prxml = serialize_fuzzy_document(snapshot.fuzzy(), false);
                    RawResponse {
                        tag: tag::SNAPSHOT_DATA,
                        payload: format!("{}\n{prxml}", snapshot.seq()).into_bytes(),
                    }
                }
                Err(err) => engine_error(err),
            },
            other => error_response(
                "unknown-tag",
                false,
                &format!("unknown request tag 0x{other:02x}"),
            ),
        }
    }
}

/// The `stats` frame payload: one `<pxml:stats …/>` element. The occupancy
/// attribute comes from [`pxml_store::DurabilityStats::mean_window_occupancy`],
/// which reports `0.0` (not NaN) for tenants that never flushed a grouped
/// window — fresh sync-policy tenants included.
fn stats_response(warehouse: &Warehouse) -> RawResponse {
    let stats = warehouse.stats();
    let durability = stats.durability;
    let quarantined = warehouse.quarantined_documents();
    let quarantined_names = quarantined
        .iter()
        .map(|(name, _)| name.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let element = XmlElement::new("pxml:stats")
        .with_attribute("quarantined_docs", quarantined.len().to_string())
        .with_attribute("quarantined", quarantined_names)
        .with_attribute("updates_applied", stats.updates_applied.to_string())
        .with_attribute("queries_evaluated", stats.queries_evaluated.to_string())
        .with_attribute("checkpoints", stats.checkpoints.to_string())
        .with_attribute("folds_failed", stats.folds_failed.to_string())
        .with_attribute("fsyncs", durability.fsyncs.to_string())
        .with_attribute("grouped_commits", durability.grouped_commits.to_string())
        .with_attribute("grouped_windows", durability.grouped_windows.to_string())
        .with_attribute(
            "mean_window_occupancy",
            format!("{:.4}", durability.mean_window_occupancy()),
        );
    let mut xml = String::new();
    element.write_xml(&mut xml, false, 0);
    RawResponse {
        tag: tag::STATS_DATA,
        payload: xml.into_bytes(),
    }
}
