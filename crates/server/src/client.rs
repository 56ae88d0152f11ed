//! `pxml-client`: the blocking client for the server's wire protocol.
//!
//! One [`Client`] wraps one TCP connection bound to one tenant; its methods
//! map 1:1 onto the request tags of [`crate::frame::tag`]. The harness's
//! E17 request-rate sweep and the server test suites drive the server
//! exclusively through this type, so it doubles as the protocol's
//! conformance reference.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_store::{parse_fuzzy_document, serialize_batch};
use pxml_tree::XmlDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::tag;
use crate::frame::{
    read_response, write_request, FrameError, RawResponse, DEFAULT_MAX_FRAME_BYTES,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport problem (connect, send, or a broken stream).
    Io(io::Error),
    /// The response frame could not be read or decoded.
    Frame(FrameError),
    /// Admission control shed the request (`scope` is `global` or
    /// `tenant`); nothing was executed, retry later.
    Busy { scope: String, message: String },
    /// The server answered with a typed error frame. `retryable` is the
    /// server's own judgement (the second payload line): `true` means the
    /// same request may succeed later — e.g. a quarantined document the
    /// server is re-opening — `false` means retrying verbatim cannot help.
    Server {
        code: String,
        retryable: bool,
        message: String,
    },
    /// The server answered with a frame the client cannot make sense of
    /// (unexpected tag, unparseable payload).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Frame(err) => write!(f, "response framing error: {err}"),
            ClientError::Busy { scope, message } => write!(f, "busy ({scope}): {message}"),
            ClientError::Server {
                code,
                retryable,
                message,
            } => {
                let kind = if *retryable { "retryable" } else { "final" };
                write!(f, "server error [{code}, {kind}]: {message}")
            }
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> Self {
        ClientError::Frame(err)
    }
}

impl ClientError {
    /// `true` when the failure is an admission-control shed — the caller
    /// may retry after backing off; nothing happened server-side.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy { .. })
    }

    /// `true` when the failure is transient and a retry may succeed:
    /// admission sheds, server errors the server itself marked retryable
    /// (quarantined documents under auto-reopen, raw storage failures),
    /// and socket timeouts. [`RetryPolicy`] retries exactly these.
    ///
    /// Caveat for timeouts: a timed-out read leaves the late response in
    /// the stream, desynchronizing this connection — reconnect before
    /// retrying (a [`RetryPolicy`] closure that dials a fresh [`Client`]
    /// does this naturally).
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Busy { .. } => true,
            ClientError::Server { retryable, .. } => *retryable,
            ClientError::Io(err) | ClientError::Frame(FrameError::Io(err)) => matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

/// One merged query answer: a distinct answer tree and its exact
/// probability.
#[derive(Debug, Clone)]
pub struct RemoteAnswer {
    /// Probability that this answer tree appears in a random world.
    pub probability: f64,
    /// The answer tree, serialized as plain XML.
    pub xml: String,
}

/// The decoded payload of an `answers` frame.
#[derive(Debug, Clone)]
pub struct RemoteAnswers {
    /// Commit sequence number of the snapshot the query ran against.
    pub seq: u64,
    /// Probability that the pattern matches at all.
    pub selection: f64,
    /// Merged answers, in document order of each distinct answer's first
    /// match (not sorted by probability).
    pub answers: Vec<RemoteAnswer>,
}

/// The decoded payload of a `stats` frame — a wire-side mirror of
/// [`pxml_warehouse::WarehouseStats`] plus the derived occupancy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteStats {
    pub updates_applied: usize,
    pub queries_evaluated: usize,
    pub simplifications: usize,
    pub checkpoints: usize,
    pub fsyncs: usize,
    pub grouped_commits: usize,
    pub grouped_windows: usize,
    /// Mean commits per flushed group-commit window; `0.0` on tenants that
    /// never flushed one (the server guarantees this is never NaN).
    pub mean_window_occupancy: f64,
    /// Documents currently quarantined after a failed commit (writes get
    /// typed retryable errors until the server's auto-reopen restores
    /// them; reads keep serving the last durable snapshot).
    pub quarantined_docs: usize,
    /// Names of those quarantined documents, sorted.
    pub quarantined: Vec<String>,
}

/// Socket-level tuning for a [`Client`] connection.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Read deadline per response; a server that stops answering surfaces
    /// as a transient timeout error instead of a hang. `None` blocks
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Write deadline per request frame.
    pub write_timeout: Option<Duration>,
    /// Cap on a response frame's declared length.
    pub max_frame_bytes: u32,
}

impl Default for ClientConfig {
    /// 30 s read and write deadlines (matching the server's default idle
    /// deadline) and the protocol's default frame cap.
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// A blocking protocol client: one TCP connection, one tenant.
pub struct Client {
    stream: TcpStream,
    tenant: String,
    max_frame_bytes: u32,
}

impl Client {
    /// Connects and binds every subsequent request to `tenant`, with the
    /// default [`ClientConfig`] (30 s socket deadlines).
    pub fn connect(addr: impl ToSocketAddrs, tenant: impl Into<String>) -> io::Result<Client> {
        Client::connect_with(addr, tenant, ClientConfig::default())
    }

    /// Connects with explicit socket tuning.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: impl Into<String>,
        config: ClientConfig,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Client {
            stream,
            tenant: tenant.into(),
            max_frame_bytes: config.max_frame_bytes,
        })
    }

    /// The tenant this connection is bound to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    fn call(&mut self, tag: u8, payload: &[u8]) -> Result<RawResponse, ClientError> {
        write_request(&mut self.stream, tag, &self.tenant, payload)?;
        let response = read_response(&mut self.stream, self.max_frame_bytes)?;
        match response.tag {
            tag::ERROR => {
                // Payload: `code\nretryable\nmessage`. An absent or
                // unrecognized retryable line (older peers) means final.
                let text = response.text();
                let (code, rest) = text.split_once('\n').unwrap_or((text.as_str(), ""));
                let (retryable, message) = rest.split_once('\n').unwrap_or((rest, ""));
                Err(ClientError::Server {
                    code: code.to_string(),
                    retryable: retryable == "retry",
                    message: message.to_string(),
                })
            }
            tag::BUSY => {
                let text = response.text();
                let (scope, message) = text.split_once('\n').unwrap_or((text.as_str(), ""));
                Err(ClientError::Busy {
                    scope: scope.to_string(),
                    message: message.to_string(),
                })
            }
            _ => Ok(response),
        }
    }

    fn expect(&mut self, tag: u8, payload: &[u8], want: u8) -> Result<RawResponse, ClientError> {
        let response = self.call(tag, payload)?;
        if response.tag != want {
            return Err(ClientError::Protocol(format!(
                "expected response tag 0x{want:02x}, got 0x{:02x}",
                response.tag
            )));
        }
        Ok(response)
    }

    /// Opens a document; when `content` is given and the document does not
    /// exist yet, creates it from that XML.
    pub fn open(&mut self, doc: &str, content: Option<&str>) -> Result<String, ClientError> {
        let payload = format!("{doc}\n{}", content.unwrap_or(""));
        Ok(self.expect(tag::OPEN, payload.as_bytes(), tag::OK)?.text())
    }

    /// Evaluates a tree-pattern query; answers come back merged with exact
    /// probabilities, all computed against one immutable snapshot.
    pub fn query(&mut self, doc: &str, pattern: &str) -> Result<RemoteAnswers, ClientError> {
        let payload = format!("{doc}\n{pattern}");
        let response = self.expect(tag::QUERY, payload.as_bytes(), tag::ANSWERS)?;
        parse_answers(&response.text())
    }

    /// Synchronous commit: returns once the batch is durable.
    pub fn commit(
        &mut self,
        doc: &str,
        batch: &[UpdateTransaction],
    ) -> Result<String, ClientError> {
        let payload = format!("{doc}\n{}", serialize_batch(batch));
        Ok(self
            .expect(tag::COMMIT, payload.as_bytes(), tag::OK)?
            .text())
    }

    /// Asynchronous commit: returns at enqueue (the logical commit — later
    /// reads see the batch), durability arrives with the group-commit
    /// window and is reported in the [`Client::close`] summary.
    pub fn commit_async(
        &mut self,
        doc: &str,
        batch: &[UpdateTransaction],
    ) -> Result<String, ClientError> {
        let payload = format!("{doc}\n{}", serialize_batch(batch));
        Ok(self
            .expect(tag::COMMIT_ASYNC, payload.as_bytes(), tag::ACCEPTED)?
            .text())
    }

    /// Pins and fetches the document's current snapshot — never blocked by
    /// writers — as `(commit sequence number, fuzzy tree)`.
    pub fn snapshot(&mut self, doc: &str) -> Result<(u64, FuzzyTree), ClientError> {
        let response = self.expect(tag::SNAPSHOT, doc.as_bytes(), tag::SNAPSHOT_DATA)?;
        let text = response.text();
        let (seq, prxml) = text
            .split_once('\n')
            .ok_or_else(|| ClientError::Protocol("snapshot frame missing seq line".into()))?;
        let seq: u64 = seq
            .trim()
            .parse()
            .map_err(|_| ClientError::Protocol(format!("bad snapshot seq `{seq}`")))?;
        let fuzzy = parse_fuzzy_document(prxml)
            .map_err(|err| ClientError::Protocol(format!("bad snapshot payload: {err}")))?;
        Ok((seq, fuzzy))
    }

    /// Runs the simplification pass over a document.
    pub fn simplify(&mut self, doc: &str) -> Result<String, ClientError> {
        Ok(self.expect(tag::SIMPLIFY, doc.as_bytes(), tag::OK)?.text())
    }

    /// Tenant-level warehouse counters. Never shed by admission control,
    /// but answers only for tenants already resident server-side — a
    /// never-touched (or evicted) tenant gets a typed `not-resident`
    /// error instead of being lazily opened.
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        let response = self.expect(tag::STATS, b"", tag::STATS_DATA)?;
        parse_stats(&response.text())
    }

    /// Drains this connection's pending async commits server-side and
    /// returns the drain summary. The connection is unusable afterwards.
    pub fn close(&mut self) -> Result<String, ClientError> {
        Ok(self.expect(tag::CLOSE, b"", tag::OK)?.text())
    }
}

/// Capped exponential backoff with seeded jitter for transient failures
/// ([`ClientError::is_transient`]): `Busy` sheds, server errors marked
/// retryable, socket timeouts.
///
/// Attempt `n` (0-based) sleeps `min(cap, base · 2ⁿ) · j` where `j` is
/// uniform in `[0.5, 1.0)` from a deterministic generator — seeded jitter
/// keeps a fleet of clients from re-converging on the same retry instant
/// while staying reproducible in tests and the harness.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries = 3` means at most
    /// 4 attempts).
    pub max_retries: usize,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Ceiling on any single backoff sleep (pre-jitter).
    pub cap: Duration,
    /// Jitter seed; two policies with the same seed sleep identically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 4 retries, 25 ms base, 1 s cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// The pre-sleep backoff durations this policy would use, in order —
    /// jittered, deterministic for a given seed. Exposed for tests and for
    /// callers that schedule their own sleeps.
    pub fn backoffs(&self) -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.max_retries)
            .map(|attempt| self.backoff(attempt, &mut rng))
            .collect()
    }

    fn backoff(&self, attempt: usize, rng: &mut StdRng) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt as u32).unwrap_or(u32::MAX))
            .min(self.cap);
        exp.mul_f64(0.5 + 0.5 * rng.gen::<f64>())
    }

    /// Runs `operation` until it succeeds, fails non-transiently, or the
    /// retry budget is spent (the last error is returned). The closure is
    /// the retry unit: have it dial a fresh [`Client`] when retrying after
    /// timeouts (a timed-out connection is desynchronized — see
    /// [`ClientError::is_transient`]).
    pub fn run<T>(
        &self,
        mut operation: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut attempt = 0;
        loop {
            match operation() {
                Ok(value) => return Ok(value),
                Err(error) if error.is_transient() && attempt < self.max_retries => {
                    std::thread::sleep(self.backoff(attempt, &mut rng));
                    attempt += 1;
                }
                Err(error) => return Err(error),
            }
        }
    }
}

fn parse_answers(text: &str) -> Result<RemoteAnswers, ClientError> {
    let mut lines = text.splitn(3, '\n');
    let seq = lines
        .next()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .ok_or_else(|| ClientError::Protocol("answers frame missing seq line".into()))?;
    let selection = lines
        .next()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .ok_or_else(|| ClientError::Protocol("answers frame missing selection line".into()))?;
    let xml = lines
        .next()
        .ok_or_else(|| ClientError::Protocol("answers frame missing XML body".into()))?;
    let document = XmlDocument::parse(xml)
        .map_err(|err| ClientError::Protocol(format!("bad answers XML: {err}")))?;
    let mut answers = Vec::new();
    for child in document.root.child_elements() {
        let probability = child
            .attribute("probability")
            .and_then(|p| p.parse::<f64>().ok())
            .ok_or_else(|| ClientError::Protocol("answer missing probability".into()))?;
        let tree = child
            .child_elements()
            .next()
            .ok_or_else(|| ClientError::Protocol("answer missing its tree".into()))?;
        let mut xml = String::new();
        tree.write_xml(&mut xml, false, 0);
        answers.push(RemoteAnswer { probability, xml });
    }
    Ok(RemoteAnswers {
        seq,
        selection,
        answers,
    })
}

fn parse_stats(text: &str) -> Result<RemoteStats, ClientError> {
    let document = XmlDocument::parse(text)
        .map_err(|err| ClientError::Protocol(format!("bad stats XML: {err}")))?;
    let attr_usize = |name: &str| -> Result<usize, ClientError> {
        document
            .root
            .attribute(name)
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| ClientError::Protocol(format!("stats frame missing `{name}`")))
    };
    let occupancy = document
        .root
        .attribute("mean_window_occupancy")
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| {
            ClientError::Protocol("stats frame missing `mean_window_occupancy`".into())
        })?;
    let quarantined: Vec<String> = document
        .root
        .attribute("quarantined")
        .map(|names| {
            names
                .split_whitespace()
                .map(|name| name.to_string())
                .collect()
        })
        .unwrap_or_default();
    Ok(RemoteStats {
        updates_applied: attr_usize("updates_applied")?,
        queries_evaluated: attr_usize("queries_evaluated")?,
        simplifications: attr_usize("simplifications")?,
        checkpoints: attr_usize("checkpoints")?,
        fsyncs: attr_usize("fsyncs")?,
        grouped_commits: attr_usize("grouped_commits")?,
        grouped_windows: attr_usize("grouped_windows")?,
        mean_window_occupancy: occupancy,
        quarantined_docs: attr_usize("quarantined_docs")?,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn retry_policy_backoffs_are_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(400),
            seed: 7,
        };
        let first = policy.backoffs();
        assert_eq!(first, policy.backoffs(), "same seed, same sleeps");
        assert_eq!(first.len(), 6);
        for (attempt, backoff) in first.iter().enumerate() {
            let exp = Duration::from_millis(100)
                .saturating_mul(1 << attempt.min(31))
                .min(Duration::from_millis(400));
            // Jitter keeps every sleep in [exp/2, exp).
            assert!(*backoff >= exp / 2 && *backoff < exp, "attempt {attempt}");
        }
        assert_ne!(
            first,
            RetryPolicy { seed: 8, ..policy }.backoffs(),
            "different seeds must not sleep in lockstep"
        );
    }

    #[test]
    fn transient_classification_follows_the_failure_taxonomy() {
        let busy = ClientError::Busy {
            scope: "global".into(),
            message: String::new(),
        };
        let retryable = ClientError::Server {
            code: "quarantined".into(),
            retryable: true,
            message: String::new(),
        };
        let fatal = ClientError::Server {
            code: "unknown-doc".into(),
            retryable: false,
            message: String::new(),
        };
        let timeout = ClientError::Io(io::Error::new(io::ErrorKind::WouldBlock, "timed out"));
        let frame_timeout = ClientError::Frame(FrameError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "timed out",
        )));
        let broken = ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "gone"));
        assert!(busy.is_transient());
        assert!(retryable.is_transient());
        assert!(timeout.is_transient());
        assert!(frame_timeout.is_transient());
        assert!(!fatal.is_transient());
        assert!(!broken.is_transient());
    }

    #[test]
    fn run_retries_transients_and_gives_up_on_final_errors() {
        let policy = RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        // Two sheds, then success.
        let calls = Cell::new(0usize);
        let result = policy.run(|| {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(ClientError::Busy {
                    scope: "tenant".into(),
                    message: String::new(),
                })
            } else {
                Ok(calls.get())
            }
        });
        assert_eq!(result.unwrap(), 3);
        // A final error is returned immediately, no retries.
        let calls = Cell::new(0usize);
        let result: Result<(), ClientError> = policy.run(|| {
            calls.set(calls.get() + 1);
            Err(ClientError::Server {
                code: "bad-name".into(),
                retryable: false,
                message: String::new(),
            })
        });
        assert!(matches!(result, Err(ClientError::Server { .. })));
        assert_eq!(calls.get(), 1);
        // A transient error that never clears exhausts the budget:
        // 1 attempt + max_retries.
        let calls = Cell::new(0usize);
        let result: Result<(), ClientError> = policy.run(|| {
            calls.set(calls.get() + 1);
            Err(ClientError::Busy {
                scope: "global".into(),
                message: String::new(),
            })
        });
        assert!(result.unwrap_err().is_busy());
        assert_eq!(calls.get(), 4);
    }
}
