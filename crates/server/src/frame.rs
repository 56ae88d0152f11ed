//! The wire framing layer: length-prefixed frames and their tags.
//!
//! Every message is one frame. A **request** frame carries the tenant id in
//! its header — the server routes each frame to that tenant's warehouse:
//!
//! ```text
//! [len: u32 BE] [tag: u8] [tlen: u8] [tenant: tlen bytes, UTF-8] [payload]
//! ```
//!
//! A **response** frame is the same minus the tenant header:
//!
//! ```text
//! [len: u32 BE] [tag: u8] [payload]
//! ```
//!
//! `len` counts everything after itself (so `tag` and the tenant header are
//! included); payloads are UTF-8 text, XML for anything tree-shaped (update
//! batches travel as the journal's `<pxml:batch>` form, snapshots as the
//! store's PrXML document form). A declared length of zero or above the
//! configured cap is a framing error — the peer is answered with a typed
//! [`tag::ERROR`] frame where possible and the connection is dropped, never
//! trusted further. See README "Serving" for the full frame/tag table.

use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on a frame's declared length (16 MiB). Guards the server
/// against a hostile or corrupted length prefix allocating unbounded memory.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Frame tags. Requests use the low range, responses the high range; the
/// numbering leaves gaps for future verbs without renumbering.
pub mod tag {
    /// Open (or create, when the payload carries initial XML) a document.
    pub const OPEN: u8 = 0x01;
    /// Evaluate a tree pattern; answers come back merged with exact
    /// probabilities.
    pub const QUERY: u8 = 0x02;
    /// Synchronous commit: acknowledged once durable.
    pub const COMMIT: u8 = 0x03;
    /// Asynchronous commit: acknowledged at enqueue (the logical commit),
    /// durability arrives with the group-commit window and is reported at
    /// `CLOSE`.
    pub const COMMIT_ASYNC: u8 = 0x04;
    /// Pin and serialize the document's current snapshot — never blocks on
    /// (or is blocked by) writers.
    pub const SNAPSHOT: u8 = 0x05;
    // 0x06 is retired (the former `SIMPLIFY` verb) and must not be reused.
    /// Tenant-level warehouse counters.
    pub const STATS: u8 = 0x07;
    /// Drain this connection's pending async commits and say goodbye.
    pub const CLOSE: u8 = 0x08;

    /// Generic success, human-readable payload.
    pub const OK: u8 = 0x80;
    /// Query answers: `seq\nselection\n` + `<pxml:answers>` XML.
    pub const ANSWERS: u8 = 0x81;
    /// Snapshot: `seq\n` + PrXML document.
    pub const SNAPSHOT_DATA: u8 = 0x82;
    /// Stats: one `<pxml:stats …/>` element.
    pub const STATS_DATA: u8 = 0x83;
    /// Async commit accepted (applied + enqueued, not yet durable).
    pub const ACCEPTED: u8 = 0x84;
    /// Typed failure: `code\nretryable\nmessage`, where `retryable` is
    /// `retry` (transient — the same request may succeed later, e.g. a
    /// quarantined document the server is re-opening) or `final` (retrying
    /// verbatim cannot help: bad names, malformed payloads, missing
    /// documents).
    pub const ERROR: u8 = 0xC0;
    /// Admission control shed this request: `scope\nmessage` where scope is
    /// `global` or `tenant`. Retry later; nothing was executed.
    pub const BUSY: u8 = 0xC1;
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary — the peer closed normally.
    Closed,
    /// The stream ended (or errored) mid-frame: a truncated length prefix
    /// or a disconnect between header and payload.
    Truncated,
    /// The declared length is zero or exceeds the configured cap.
    Oversized { declared: u32, max: u32 },
    /// The frame decoded but its header is nonsense (tenant length past the
    /// frame end, non-UTF-8 tenant bytes, …).
    BadHeader(String),
    /// Transport error other than a mid-frame EOF.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { declared, max } => {
                write!(
                    f,
                    "declared frame length {declared} exceeds the cap of {max} bytes"
                )
            }
            FrameError::BadHeader(msg) => write!(f, "malformed frame header: {msg}"),
            FrameError::Io(err) => write!(f, "frame transport error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRequest {
    pub tag: u8,
    pub tenant: String,
    pub payload: Vec<u8>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawResponse {
    pub tag: u8,
    pub payload: Vec<u8>,
}

impl RawResponse {
    /// The payload as text (responses are always UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }
}

/// Writes one request frame as a single `write_all` (one syscall on an
/// unbuffered socket — latency matters more than throughput per frame).
pub fn write_request(w: &mut impl Write, tag: u8, tenant: &str, payload: &[u8]) -> io::Result<()> {
    assert!(
        tenant.len() <= u8::MAX as usize,
        "tenant id longer than 255 bytes"
    );
    let len = 1 + 1 + tenant.len() + payload.len();
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.push(tag);
    frame.push(tenant.len() as u8);
    frame.extend_from_slice(tenant.as_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Writes one response frame as a single `write_all`.
pub fn write_response(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = 1 + payload.len();
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.push(tag);
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Reads `[len][body…]`, enforcing the length cap *before* allocating.
/// Distinguishes a clean close (EOF before any length byte) from a
/// mid-frame truncation.
fn read_body(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    let declared = u32::from_be_bytes(len_buf);
    if declared == 0 || declared > max_len {
        return Err(FrameError::Oversized {
            declared,
            max: max_len,
        });
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(err)
        }
    })?;
    Ok(body)
}

/// Reads and decodes one request frame.
pub fn read_request(r: &mut impl Read, max_len: u32) -> Result<RawRequest, FrameError> {
    let body = read_body(r, max_len)?;
    if body.len() < 2 {
        return Err(FrameError::BadHeader(
            "frame shorter than tag + tenant length".into(),
        ));
    }
    let tag = body[0];
    let tlen = body[1] as usize;
    if body.len() < 2 + tlen {
        return Err(FrameError::BadHeader(format!(
            "tenant length {tlen} runs past the {}-byte frame",
            body.len()
        )));
    }
    let tenant = std::str::from_utf8(&body[2..2 + tlen])
        .map_err(|_| FrameError::BadHeader("tenant id is not UTF-8".into()))?
        .to_string();
    Ok(RawRequest {
        tag,
        tenant,
        payload: body[2 + tlen..].to_vec(),
    })
}

/// Reads and decodes one response frame.
pub fn read_response(r: &mut impl Read, max_len: u32) -> Result<RawResponse, FrameError> {
    let body = read_body(r, max_len)?;
    if body.is_empty() {
        return Err(FrameError::BadHeader("frame missing its tag byte".into()));
    }
    Ok(RawResponse {
        tag: body[0],
        payload: body[1..].to_vec(),
    })
}

/// Splits a `doc\n…rest` payload into the document name and the rest;
/// payloads with no newline are all name, no rest.
pub fn split_doc_payload(payload: &[u8]) -> Result<(String, String), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    match text.split_once('\n') {
        Some((doc, rest)) => Ok((doc.to_string(), rest.to_string())),
        None => Ok((text.to_string(), String::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_round_trip() {
        let mut buf = Vec::new();
        write_request(&mut buf, tag::QUERY, "acme", b"people\nperson { name }").unwrap();
        let req = read_request(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(req.tag, tag::QUERY);
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.payload, b"people\nperson { name }");
    }

    #[test]
    fn response_round_trip() {
        let mut buf = Vec::new();
        write_response(&mut buf, tag::OK, b"opened people").unwrap();
        let resp = read_response(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(resp.tag, tag::OK);
        assert_eq!(resp.text(), "opened people");
    }

    #[test]
    fn clean_eof_is_closed_mid_prefix_is_truncated() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_request(&mut Cursor::new(empty), 64),
            Err(FrameError::Closed)
        ));
        // Two of the four length bytes, then EOF: a truncated prefix.
        let partial: &[u8] = &[0x00, 0x00];
        assert!(matches!(
            read_request(&mut Cursor::new(partial), 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.push(tag::OPEN);
        assert!(matches!(
            read_request(&mut Cursor::new(&buf), 1024),
            Err(FrameError::Oversized {
                declared: u32::MAX,
                max: 1024
            })
        ));
    }

    #[test]
    fn tenant_length_past_frame_end_is_a_bad_header() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.push(tag::OPEN);
        buf.push(200); // declares a 200-byte tenant in a 3-byte frame
        buf.push(b'x');
        assert!(matches!(
            read_request(&mut Cursor::new(&buf), 1024),
            Err(FrameError::BadHeader(_))
        ));
    }
}
