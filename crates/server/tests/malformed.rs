//! Malformed-frame battery: hostile or broken byte streams must get a
//! typed error frame or a dropped connection — never a panic, and never a
//! poisoned tenant warehouse — and hostile *content* in well-formed frames
//! must be served as the distribution it denotes.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pxml_core::{FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_query::Pattern;
use pxml_server::frame::{read_response, tag, FrameError, DEFAULT_MAX_FRAME_BYTES};
use pxml_server::{Client, ClientError, Server, ServerConfig};
use pxml_store::{parse_batch, StoreError};
use pxml_tree::parse_data_tree;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-server-malformed-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

/// A correctly framed request, built by hand so tests can also build
/// incorrect ones next to it.
fn raw_request(tag: u8, tenant: &[u8], payload: &[u8]) -> Vec<u8> {
    let len = 1 + 1 + tenant.len() + payload.len();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.push(tag);
    frame.push(tenant.len() as u8);
    frame.extend_from_slice(tenant);
    frame.extend_from_slice(payload);
    frame
}

fn expect_error_code(stream: &mut TcpStream, want: &str) {
    let response = read_response(stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(response.tag, tag::ERROR, "expected an error frame");
    let text = response.text();
    let code = text.split('\n').next().unwrap_or("");
    assert_eq!(code, want, "full error payload: {text}");
}

fn expect_dropped(stream: &mut TcpStream) {
    // The server must close; the read must end in EOF (or a reset), not a
    // response frame and not a hang.
    match read_response(stream, DEFAULT_MAX_FRAME_BYTES) {
        Err(FrameError::Closed) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {}
        other => panic!("expected the connection to drop, got {other:?}"),
    }
}

/// After each hostile stream, the same tenant must still serve a
/// well-formed client: nothing panicked server-side and no warehouse state
/// was poisoned.
fn assert_tenant_alive(server: &Server) {
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    client
        .open(
            "health",
            Some("<directory><person><name>alice</name></person></directory>"),
        )
        .unwrap();
    let answers = client.query("health", "person { name }").unwrap();
    assert_eq!(answers.answers.len(), 1);
}

#[test]
fn truncated_length_prefix_drops_the_connection() {
    let dir = scratch("truncated-prefix");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Two of the four length bytes, then goodbye.
    stream.write_all(&[0x00, 0x01]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    expect_dropped(&mut stream);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_declared_length_gets_typed_error_then_drop() {
    let dir = scratch("oversized");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Declares a 4 GiB frame; the server must refuse before allocating.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.write_all(&[tag::OPEN]).unwrap();
    expect_error_code(&mut stream, "malformed");
    expect_dropped(&mut stream);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_frame_gets_typed_error_then_drop() {
    let dir = scratch("zero-length");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    expect_error_code(&mut stream, "malformed");
    expect_dropped(&mut stream);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_tag_gets_typed_error_and_connection_survives() {
    let dir = scratch("unknown-tag");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A tag never assigned, then the retired `SIMPLIFY` tag, sent once the
    // document it names exists (the first round's open creates it).
    for unknown in [0x7F, 0x06] {
        stream
            .write_all(&raw_request(unknown, b"acme", b"doc"))
            .unwrap();
        let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(response.tag, tag::ERROR, "tag 0x{unknown:02x}");
        let text = response.text();
        let mut fields = text.split('\n');
        assert_eq!(
            fields.next(),
            Some("unknown-tag"),
            "full error payload: {text}"
        );
        assert_eq!(fields.next(), Some("final"), "full error payload: {text}");
        // Framing was intact, so the connection stays usable: a valid open
        // (which makes the tenant resident) and then a stats request on the
        // same stream must both answer.
        stream
            .write_all(&raw_request(tag::OPEN, b"acme", b"doc\n<doc/>"))
            .unwrap();
        let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(response.tag, tag::OK);
        stream
            .write_all(&raw_request(tag::STATS, b"acme", b""))
            .unwrap();
        let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(response.tag, tag::STATS_DATA);
    }

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_disconnect_is_survived() {
    let dir = scratch("mid-frame");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Declares 100 bytes, delivers 10, disconnects.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[tag::COMMIT]).unwrap();
    stream.write_all(b"012345678").unwrap();
    drop(stream);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_header_past_frame_end_gets_typed_error_then_drop() {
    let dir = scratch("bad-header");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A 3-byte frame whose header declares a 200-byte tenant id.
    let mut frame = Vec::new();
    frame.extend_from_slice(&3u32.to_be_bytes());
    frame.push(tag::OPEN);
    frame.push(200);
    frame.push(b'x');
    stream.write_all(&frame).unwrap();
    expect_error_code(&mut stream, "malformed");
    expect_dropped(&mut stream);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_utf8_tenant_gets_typed_error_then_drop() {
    let dir = scratch("bad-utf8");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&raw_request(tag::OPEN, &[0xFF, 0xFE], b"doc\n"))
        .unwrap();
    expect_error_code(&mut stream, "malformed");
    expect_dropped(&mut stream);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_tenant_and_bad_doc_names_are_typed_errors_on_a_live_connection() {
    let dir = scratch("bad-names");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Path traversal in the tenant id must never reach the file system.
    stream
        .write_all(&raw_request(tag::OPEN, b"../escape", b"doc\n<doc/>"))
        .unwrap();
    expect_error_code(&mut stream, "bad-tenant");
    stream
        .write_all(&raw_request(
            tag::OPEN,
            b"acme",
            b"../../etc/passwd\n<doc/>",
        ))
        .unwrap();
    expect_error_code(&mut stream, "bad-name");
    // Garbage XML payload: typed error, connection stays usable.
    stream
        .write_all(&raw_request(tag::OPEN, b"acme", b"doc\n<unclosed"))
        .unwrap();
    expect_error_code(&mut stream, "bad-payload");
    stream
        .write_all(&raw_request(tag::STATS, b"acme", b""))
        .unwrap();
    let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(response.tag, tag::STATS_DATA);
    // Nothing escaped the storage root.
    assert!(!dir.join("..").join("escape").exists());

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A payload nested far past `MAX_NESTING_DEPTH` — small next to the frame
/// cap, deep enough to overflow a handler's stack if a parser recursed into
/// it — must be a final typed error naming the bound, on a connection and a
/// server that keep serving.
fn assert_deep_payload_is_refused(label: &str, request_tag: u8, payload: String, code: &str) {
    let dir = scratch(label);
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&raw_request(request_tag, b"acme", payload.as_bytes()))
        .unwrap();
    let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(response.tag, tag::ERROR);
    let text = response.text();
    assert!(text.starts_with(&format!("{code}\nfinal\n")), "{text}");
    assert!(text.contains("deeper than 256"), "{text}");
    stream
        .write_all(&raw_request(tag::STATS, b"acme", b""))
        .unwrap();
    let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(response.tag, tag::STATS_DATA);

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn deep_xml(levels: usize) -> String {
    "<a>".repeat(levels) + &"</a>".repeat(levels)
}

#[test]
fn deeply_nested_open_content_is_a_typed_error() {
    let payload = format!("doc\n{}", deep_xml(10_000));
    assert_deep_payload_is_refused("deep-open", tag::OPEN, payload, "bad-payload");
}

#[test]
fn deeply_nested_commit_batch_is_a_typed_error() {
    let payload = format!(
        "doc\n<pxml:batch><pxml:update confidence=\"0.5\" query=\"a\">\
         <pxml:insert target=\"0\">{}</pxml:insert></pxml:update></pxml:batch>",
        deep_xml(10_000)
    );
    assert_deep_payload_is_refused("deep-commit", tag::COMMIT, payload, "bad-payload");
}

#[test]
fn deeply_nested_query_pattern_is_a_typed_error() {
    let payload = format!("doc\n{}a{}", "a{".repeat(100_000), "}".repeat(100_000));
    assert_deep_payload_is_refused("deep-query", tag::QUERY, payload, "bad-pattern");
}

/// `pxml:text` is the element a checkpoint wraps conditional text in, so a
/// data element of that name would come back from the next fold or restart
/// as bare text: OPEN and COMMIT refuse it as a final `bad-payload` on a
/// connection that keeps serving, and the two parsers behind them return
/// their typed errors.
#[test]
fn the_reserved_text_element_is_refused_at_open_and_commit() {
    let reserved = "<r><a><pxml:text>hi</pxml:text></a></r>";
    assert!(parse_data_tree(reserved).is_err());
    assert!(parse_data_tree("<r><a pxml:text=\"hi\"/></r>").is_err());
    let batch = format!(
        "<pxml:batch><pxml:update confidence=\"0.5\" query=\"a\">\
         <pxml:insert target=\"0\">{reserved}</pxml:insert></pxml:update></pxml:batch>"
    );
    assert!(matches!(parse_batch(&batch), Err(StoreError::Xml(_))));

    let dir = scratch("reserved-text");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    match client.open("doc", Some(reserved)) {
        Err(ClientError::Server { code, message, .. }) => {
            assert_eq!(code, "bad-payload");
            assert!(message.contains("pxml:text"), "{message}");
        }
        other => panic!("expected a bad-payload error, got {other:?}"),
    }
    client.open("doc", Some("<r><a/></r>")).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&raw_request(
            tag::COMMIT,
            b"acme",
            format!("doc\n{batch}").as_bytes(),
        ))
        .unwrap();
    expect_error_code(&mut stream, "bad-payload");
    let answers = client.query("doc", "a { * }").unwrap();
    assert!(answers.answers.is_empty(), "nothing was inserted");

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_client_frame_is_capped_by_config() {
    let dir = scratch("cap");
    let mut config = ServerConfig::new(&dir);
    config.max_frame_bytes = 256;
    let server = Server::start(config).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // 300 declared > 256 cap: refused even though it is a "real" frame.
    stream
        .write_all(&raw_request(tag::OPEN, b"acme", &vec![b'x'; 300 - 6]))
        .unwrap();
    expect_error_code(&mut stream, "malformed");
    expect_dropped(&mut stream);

    // A small frame fits under the cap on a fresh connection.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&raw_request(tag::OPEN, b"acme", b"doc\n<doc/>"))
        .unwrap();
    let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(response.tag, tag::OK);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that connects and then says nothing must be reaped by the idle
/// read deadline — handler threads and socket buffers are not pinned
/// forever by silent clients. Same for a peer that stalls mid-frame.
#[test]
fn silent_and_stalled_clients_are_reaped_by_the_idle_deadline() {
    let dir = scratch("idle-reap");
    let mut config = ServerConfig::new(&dir);
    config.idle_timeout = Duration::from_millis(150);
    let server = Server::start(config).unwrap();

    // Fully silent peer: never sends a byte.
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    // Stalled peer: half a length prefix, then nothing.
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    stalled.write_all(&[0x00, 0x00]).unwrap();

    let start = Instant::now();
    expect_dropped(&mut silent);
    expect_dropped(&mut stalled);
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(100),
        "reaped suspiciously early ({elapsed:?}) — deadline not in effect?"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "reap took {elapsed:?}; the idle deadline is not being enforced"
    );

    // The reap was clean: the same server keeps serving well-formed
    // clients.
    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-frame disconnects while real work is interleaved: the classic
/// "poisoning" vector. Ten hostile streams race ten healthy commits; at
/// the end the document must answer with everything the healthy clients
/// committed.
#[test]
fn hostile_streams_do_not_poison_concurrent_tenants() {
    let dir = scratch("poison-race");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let addr = server.local_addr();

    let mut setup = Client::connect(addr, "acme").unwrap();
    setup
        .open(
            "doc",
            Some("<directory><person><name>alice</name></person></directory>"),
        )
        .unwrap();

    std::thread::scope(|scope| {
        for _ in 0..10 {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let _ = stream.write_all(&997u32.to_be_bytes());
                let _ = stream.write_all(&[tag::COMMIT, 4]);
                let _ = stream.write_all(b"acme partial");
                drop(stream);
            });
            scope.spawn(move || {
                let mut client = Client::connect(addr, "acme").unwrap();
                let answers = client.query("doc", "person { name }").unwrap();
                assert_eq!(answers.answers.len(), 1);
            });
        }
    });

    assert_tenant_alive(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A text value that spells out the tail of the canonical form of
/// `b { "x" }, c { "y" }`: under a canonical-form writer that does not
/// escape labels, `a { b { <this> } }` and `a { b { "x" }, c { "y" } }` key
/// alike and the simplifier merges them. (First entry of ROADMAP open item
/// 3's fuzz corpus.)
const HOSTILE_VALUE: &str = "x[⊤]),e|c[⊤](t|y";

/// The document holding [`HOSTILE_VALUE`].
const HOSTILE_DOCUMENT: &str = "<r><a><b>x[⊤]),e|c[⊤](t|y</b></a></r>";

/// Three well-formed requests — a create and two commits under the server's
/// default inline simplification — leave the hostile `a` and an honest `a`
/// as siblings under complementary conditions. The served document must
/// denote what the same history denotes in process with the simplifier off:
/// two worlds, not one certain tree.
#[test]
fn hostile_text_value_cannot_make_the_simplifier_merge_different_subtrees() {
    let insert = {
        let pattern = Pattern::parse("/r").unwrap();
        let root = pattern.root();
        UpdateTransaction::new(pattern, 0.5)
            .unwrap()
            .with_insert(root, parse_data_tree("<a><b>x</b><c>y</c></a>").unwrap())
    };
    let delete = {
        let pattern = Pattern::parse(&format!(
            "/r {{ a {{ c }}, a {{ b[=\"{HOSTILE_VALUE}\"] }} }}"
        ))
        .unwrap();
        let second_a = pattern.node_ids().nth(3).unwrap();
        UpdateTransaction::new(pattern, 1.0)
            .unwrap()
            .with_delete(second_a)
    };

    let mut expected = FuzzyTree::from_tree(parse_data_tree(HOSTILE_DOCUMENT).unwrap());
    for update in [&insert, &delete] {
        let stats = update
            .apply_to_fuzzy_with(&mut expected, SimplifyPolicy::Never)
            .unwrap();
        assert_eq!(stats.applied_matches, 1);
    }
    let expected = expected.to_possible_worlds().unwrap();
    assert_eq!(expected.len(), 2);

    let dir = scratch("hostile-value");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    client.open("doc", Some(HOSTILE_DOCUMENT)).unwrap();
    client.commit("doc", &[insert]).unwrap();
    client.commit("doc", &[delete]).unwrap();
    let (_, served) = client.snapshot("doc").unwrap();
    let served = served.to_possible_worlds().unwrap();
    assert!(
        served.equivalent(&expected, 1e-12),
        "served {} worlds, the history denotes {}",
        served.len(),
        expected.len()
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
