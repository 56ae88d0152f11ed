//! What the smoke and hardening batteries share: a history whose replay
//! has to simplify as the live commits did, and the `SNAPSHOT` payload as
//! the server wrote it.

use std::net::{SocketAddr, TcpStream};

use pxml_core::UpdateTransaction;
use pxml_query::Pattern;
use pxml_server::frame::{read_response, tag, write_request};
use pxml_server::DEFAULT_MAX_FRAME_BYTES;
use pxml_tree::parse_data_tree;

/// `rounds` rounds of the paper's extract-then-clean loop, one batch per
/// commit, on a `<contact>` the first batch adds to the directory (so
/// `person` queries never see it): three uncertain phones and an uncertain
/// e-mail, then per round "an uncertain phone" and "`contact { phone,
/// email }`, delete the e-mail".
/// Every retraction splits each e-mail copy the earlier ones left, which
/// the inline simplifier wins back after every commit — a recovery that
/// replays these commits any other way publishes another tree.
pub fn extract_then_clean(rounds: usize) -> Vec<Vec<UpdateTransaction>> {
    let insert = |pattern: &str, xml: &str, confidence: f64| {
        let pattern = Pattern::parse(pattern).unwrap();
        let target = pattern.root();
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_insert(target, parse_data_tree(xml).unwrap())
    };
    let retract_email = {
        let pattern = Pattern::parse("contact { phone, email }").unwrap();
        let email = pattern.node_ids().nth(2).unwrap();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_delete(email)
    };
    let mut history = vec![vec![
        insert("directory", "<contact><name>carol</name></contact>", 1.0),
        insert("contact", "<phone>+33-a</phone>", 0.8),
        insert("contact", "<phone>+33-b</phone>", 0.7),
        insert("contact", "<phone>+33-c</phone>", 0.5),
        insert("contact", "<email>carol@example.org</email>", 0.7),
    ]];
    for round in 0..rounds {
        let phone = format!("<phone>+33-{round}</phone>");
        history.push(vec![insert("contact", &phone, 0.6)]);
        history.push(vec![retract_email.clone()]);
    }
    history
}

/// The payload of a `SNAPSHOT` response after its `seq` line — the
/// serialised document, byte for byte as the server sent it.
pub fn snapshot_payload(addr: SocketAddr, tenant: &str, doc: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_request(&mut stream, tag::SNAPSHOT, tenant, doc.as_bytes()).unwrap();
    let response = read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(response.tag, tag::SNAPSHOT_DATA, "{}", response.text());
    let text = response.text();
    let (_seq, document) = text
        .split_once('\n')
        .expect("a seq line, then the document");
    document.to_string()
}
