//! Textual form of probabilistic update transactions, and the **record
//! codec** of the segment journal.
//!
//! The paper expresses updates in XUpdate and compiles them against the
//! stored documents; here transactions are serialized to a small XML dialect
//! of the same flavour:
//!
//! ```xml
//! <pxml:update confidence="0.9" query="/A { B, C }">
//!   <pxml:insert target="0"><D/></pxml:insert>
//!   <pxml:delete target="2"/>
//! </pxml:update>
//! ```
//!
//! `target` is the index of the pattern node (in `Pattern::node_ids` order)
//! at whose image the operation is applied.
//!
//! # Record framing
//!
//! The journal has exactly one layout: one segment file per document and
//! epoch, holding a sequence of **records**, one per committed
//! batch —
//!
//! ```text
//! [payload_len: u32 LE][update_count: u32 LE][payload: UTF-8 <pxml:batch> XML]
//! ```
//!
//! — where the payload is the bare `<pxml:batch>` element holding the
//! batch's updates in application order (no XML prolog: a record is not a
//! file; records written with one still decode).
//!
//! This module is the only one that knows those bytes, and it owns both
//! directions: `encode_record` frames a batch (header + payload) into an
//! `EncodedRecord`, which is all the layers below the append entry point
//! ever handle; `SoundRecords` is the one borrowing walk over a segment's
//! whole records, used by replay (`decode_records`, every backend's
//! `read_batches`: `SoundRecord::decode` on each record, which checks the
//! payload against the header's `update_count`) and by `scan_segment`
//! (headers only — a fresh process rebuilds the journal meters without
//! parsing a payload). A record whose header or payload is
//! shorter than the header promises is **torn**: the walk ends in front of
//! it, and since appends only ever extend a file's end, such a record is
//! always the file's torn tail. Which file a record goes to is
//! `segment.rs`'s business, and when it is fsynced [`crate::fs`]'s.

use pxml_core::{UpdateOperation, UpdateTransaction};
use pxml_query::{PNodeId, Pattern};
use pxml_tree::{data_tree_to_xml, xml_to_data_tree, XmlDocument, XmlElement, XmlNode};

use crate::error::StoreError;

/// Serializes an update transaction to its XML element.
fn update_to_element(update: &UpdateTransaction) -> XmlElement {
    let mut element = XmlElement::new("pxml:update")
        .with_attribute("confidence", format!("{}", update.confidence()))
        .with_attribute("query", update.pattern().to_string());
    for operation in update.operations() {
        match operation {
            UpdateOperation::Insert { target, subtree } => {
                let mut insert = XmlElement::new("pxml:insert")
                    .with_attribute("target", target.index().to_string());
                insert
                    .children
                    .push(XmlNode::Element(data_tree_to_xml(subtree).root));
                element.children.push(XmlNode::Element(insert));
            }
            UpdateOperation::Delete { target } => {
                element.children.push(XmlNode::Element(
                    XmlElement::new("pxml:delete")
                        .with_attribute("target", target.index().to_string()),
                ));
            }
        }
    }
    element
}

/// Serializes an update transaction to XML text.
pub fn serialize_update(update: &UpdateTransaction, pretty: bool) -> String {
    XmlDocument::new(update_to_element(update)).to_xml_string(pretty)
}

/// Parses an update transaction from its XML element.
fn update_from_element(element: &XmlElement) -> Result<UpdateTransaction, StoreError> {
    if element.name != "pxml:update" {
        return Err(StoreError::Format(format!(
            "expected <pxml:update>, found <{}>",
            element.name
        )));
    }
    let confidence: f64 = element
        .attribute("confidence")
        .ok_or_else(|| StoreError::Format("<pxml:update> without confidence".into()))?
        .parse()
        .map_err(|_| StoreError::Format("malformed confidence".into()))?;
    let query_text = element
        .attribute("query")
        .ok_or_else(|| StoreError::Format("<pxml:update> without query".into()))?;
    let pattern = Pattern::parse(query_text)?;
    let pattern_nodes: Vec<PNodeId> = pattern.node_ids().collect();
    let mut update = UpdateTransaction::new(pattern, confidence)?;

    for child in element.child_elements() {
        let target_index: usize = child
            .attribute("target")
            .ok_or_else(|| StoreError::Format(format!("<{}> without target", child.name)))?
            .parse()
            .map_err(|_| StoreError::Format("malformed target index".into()))?;
        let target = *pattern_nodes.get(target_index).ok_or_else(|| {
            StoreError::Format(format!(
                "target index {target_index} is outside the query's {} pattern nodes",
                pattern_nodes.len()
            ))
        })?;
        match child.name.as_str() {
            "pxml:insert" => {
                let subtree_element = child
                    .child_elements()
                    .next()
                    .ok_or_else(|| StoreError::Format("<pxml:insert> without a subtree".into()))?;
                let subtree = xml_to_data_tree(&XmlDocument::new(subtree_element.clone()));
                update.push_operation(UpdateOperation::Insert { target, subtree });
            }
            "pxml:delete" => {
                update.push_operation(UpdateOperation::Delete { target });
            }
            other => {
                return Err(StoreError::Format(format!(
                    "unexpected <{other}> inside <pxml:update>"
                )))
            }
        }
    }
    Ok(update)
}

/// Parses an update transaction from XML text.
pub fn parse_update(input: &str) -> Result<UpdateTransaction, StoreError> {
    let document = XmlDocument::parse(input)?;
    update_from_element(&document.root)
}

/// Serializes one committed batch as its `<pxml:batch>` element — the
/// payload of a single segment-journal record (see the module docs) and of a
/// commit frame on the wire. A record is not a file, so it carries no XML
/// prolog; [`parse_batch`] takes the prolog as optional, so records written
/// with one still replay.
pub fn serialize_batch(batch: &[UpdateTransaction]) -> String {
    let mut element = XmlElement::new("pxml:batch");
    for update in batch {
        element
            .children
            .push(XmlNode::Element(update_to_element(update)));
    }
    let mut text = String::new();
    element.write_xml(&mut text, false, 0);
    text
}

/// Parses one `<pxml:batch>` document (a segment-record payload), with or
/// without an XML prolog in front of it.
pub fn parse_batch(input: &str) -> Result<Vec<UpdateTransaction>, StoreError> {
    let document = XmlDocument::parse(input)?;
    if document.root.name != "pxml:batch" {
        return Err(StoreError::Format(format!(
            "expected <pxml:batch>, found <{}>",
            document.root.name
        )));
    }
    document
        .root
        .child_elements()
        .map(update_from_element)
        .collect()
}

/// Bytes of each record header: `payload_len: u32 LE` + `update_count: u32 LE`.
const RECORD_HEADER_BYTES: usize = 8;

/// Bytes an injected [`FaultKind::TornWrite`](crate::FaultKind::TornWrite)
/// shears off the record it tore: enough to leave the payload shorter than
/// its header promises.
pub(crate) const TEAR_BYTES: u64 = 3;

/// One committed batch framed as a segment record — what everything below
/// the append entry point carries instead of the batch itself.
pub(crate) struct EncodedRecord {
    /// Header + payload, exactly as they land in the segment file.
    pub(crate) bytes: Vec<u8>,
}

/// Frames one batch as a segment record (header + `<pxml:batch>` payload).
pub(crate) fn encode_record(batch: &[UpdateTransaction]) -> EncodedRecord {
    let payload = serialize_batch(batch);
    let mut bytes = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    EncodedRecord { bytes }
}

/// One whole record borrowed from a segment's bytes.
struct SoundRecord<'a> {
    /// The `<pxml:batch>` document ([`parse_batch`] decodes it).
    payload: &'a str,
    /// The header's update count.
    updates: u32,
}

impl SoundRecord<'_> {
    /// The record's batch: its payload decoded, refused as corrupt when it
    /// does not hold as many updates as the header says.
    fn decode(&self) -> Result<Vec<UpdateTransaction>, StoreError> {
        let batch = parse_batch(self.payload)?;
        if batch.len() != self.updates as usize {
            return Err(StoreError::Format(format!(
                "journal record holds {} updates but its header says {}",
                batch.len(),
                self.updates
            )));
        }
        Ok(batch)
    }
}

/// The walk over a segment's sound records, in file order. It ends at the
/// first record that is not wholly there — a short header, a payload shorter
/// than its length prefix, a payload that is not UTF-8 — or at the end of the
/// bytes; [`SoundRecords::sound_len`] then tells the two apart.
struct SoundRecords<'a> {
    bytes: &'a [u8],
    sound_len: usize,
}

impl<'a> SoundRecords<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        SoundRecords {
            bytes,
            sound_len: 0,
        }
    }

    /// Total bytes of the records yielded so far. Once the walk has ended
    /// this is the segment's sound length: anything beyond it is a torn tail.
    fn sound_len(&self) -> usize {
        self.sound_len
    }
}

impl<'a> Iterator for SoundRecords<'a> {
    type Item = SoundRecord<'a>;

    fn next(&mut self) -> Option<SoundRecord<'a>> {
        // Slicing the remainder, never adding to an offset: a hostile
        // `payload_len` can overrun the buffer but not overflow anything.
        let rest = self.bytes.get(self.sound_len..)?;
        let (&[l0, l1, l2, l3, u0, u1, u2, u3], body) =
            rest.split_first_chunk::<RECORD_HEADER_BYTES>()?;
        let payload_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let updates = u32::from_le_bytes([u0, u1, u2, u3]);
        let payload = std::str::from_utf8(body.get(..payload_len)?).ok()?;
        self.sound_len += RECORD_HEADER_BYTES + payload_len;
        Some(SoundRecord { payload, updates })
    }
}

/// The batches of a journal's records, in order: the walk over its sound
/// records, each decoded (a torn tail is not a record and decodes to
/// nothing). Every backend's `read_batches` ends here.
pub(crate) fn decode_records(bytes: &[u8]) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
    SoundRecords::new(bytes)
        .map(|record| record.decode())
        .collect()
}

/// One segment's header walk: the record count and the byte length of the
/// sound prefix.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    pub(crate) batches: usize,
    /// Bytes of whole records; anything beyond is a torn tail.
    pub(crate) sound_bytes: u64,
    /// Whether bytes follow the sound prefix (a torn tail record).
    pub(crate) torn: bool,
}

/// Walks a segment's record headers. Appends only ever touch the end of a
/// document's one journal file, so a record that is not wholly there is
/// always the torn tail.
pub(crate) fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = SoundRecords::new(bytes);
    let batches = records.by_ref().count();
    SegmentScan {
        batches,
        sound_bytes: records.sound_len() as u64,
        torn: records.sound_len() < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::parse_data_tree;

    fn sample_update() -> UpdateTransaction {
        let pattern = Pattern::parse("/A { B, C }").unwrap();
        let ids: Vec<PNodeId> = pattern.node_ids().collect();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_insert(ids[0], parse_data_tree("<D><x>1</x></D>").unwrap())
            .with_delete(ids[2])
    }

    #[test]
    fn update_round_trips_through_text() {
        let update = sample_update();
        let text = serialize_update(&update, true);
        assert!(text.contains("confidence=\"0.9\""));
        assert!(text.contains("pxml:insert"));
        assert!(text.contains("pxml:delete"));
        let reparsed = parse_update(&text).unwrap();
        assert_eq!(reparsed.pattern().to_string(), update.pattern().to_string());
        assert!((reparsed.confidence() - 0.9).abs() < 1e-12);
        assert_eq!(reparsed.operations().len(), 2);
        match (&reparsed.operations()[0], &update.operations()[0]) {
            (
                UpdateOperation::Insert {
                    target: t1,
                    subtree: s1,
                },
                UpdateOperation::Insert {
                    target: t2,
                    subtree: s2,
                },
            ) => {
                assert_eq!(t1, t2);
                assert!(s1.isomorphic(s2));
            }
            _ => panic!("first operation must be an insert"),
        }
    }

    #[test]
    fn reparsed_updates_have_the_same_effect() {
        let update = sample_update();
        let reparsed = parse_update(&serialize_update(&update, false)).unwrap();
        let document = parse_data_tree("<A><B/><C><junk/></C></A>").unwrap();
        assert!(update
            .apply_to_tree(&document)
            .isomorphic(&reparsed.apply_to_tree(&document)));
    }

    #[test]
    fn batch_round_trips() {
        let batch = vec![sample_update(), {
            let pattern = Pattern::parse("person { name }").unwrap();
            let name = pattern.node_ids().nth(1).unwrap();
            UpdateTransaction::new(pattern, 0.5)
                .unwrap()
                .with_delete(name)
        }];
        let text = serialize_batch(&batch);
        assert!(text.contains("pxml:batch"));
        let reparsed = parse_batch(&text).unwrap();
        // Application order is preserved.
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed[0].pattern().to_string(), "/A { B, C }");
        assert_eq!(reparsed[1].pattern().to_string(), "person { name }");
        assert!(parse_batch(&serialize_batch(&[])).unwrap().is_empty());
    }

    /// Records carry no XML prolog; the ones written before it was dropped
    /// do, and both decode to the same batch.
    #[test]
    fn a_record_with_the_prolog_decodes_like_one_without() {
        let batch = vec![sample_update(), sample_update()];
        let bare = serialize_batch(&batch);
        assert!(bare.starts_with("<pxml:batch>"), "{bare}");
        let with_prolog = format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n{bare}");
        let decoded = parse_batch(&with_prolog).unwrap();
        assert_eq!(decoded.len(), batch.len());
        assert_eq!(serialize_batch(&decoded), bare);
        assert_eq!(serialize_batch(&parse_batch(&bare).unwrap()), bare);
    }

    #[test]
    fn deepest_allowed_insertion_round_trips() {
        // Inserted under a root match, this subtree reaches `MAX_TREE_DEPTH`.
        let mut subtree = pxml_tree::Tree::new("n");
        let mut node = subtree.root();
        for _ in 0..pxml_tree::MAX_TREE_DEPTH - 1 {
            node = subtree.add_element(node, "n");
        }
        let pattern = Pattern::parse("/A").unwrap();
        let root = pattern.root();
        let update = UpdateTransaction::new(pattern, 0.5)
            .unwrap()
            .with_insert(root, subtree);
        let reparsed = parse_batch(&serialize_batch(&[update])).unwrap();
        assert_eq!(reparsed.len(), 1);
    }

    /// Four batches of different sizes (one of them empty), framed.
    fn framed_batches() -> (Vec<Vec<UpdateTransaction>>, Vec<EncodedRecord>) {
        let delete_only = {
            let pattern = Pattern::parse("person { name }").unwrap();
            let name = pattern.node_ids().nth(1).unwrap();
            UpdateTransaction::new(pattern, 0.5)
                .unwrap()
                .with_delete(name)
        };
        let batches = vec![
            vec![sample_update()],
            vec![],
            vec![sample_update(), delete_only.clone()],
            vec![delete_only],
        ];
        let records = batches.iter().map(|batch| encode_record(batch)).collect();
        (batches, records)
    }

    /// A header as `encode_record` writes it.
    fn header(payload_len: u32, updates: u32) -> Vec<u8> {
        [payload_len.to_le_bytes(), updates.to_le_bytes()].concat()
    }

    /// The framing contract: whatever prefix of a segment survives, the walk
    /// yields exactly the records wholly inside it — decoded to what was
    /// encoded — and reports their total as the sound length; the header
    /// scan agrees with the walk.
    #[test]
    fn every_truncation_yields_exactly_the_whole_records_inside_the_cut() {
        let (batches, records) = framed_batches();
        for count in 1..=records.len() {
            let mut bytes = Vec::new();
            let mut ends = Vec::new();
            for record in &records[..count] {
                bytes.extend_from_slice(&record.bytes);
                ends.push(bytes.len());
            }
            for cut in 0..=bytes.len() {
                let whole = ends.iter().filter(|end| **end <= cut).count();
                let sound = ends[..whole].last().copied().unwrap_or(0);
                let mut walk = SoundRecords::new(&bytes[..cut]);
                let mut yielded = 0;
                for (record, batch) in walk.by_ref().zip(&batches) {
                    assert_eq!(record.payload, serialize_batch(batch));
                    assert_eq!(record.updates as usize, batch.len());
                    assert_eq!(record.decode().unwrap().len(), batch.len());
                    yielded += 1;
                }
                assert_eq!(yielded, whole, "{count} records cut at {cut}");
                assert_eq!(walk.sound_len(), sound, "{count} records cut at {cut}");
                assert!(walk.next().is_none(), "an ended walk stays ended");

                let scan = scan_segment(&bytes[..cut]);
                assert_eq!(scan.batches, whole);
                assert_eq!(scan.sound_bytes, sound as u64);
                assert_eq!(scan.torn, sound < cut);
            }
        }
    }

    /// Headers that lie and payloads that are not text end the walk in front
    /// of them — no panic, no out-of-bounds slice, no record invented.
    #[test]
    fn hostile_records_end_the_walk_without_a_panic() {
        let good = encode_record(&[sample_update()]).bytes;
        let walk_of = |tail: &[u8]| {
            let bytes = [good.as_slice(), tail].concat();
            let mut walk = SoundRecords::new(&bytes);
            (walk.by_ref().count(), walk.sound_len())
        };
        let sound = (1, good.len());
        // A `payload_len` that overruns the buffer, by one byte and by far.
        assert_eq!(walk_of(&[header(6, 1), b"short".to_vec()].concat()), sound);
        assert_eq!(
            walk_of(&[header(1 << 20, 1), b"x".to_vec()].concat()),
            sound
        );
        // The largest length a header can claim. The walk slices what is
        // left rather than adding `offset + len`, so on a 32-bit target —
        // where that sum would overflow `usize` — it still just ends.
        assert_eq!(walk_of(&header(u32::MAX, u32::MAX)), sound);
        // A payload of the promised length that is not UTF-8 — and the sound
        // record behind it stays unreachable (nothing is resynchronised).
        let not_text = [header(2, 1), vec![0xff, 0xfe], good.clone()].concat();
        assert_eq!(walk_of(&not_text), sound);
        // An empty payload is framing-sound (decoding it is `parse_batch`'s
        // error to raise, not the walk's).
        assert_eq!(walk_of(&header(0, 0)), (2, good.len() + 8));
        // No bytes, or fewer than a header.
        assert_eq!(SoundRecords::new(&[]).count(), 0);
        assert_eq!(SoundRecords::new(&good[..7]).count(), 0);
    }

    /// The header's `update_count` is checked on replay: a whole record
    /// whose header miscounts its updates walks, but refuses to decode.
    #[test]
    fn a_record_whose_header_miscounts_its_updates_refuses_to_decode() {
        let payload = serialize_batch(&[sample_update()]);
        for claimed in [0, 2] {
            let bytes = [
                header(payload.len() as u32, claimed),
                payload.clone().into_bytes(),
            ]
            .concat();
            let record = SoundRecords::new(&bytes).next().unwrap();
            assert!(matches!(record.decode(), Err(StoreError::Format(_))));
        }
        let bytes = [header(payload.len() as u32, 1), payload.into_bytes()].concat();
        let record = SoundRecords::new(&bytes).next().unwrap();
        assert_eq!(record.decode().unwrap().len(), 1);
    }

    #[test]
    fn malformed_updates_are_rejected() {
        assert!(matches!(
            parse_update("<pxml:update query=\"A\"/>"),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update("<pxml:update confidence=\"0.5\"/>"),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update("<pxml:update confidence=\"0.5\" query=\"A {\"/>"),
            Err(StoreError::Query(_))
        ));
        assert!(matches!(
            parse_update(
                "<pxml:update confidence=\"0.5\" query=\"A\"><pxml:delete target=\"7\"/></pxml:update>"
            ),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update(
                "<pxml:update confidence=\"0.5\" query=\"A\"><pxml:frob target=\"0\"/></pxml:update>"
            ),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update("<pxml:update confidence=\"2.0\" query=\"A\"/>"),
            Err(StoreError::Core(_))
        ));
        assert!(matches!(
            parse_batch("<pxml:journal/>"),
            Err(StoreError::Format(_))
        ));
    }
}
