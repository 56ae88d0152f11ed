//! [`MemBackend`]: the in-process storage backend.
//!
//! Holds checkpoints and journals in a shared map — nothing touches the file
//! system, so tests and benches can exercise the full warehouse pipeline
//! (including the compaction policy, which reads the journal meters) without
//! scratch directories.
//!
//! It stores what [`FsBackend`](crate::FsBackend) writes, and nothing else:
//! a document is its checkpoint's PrXML text, its journal's framed records
//! (`journal::encode_record`) and a record count. Both are read back the
//! way the file-system backend reads its files — the checkpoint through
//! [`parse_fuzzy_document`], the records through the journal module's one
//! decoder — so the two backends report the same journal meters for the
//! same history, a workload that serializes wrongly fails here too, and a
//! cold open or a reopen over this backend loads an unmarked, unindexed
//! document and replays it exactly as over the files.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{LockClass, Mutex};
use pxml_core::{FuzzyTree, UpdateTransaction};

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::format::{parse_fuzzy_document, serialize_fuzzy_document};
use crate::group::CommitTicket;
use crate::journal::{decode_records, encode_record};

/// One document's stored bytes.
#[derive(Debug, Default)]
struct MemDoc {
    /// The checkpoint's PrXML text.
    checkpoint: String,
    /// The journal's records, header and payload, back to back.
    journal: Vec<u8>,
    /// The number of records in `journal`.
    batches: usize,
}

/// The in-memory storage backend (see the module docs).
///
/// Cloning is cheap and clones share the underlying map. Mutations take one
/// store-wide mutex held only for the in-memory bookkeeping — strictly
/// stronger than the per-document serialization the
/// [`StorageBackend`] contract requires, and never held across I/O (there is
/// none) or across the codec.
#[derive(Debug, Clone)]
pub struct MemBackend {
    docs: Arc<Mutex<HashMap<String, MemDoc>>>,
}

impl Default for MemBackend {
    fn default() -> Self {
        MemBackend {
            docs: Arc::new(Mutex::with_class(LockClass::Journal, HashMap::new())),
        }
    }
}

impl MemBackend {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemBackend::default()
    }

    fn with_doc<R>(
        &self,
        name: &str,
        body: impl FnOnce(&mut MemDoc) -> R,
    ) -> Result<R, StoreError> {
        let mut docs = self.docs.lock();
        let doc = docs
            .get_mut(name)
            .ok_or_else(|| StoreError::MissingDocument(name.to_string()))?;
        Ok(body(doc))
    }

    /// Reads a document's bytes. An unknown name reads as an empty document,
    /// as over files: the engine polls the meters without checking existence.
    fn read<R>(&self, name: &str, body: impl FnOnce(&MemDoc) -> R) -> R {
        body(self.docs.lock().get(name).unwrap_or(&MemDoc::default()))
    }
}

impl StorageBackend for MemBackend {
    fn list_documents(&self) -> Result<Vec<String>, StoreError> {
        let mut names: Vec<String> = self.docs.lock().keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn contains(&self, name: &str) -> bool {
        self.docs.lock().contains_key(name)
    }

    fn save_document(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        let checkpoint = serialize_fuzzy_document(fuzzy, true);
        // Overwriting a checkpoint leaves the journal untouched, exactly like
        // the file-system backend.
        self.docs
            .lock()
            .entry(name.to_string())
            .or_default()
            .checkpoint = checkpoint;
        Ok(())
    }

    fn load_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        parse_fuzzy_document(&self.with_doc(name, |doc| doc.checkpoint.clone())?)
    }

    fn append_batch_enqueue(&self, name: &str, batch: &[UpdateTransaction]) -> CommitTicket {
        let record = encode_record(batch);
        CommitTicket::resolved(self.with_doc(name, |doc| {
            doc.journal.extend_from_slice(&record.bytes);
            doc.batches += 1;
        }))
    }

    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
        decode_records(&self.read(name, |doc| doc.journal.clone()))
    }

    fn journal_batches(&self, name: &str) -> Result<usize, StoreError> {
        Ok(self.read(name, |doc| doc.batches))
    }

    fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        Ok(self.read(name, |doc| doc.journal.len() as u64))
    }

    fn checkpoint(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        let checkpoint = serialize_fuzzy_document(fuzzy, true);
        self.with_doc(name, |doc| {
            *doc = MemDoc {
                checkpoint,
                ..MemDoc::default()
            }
        })
    }
}
