//! [`MemBackend`]: the in-process storage backend.
//!
//! Holds checkpoints and journals in a shared map — nothing touches the file
//! system, so tests and benches can exercise the full warehouse pipeline,
//! folds included, without scratch directories.
//!
//! It stores what [`FsBackend`](crate::FsBackend) writes, and nothing else:
//! a document is its checkpoint's PrXML text and, per un-folded epoch, its
//! journal's framed records (`journal::encode_record`).
//! A fold splits the same way as over files: its first half starts a new
//! epoch under the lock, its second serializes outside it and then swaps
//! the checkpoint in and drops the older epochs. Both are read back the
//! way the file-system backend reads its files — the checkpoint through
//! [`parse_fuzzy_document`], the records through the journal module's one
//! decoder — so the two backends report the same journal meter for the
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

/// One epoch's journal.
#[derive(Debug, Default)]
struct MemEpoch {
    epoch: u64,
    /// The epoch's records, header and payload, back to back.
    journal: Vec<u8>,
}

/// One document's stored bytes.
#[derive(Debug)]
struct MemDoc {
    /// The checkpoint's PrXML text.
    checkpoint: String,
    /// The un-folded epochs, oldest first (the checkpoint's own epoch, then
    /// each a fold began since); appends go to the last.
    epochs: Vec<MemEpoch>,
}

impl Default for MemDoc {
    fn default() -> Self {
        MemDoc {
            checkpoint: String::new(),
            epochs: vec![MemEpoch::default()],
        }
    }
}

impl MemDoc {
    /// The epoch appends go to.
    fn current(&mut self) -> &mut MemEpoch {
        self.epochs.last_mut().expect("a document has an epoch")
    }
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
            doc.current().journal.extend_from_slice(&record.bytes);
        }))
    }

    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
        let journal = match self.docs.lock().get(name) {
            Some(doc) => doc
                .epochs
                .iter()
                .map(|epoch| &epoch.journal[..])
                .collect::<Vec<_>>()
                .concat(),
            None => Vec::new(),
        };
        decode_records(&journal)
    }

    /// An unknown name reads as an empty document, as over files.
    fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        Ok(self.docs.lock().get(name).map_or(0, |doc| {
            doc.epochs
                .iter()
                .map(|epoch| epoch.journal.len() as u64)
                .sum()
        }))
    }

    fn begin_checkpoint(&self, name: &str) -> Result<u64, StoreError> {
        self.with_doc(name, |doc| {
            let epoch = doc.current().epoch + 1;
            doc.epochs.push(MemEpoch {
                epoch,
                ..MemEpoch::default()
            });
            epoch
        })
    }

    fn finish_checkpoint(
        &self,
        name: &str,
        fuzzy: &FuzzyTree,
        epoch: u64,
    ) -> Result<(), StoreError> {
        let checkpoint = serialize_fuzzy_document(fuzzy, true);
        self.with_doc(name, |doc| {
            doc.checkpoint = checkpoint;
            doc.epochs.retain(|kept| kept.epoch >= epoch);
        })
    }
}
