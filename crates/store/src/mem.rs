//! [`MemBackend`]: the in-process storage backend.
//!
//! Holds checkpoints and journals in a shared map — nothing touches the file
//! system, so tests and benches can exercise the full warehouse pipeline
//! (including the compaction policy, which reads the journal meters) without
//! scratch directories.
//!
//! The batch payloads are round-tripped through the same `<pxml:batch>`
//! serialization as [`FsBackend`](crate::FsBackend), so the journal meters
//! (`journal_size_bytes` in particular) are comparable across backends and a
//! workload that serializes wrongly fails here too.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{LockClass, Mutex};
use pxml_core::{FuzzyTree, UpdateTransaction};

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::group::CommitTicket;
use crate::journal::serialize_batch;

/// One document's in-memory state.
#[derive(Debug, Clone)]
struct MemDoc {
    checkpoint: FuzzyTree,
    batches: Vec<Vec<UpdateTransaction>>,
    bytes: u64,
}

/// The in-memory storage backend (see the module docs).
///
/// Cloning is cheap and clones share the underlying map. Mutations take one
/// store-wide mutex held only for the in-memory bookkeeping — strictly
/// stronger than the per-document serialization the
/// [`StorageBackend`] contract requires, and never held across I/O (there is
/// none).
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
        let mut docs = self.docs.lock();
        match docs.get_mut(name) {
            // Overwriting a checkpoint leaves the journal untouched, exactly
            // like the file-system backend.
            Some(doc) => doc.checkpoint = fuzzy.clone(),
            None => {
                docs.insert(
                    name.to_string(),
                    MemDoc {
                        checkpoint: fuzzy.clone(),
                        batches: Vec::new(),
                        bytes: 0,
                    },
                );
            }
        }
        Ok(())
    }

    fn load_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        self.with_doc(name, |doc| doc.checkpoint.clone())
    }

    fn append_batch_enqueue(&self, name: &str, batch: &[UpdateTransaction]) -> CommitTicket {
        CommitTicket::resolved(self.with_doc(name, |doc| {
            doc.bytes += serialize_batch(batch).len() as u64;
            doc.batches.push(batch.to_vec());
        }))
    }

    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
        match self.docs.lock().get(name) {
            Some(doc) => Ok(doc.batches.clone()),
            // Mirror the file-system backend: an unknown document simply has
            // an empty journal.
            None => Ok(Vec::new()),
        }
    }

    fn journal_batches(&self, name: &str) -> Result<usize, StoreError> {
        Ok(self
            .docs
            .lock()
            .get(name)
            .map_or(0, |doc| doc.batches.len()))
    }

    fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        Ok(self.docs.lock().get(name).map_or(0, |doc| doc.bytes))
    }

    fn checkpoint(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        self.with_doc(name, |doc| {
            doc.checkpoint = fuzzy.clone();
            doc.batches.clear();
            doc.bytes = 0;
        })
    }

    fn remove_document(&self, name: &str) -> Result<(), StoreError> {
        self.docs
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::MissingDocument(name.to_string()))
    }
}
