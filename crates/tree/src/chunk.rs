//! Chunked copy-on-write storage for arena slots.
//!
//! A [`ChunkedVec`] is a growable sequence split into fixed-size chunks, each
//! behind an [`Arc`]. Cloning the vector clones only the spine of chunk
//! pointers, so a clone is O(len / CHUNK) reference-count bumps and shares
//! every chunk with the original. Mutation goes through [`Arc::make_mut`]:
//! the first write into a shared chunk copies that one chunk (at most
//! [`ChunkedVec::CHUNK`] elements) and leaves every other chunk shared.
//!
//! This is what makes a [`crate::Tree`] snapshot cheap: a commit that touches
//! k nodes copies O(k) chunks, not the whole arena, and readers holding an
//! older clone keep seeing their original chunks untouched.
//!
//! Only the first chunk is allocated lazily (it grows like any `Vec` up to
//! [`ChunkedVec::CHUNK`] elements): a query builds one small tree per match,
//! and a tree of three nodes should cost three slots, not a whole chunk.

use std::fmt;
use std::sync::Arc;

/// A chunked vector with copy-on-write structural sharing between clones.
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
    /// Number of chunk copies this handle has performed to un-share a chunk
    /// before writing. Carried across clones; measure deltas to bound the
    /// copy work of a mutation batch.
    copies: u64,
}

impl<T: Clone> ChunkedVec<T> {
    /// Elements per chunk. The unit of copy-on-write granularity: writing
    /// into a shared chunk copies at most this many elements.
    pub const CHUNK: usize = 64;

    /// Creates an empty vector.
    pub fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
            copies: 0,
        }
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative count of chunks copied to un-share them before a write,
    /// through this handle and the handles it was cloned from.
    ///
    /// **Pitfall:** `FuzzyTree` compaction (the commit-time arena rebuild
    /// that reclaims dead slots once they exceed `2 × live + slack`)
    /// constructs a *fresh* `ChunkedVec` and repopulates it with `push`,
    /// so the rebuilt handle's counter restarts near zero — the copies
    /// performed before compaction are not carried over. Tests that bound
    /// copy-on-write work by measuring counter deltas across commits must
    /// keep their workloads below the compaction threshold (few enough
    /// deletions that no rebuild triggers), or the delta silently
    /// undercounts.
    pub fn chunk_copies(&self) -> u64 {
        self.copies
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        let offset = self.len % Self::CHUNK;
        if offset == 0 {
            // The first chunk grows on demand, later ones are allocated
            // whole: most vectors ever built back a query answer of a few
            // nodes (one tree per match), and a full chunk apiece would put
            // one broad query's transient heap past malloc's trim threshold
            // — every such request then faults in again the pages the
            // previous one handed back, at a cost that differs run to run.
            let mut chunk = if self.chunks.is_empty() {
                Vec::new()
            } else {
                Vec::with_capacity(Self::CHUNK)
            };
            chunk.push(value);
            self.chunks.push(Arc::new(chunk));
        } else {
            let last = self.chunks.len() - 1;
            self.chunk_mut(last).push(value);
        }
        self.len += 1;
    }

    /// A shared reference to the element at `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        Some(&self.chunks[index / Self::CHUNK][index % Self::CHUNK])
    }

    /// A mutable reference to the element at `index`, un-sharing (and
    /// counting the copy of) its chunk if clones still reference it.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let chunk = self.chunk_mut(index / Self::CHUNK);
        Some(&mut chunk[index % Self::CHUNK])
    }

    /// Iterates over the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    fn chunk_mut(&mut self, chunk_index: usize) -> &mut Vec<T> {
        if Arc::get_mut(&mut self.chunks[chunk_index]).is_none() {
            self.copies += 1;
        }
        Arc::make_mut(&mut self.chunks[chunk_index])
    }
}

impl<T: Clone> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec::new()
    }
}

impl<T> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        ChunkedVec {
            chunks: self.chunks.clone(),
            len: self.len,
            copies: self.copies,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.chunks.iter().flat_map(|chunk| chunk.iter()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_len() {
        let mut v = ChunkedVec::new();
        assert!(v.is_empty());
        for i in 0..200usize {
            v.push(i);
        }
        assert_eq!(v.len(), 200);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(63), Some(&63));
        assert_eq!(v.get(64), Some(&64));
        assert_eq!(v.get(199), Some(&199));
        assert_eq!(v.get(200), None);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn only_the_first_chunk_grows_on_demand() {
        let mut v = ChunkedVec::new();
        for i in 0..3usize {
            v.push(i);
        }
        // A three-node answer tree does not pay for 64 slots.
        assert!(v.chunks[0].capacity() < ChunkedVec::<usize>::CHUNK / 4);
        for i in 3..65usize {
            v.push(i);
        }
        assert_eq!(v.chunks[0].len(), ChunkedVec::<usize>::CHUNK);
        assert_eq!(v.chunks[1].capacity(), ChunkedVec::<usize>::CHUNK);
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let mut v = ChunkedVec::new();
        for i in 0..300usize {
            v.push(i);
        }
        let baseline = v.chunk_copies();
        let mut snapshot = v.clone();
        // Reading never copies.
        assert_eq!(snapshot.get(128), Some(&128));
        assert_eq!(snapshot.chunk_copies(), baseline);
        // Writing one element copies exactly the chunk that holds it.
        *snapshot.get_mut(128).unwrap() = 999;
        assert_eq!(snapshot.chunk_copies(), baseline + 1);
        // The original still sees the old value.
        assert_eq!(v.get(128), Some(&128));
        assert_eq!(snapshot.get(128), Some(&999));
        // A second write into the now-owned chunk copies nothing further.
        *snapshot.get_mut(129).unwrap() = 1000;
        assert_eq!(snapshot.chunk_copies(), baseline + 1);
    }

    #[test]
    fn push_after_clone_unshares_only_the_tail_chunk() {
        let mut v = ChunkedVec::new();
        for i in 0..100usize {
            v.push(i);
        }
        let mut fork = v.clone();
        let baseline = fork.chunk_copies();
        fork.push(100);
        // 100 lives at offset 36 of the second chunk, which was shared.
        assert_eq!(fork.chunk_copies(), baseline + 1);
        assert_eq!(v.len(), 100);
        assert_eq!(fork.len(), 101);
        assert_eq!(fork.get(100), Some(&100));
        assert_eq!(v.get(100), None);
    }

    #[test]
    fn pushing_a_fresh_chunk_copies_nothing() {
        let mut v: ChunkedVec<usize> = ChunkedVec::new();
        for i in 0..ChunkedVec::<usize>::CHUNK {
            v.push(i);
        }
        let fork_base = v.clone();
        let mut fork = fork_base.clone();
        let baseline = fork.chunk_copies();
        // len is a multiple of CHUNK, so the next push opens a new chunk and
        // never touches the shared ones.
        fork.push(12345);
        assert_eq!(fork.chunk_copies(), baseline);
    }
}
