//! Snapshot-isolation properties for the MVCC warehouse engine.
//!
//! A writer streams randomly generated update batches into one document
//! while readers concurrently pin snapshots. Every state a reader observes
//! must be one of the *published* states — the initial document or the
//! result of applying a prefix of the batch sequence — never a half-applied
//! batch, and the snapshot sequence numbers a reader sees must be monotone.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use pxml::prelude::*;

const PEOPLE: &[&str] = &["alice", "bob", "carol"];

fn directory() -> Tree {
    parse_data_tree(
        "<directory>\
           <person><name>alice</name></person>\
           <person><name>bob</name></person>\
           <person><name>carol</name></person>\
         </directory>",
    )
    .unwrap()
}

fn plain_config() -> SessionConfig {
    SessionConfig {
        simplify: SimplifyPolicy::Never,
        compaction: CompactionPolicy::Never,
        ..SessionConfig::default()
    }
}

/// One generated update: insert a phone under a person, or (conditionally)
/// delete a person's phones.
#[derive(Debug, Clone)]
struct Op {
    person: usize,
    confidence: u8,
    delete: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..PEOPLE.len(), 50u8..=100, 0u8..2).prop_map(|(person, confidence, kind)| Op {
        person,
        confidence,
        delete: kind == 1,
    })
}

fn build_update(op: &Op) -> UpdateTransaction {
    let name = PEOPLE[op.person];
    let confidence = op.confidence as f64 / 100.0;
    if op.delete {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"], phone }}")).unwrap();
        let phone = pattern.node_ids().nth(2).unwrap();
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_delete(phone)
    } else {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
        let target = pattern.root();
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_insert(target, parse_data_tree("<phone>+33-1</phone>").unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved queries and commits observe only published snapshots.
    #[test]
    fn readers_observe_only_published_states(
        batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..3),
            1..6,
        )
    ) {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let warehouse = Warehouse::with_backend(backend, plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let initial = warehouse.snapshot("people").unwrap();

        let batches: Vec<Vec<UpdateTransaction>> = batches
            .iter()
            .map(|ops| ops.iter().map(build_update).collect())
            .collect();

        // The legal states: the initial document and every prefix of the
        // batch sequence, replayed sequentially — exactly what the commit
        // pipeline publishes, one snapshot per batch.
        let mut state = initial.fuzzy().clone();
        let mut legal = HashSet::new();
        legal.insert(state.fuzzy_canonical_string(state.root()));
        for batch in &batches {
            state = apply_batch(&state, batch, SimplifyPolicy::Never).unwrap().0;
            legal.insert(state.fuzzy_canonical_string(state.root()));
        }

        let done = Arc::new(AtomicBool::new(false));
        let observed = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let warehouse = &warehouse;
                    let done = done.clone();
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        let mut last_seq = 0;
                        loop {
                            let stop = done.load(Ordering::Acquire);
                            let snapshot = warehouse.snapshot("people").unwrap();
                            assert!(
                                snapshot.seq() >= last_seq,
                                "snapshot sequence went backwards"
                            );
                            last_seq = snapshot.seq();
                            let fuzzy = snapshot.fuzzy();
                            seen.push(fuzzy.fuzzy_canonical_string(fuzzy.root()));
                            if stop {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        seen
                    })
                })
                .collect();
            for batch in &batches {
                warehouse.commit_batch("people", batch, None).unwrap();
            }
            done.store(true, Ordering::Release);
            readers
                .into_iter()
                .flat_map(|reader| reader.join().unwrap())
                .collect::<Vec<String>>()
        });

        for canonical in &observed {
            prop_assert!(
                legal.contains(canonical),
                "a reader observed a state no commit ever published"
            );
        }
        // The final published snapshot is the full replay.
        let last = warehouse.snapshot("people").unwrap();
        prop_assert_eq!(
            last.fuzzy().fuzzy_canonical_string(last.fuzzy().root()),
            state.fuzzy_canonical_string(state.root())
        );
        prop_assert_eq!(last.seq(), batches.len() as u64);
    }
}
