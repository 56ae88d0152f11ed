//! What a commit accepts, a cold open serves: the gate on
//! [`Tree::check_storable`] at the engine's two doors.
//!
//! Histories of a create, inserts, conditional deletes and an explicit
//! checkpoint draw trees at the edge of what the PrXML codec carries: names
//! outside the XML name grammar or reserved by the format, untrimmed and
//! empty texts, two texts in one element (adjacent or apart), text roots
//! and depths at the bound ± 1. Over `MemBackend` and `FsBackend`, every
//! create or commit either refuses with a typed error and changes nothing,
//! or the next cold open serves the live tree node for node, in order —
//! labels, conditions and child lists, not only bytes — and a healthy
//! second document always opens beside it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use pxml::prelude::*;
use pxml::store::{parse_fuzzy_document, serialize_fuzzy_document};
use pxml::tree::{TreeError, MAX_TREE_DEPTH};
use pxml::warehouse::WarehouseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tree blueprint: a text or an element with its children, in order.
#[derive(Debug, Clone)]
enum Node {
    Element(String, Vec<Node>),
    Text(String),
}

fn element(name: &str, children: Vec<Node>) -> Node {
    Node::Element(name.to_string(), children)
}

fn text(value: &str) -> Node {
    Node::Text(value.to_string())
}

fn build(node: &Node) -> Tree {
    let (mut tree, children) = match node {
        Node::Text(value) => return Tree::new(Label::Text(value.clone())),
        Node::Element(name, children) => (Tree::new(name.as_str()), children),
    };
    let root = tree.root();
    build_children(&mut tree, root, children);
    tree
}

fn build_children(tree: &mut Tree, parent: NodeId, children: &[Node]) {
    for child in children {
        match child {
            Node::Text(value) => {
                tree.add_text(parent, value.clone());
            }
            Node::Element(name, grandchildren) => {
                let node = tree.add_element(parent, name.clone());
                build_children(tree, node, grandchildren);
            }
        }
    }
}

/// Names the codec reads back, non-ASCII and the format's own `pxml:`
/// names included.
const NAMES: [&str; 6] = ["a", "x", "name", "é", ":a", "pxml:cond"];
/// Names at the grammar's edge: none reads back as written.
const HOSTILE_NAMES: [&str; 6] = ["a b", "", "a>", "1a", "-a", "pxml:text"];
/// Texts, the first four storable (a NUL and a CR round-trip through this
/// parser), the rest not.
const TEXTS: [&str; 8] = ["v", "x y", "a\0b", "a\rb", " hi ", "", "\t", "hi\n"];

/// A storable tree of up to three levels below an element root: names from
/// [`NAMES`], at most one text per element at a random place among its
/// children.
fn healthy(rng: &mut StdRng, depth: usize) -> Node {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    let mut children = Vec::new();
    if depth < 3 {
        for _ in 0..rng.gen_range(0..3usize) {
            children.push(healthy(rng, depth + 1));
        }
    }
    if rng.gen_bool(0.5) {
        let at = rng.gen_range(0..=children.len());
        children.insert(at, text(TEXTS[rng.gen_range(0..4usize)]));
    }
    element(name, children)
}

/// A tree with at most one hostile feature, drawn by `flavour`: none, a
/// hostile name, a hostile text, a second text beside or apart from the
/// first, a text root, or a chain whose deepest node sits at
/// `MAX_TREE_DEPTH` − 1, `MAX_TREE_DEPTH` or `MAX_TREE_DEPTH` + 1.
fn hostile(rng: &mut StdRng, flavour: u8) -> Node {
    let mut root = healthy(rng, 0);
    match flavour {
        1 => {
            let hostile_name = HOSTILE_NAMES[rng.gen_range(0..HOSTILE_NAMES.len())];
            if let Node::Element(name, _) = pick_element(&mut root, rng) {
                *name = hostile_name.to_string();
            }
        }
        2 => {
            let value = TEXTS[rng.gen_range(4..TEXTS.len())];
            let target = pick_element(&mut root, rng);
            if let Node::Element(_, children) = target {
                children.retain(|child| matches!(child, Node::Element(..)));
                let at = rng.gen_range(0..=children.len());
                children.insert(at, text(value));
            }
        }
        3 => {
            let apart = rng.gen_bool(0.5);
            let target = pick_element(&mut root, rng);
            if let Node::Element(_, children) = target {
                children.retain(|child| matches!(child, Node::Element(..)));
                children.push(text("x"));
                if apart {
                    children.push(element("b", Vec::new()));
                }
                children.push(text("y"));
            }
        }
        4 => root = text("v"),
        5 => {
            let deepest = MAX_TREE_DEPTH - 1 + rng.gen_range(0..3usize);
            let mut chain = element("a", Vec::new());
            for _ in 0..deepest - 1 {
                chain = element("a", vec![chain]);
            }
            if let Node::Element(_, children) = &mut root {
                children.push(chain);
            }
        }
        _ => {}
    }
    root
}

/// Counts the elements of `node`.
fn element_count(node: &Node) -> usize {
    match node {
        Node::Text(_) => 0,
        Node::Element(_, children) => 1 + children.iter().map(element_count).sum::<usize>(),
    }
}

/// The `index`-th element of `node` in preorder, if there is one.
fn nth_element<'a>(node: &'a mut Node, index: &mut usize) -> Option<&'a mut Node> {
    if matches!(node, Node::Text(_)) {
        return None;
    }
    if *index == 0 {
        return Some(node);
    }
    *index -= 1;
    let Node::Element(_, children) = node else {
        unreachable!("texts returned above")
    };
    children
        .iter_mut()
        .find_map(|child| nth_element(child, index))
}

fn pick_element<'a>(root: &'a mut Node, rng: &mut StdRng) -> &'a mut Node {
    let mut index = rng.gen_range(0..element_count(root));
    nth_element(root, &mut index).expect("an element below the count")
}

/// Whether `x` in `a` and `y` in `b` are the same subtree node for node, in
/// order: labels, conditions (by event name) and child lists.
fn same_nodes(a: &FuzzyTree, x: NodeId, b: &FuzzyTree, y: NodeId) -> bool {
    let (ta, tb) = (a.tree(), b.tree());
    ta.label(x) == tb.label(y)
        && a.condition(x).display(a.events()) == b.condition(y).display(b.events())
        && ta.children(x).len() == tb.children(y).len()
        && (ta.children(x).iter())
            .zip(tb.children(y))
            .all(|(&u, &v)| same_nodes(a, u, b, v))
}

/// Whether a create or a commit was refused as the engine refuses a tree it
/// could not store or an insert that would land too deep.
fn refused_as_unstorable<T>(result: &Result<T, WarehouseError>) -> bool {
    matches!(
        result,
        Err(WarehouseError::Core(
            CoreError::Tree(TreeError::Unstorable(_)) | CoreError::InsertionTooDeep(_)
        ))
    )
}

/// One step of a history, drawn by [`step_strategy`].
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Insert a [`hostile`] subtree of this flavour under the root, or under
    /// every `name` element, with confidence 1 or 0.5.
    Insert {
        flavour: u8,
        under_name: bool,
        certain: bool,
    },
    /// Delete every `x` (or `name`) element with confidence 0.5.
    Delete {
        name: bool,
    },
    Checkpoint,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..10, 0u8..6, any::<bool>(), any::<bool>()).prop_map(|(choice, flavour, a, b)| match choice
    {
        0..=5 => Step::Insert {
            flavour,
            under_name: a,
            certain: b,
        },
        6..=8 => Step::Delete { name: a },
        _ => Step::Checkpoint,
    })
}

fn update(step: Step, rng: &mut StdRng) -> Option<UpdateTransaction> {
    let transaction = |text: &str, certain: bool| {
        let confidence = if certain { 1.0 } else { 0.5 };
        UpdateTransaction::new(Pattern::parse(text).unwrap(), confidence).unwrap()
    };
    match step {
        Step::Insert {
            flavour,
            under_name,
            certain,
        } => {
            let update = transaction(if under_name { "name" } else { "/*" }, certain);
            let target = update.pattern().root();
            Some(update.with_insert(target, build(&hostile(rng, flavour))))
        }
        Step::Delete { name } => {
            let update = transaction(if name { "name" } else { "x" }, false);
            let target = update.pattern().root();
            Some(update.with_delete(target))
        }
        Step::Checkpoint => None,
    }
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// The two stores a history runs over: each `open` is a cold open of the
/// same stored state.
enum Store {
    Mem(Arc<MemBackend>),
    Fs(PathBuf),
}

impl Store {
    fn open(&self) -> Warehouse {
        let config = SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        };
        match self {
            Store::Mem(backend) => Warehouse::with_backend(backend.clone(), config),
            Store::Fs(dir) => Warehouse::with_config(dir, config),
        }
        .expect("a cold open of the warehouse")
    }
}

/// Drops `warehouse`, cold-opens its store and checks that both documents
/// come back node for node, in order; returns the reopened warehouse.
fn cold_open(warehouse: Warehouse, store: &Store, context: &str) -> Warehouse {
    let live: Vec<FuzzyTree> = ["doc", "healthy"]
        .map(|name| warehouse.document(name).unwrap())
        .into();
    drop(warehouse);
    let reopened = store.open();
    for (name, live) in ["doc", "healthy"].iter().zip(&live) {
        let served = reopened.document(name).unwrap();
        assert!(
            same_nodes(live, live.root(), &served, served.root()),
            "{context}: `{name}` after a cold open\nlive   {}\nserved {}",
            serialize_fuzzy_document(live, false),
            serialize_fuzzy_document(&served, false)
        );
    }
    reopened
}

fn run_history(store: &Store, seed: u64, flavour: u8, steps: &[Step]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut warehouse = store.open();
    let healthy_doc = parse_data_tree("<r><name>v</name><x/></r>").unwrap();
    warehouse.create_document("healthy", healthy_doc).unwrap();
    let start = hostile(&mut rng, flavour);
    let created = warehouse.create_document("doc", build(&start));
    if created.is_err() {
        assert!(refused_as_unstorable(&created), "create: {created:?}");
        assert!(!warehouse.contains("doc"));
        let fallback = element("r", vec![element("name", vec![text("v")])]);
        warehouse.create_document("doc", build(&fallback)).unwrap();
    }
    warehouse = cold_open(warehouse, store, &format!("create {start:?}"));
    for (index, &step) in steps.iter().enumerate() {
        let context = format!("step {index} {step:?}");
        match update(step, &mut rng) {
            None => warehouse.checkpoint("doc").unwrap(),
            Some(update) => {
                let before = warehouse.snapshot("doc").unwrap();
                let bytes = serialize_fuzzy_document(before.fuzzy(), false);
                let committed = warehouse.commit_batch("doc", &[update], None);
                if committed.is_err() {
                    assert!(
                        refused_as_unstorable(&committed),
                        "{context}: {committed:?}"
                    );
                    let after = warehouse.snapshot("doc").unwrap();
                    assert_eq!(after.seq(), before.seq(), "{context}");
                    assert_eq!(serialize_fuzzy_document(after.fuzzy(), false), bytes);
                }
            }
        }
        warehouse = cold_open(warehouse, store, &context);
    }
}

proptest! {
    // The stress job's release run draws four times the debug run's cases.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 24 } else { 96 }
    ))]

    /// Every create or commit of a history over hostile trees either refuses
    /// with the typed error and changes nothing, or a cold open serves the
    /// live tree node for node, in order; the healthy document beside it
    /// always opens. Each history runs over `MemBackend` and `FsBackend`.
    #[test]
    fn what_a_commit_accepts_a_cold_open_serves_node_for_node(
        seed in any::<u64>(),
        flavour in 0u8..6,
        steps in proptest::collection::vec(step_strategy(), 1..8),
    ) {
        run_history(&Store::Mem(Arc::new(MemBackend::new())), seed, flavour, &steps);
        let dir = std::env::temp_dir().join(format!(
            "pxml-storable-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        run_history(&Store::Fs(dir.clone()), seed, flavour, &steps);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The probe's cases by name, each over both stores: what the parent build
/// accepted and then served differently after a cold open, or could not
/// cold-open at all.
#[test]
fn the_probed_shapes_are_refused_at_both_doors() {
    let cases: Vec<(&str, Node)> = vec![
        ("name `a b`", element("r", vec![element("a b", Vec::new())])),
        ("empty name", element("r", vec![element("", Vec::new())])),
        ("name `a>`", element("r", vec![element("a>", Vec::new())])),
        (
            "text ` hi `",
            element("r", vec![element("a", vec![text(" hi ")])]),
        ),
        (
            "empty text",
            element("r", vec![element("a", vec![text("")])]),
        ),
        (
            "adjacent texts",
            element("r", vec![element("a", vec![text("x"), text("y")])]),
        ),
        (
            "texts apart",
            element(
                "r",
                vec![element(
                    "a",
                    vec![text("x"), element("b", Vec::new()), text("y")],
                )],
            ),
        ),
    ];
    for store in [
        Store::Mem(Arc::new(MemBackend::new())),
        Store::Fs(std::env::temp_dir().join(format!("pxml-storable-probe-{}", std::process::id()))),
    ] {
        let warehouse = store.open();
        let healthy_doc = parse_data_tree("<r><name>v</name><x/></r>").unwrap();
        warehouse
            .create_document("healthy", healthy_doc.clone())
            .unwrap();
        warehouse
            .create_document("doc", parse_data_tree("<r><a/></r>").unwrap())
            .unwrap();
        for (label, node) in &cases {
            let created = warehouse.create_document("probe", build(node));
            assert!(
                refused_as_unstorable(&created),
                "create {label}: {created:?}"
            );
            let Node::Element(_, children) = node else {
                unreachable!()
            };
            let pattern = Pattern::parse("/*").unwrap();
            let root = pattern.root();
            let insert = UpdateTransaction::certain(pattern).with_insert(root, build(&children[0]));
            let committed = warehouse.commit_batch("doc", &[insert], None);
            assert!(
                refused_as_unstorable(&committed),
                "insert {label}: {committed:?}"
            );
        }
        let pattern = Pattern::parse("/*").unwrap();
        let root = pattern.root();
        let text_root = UpdateTransaction::certain(pattern).with_insert(root, build(&text("y")));
        let committed = warehouse.commit_batch("doc", &[text_root], None);
        assert!(
            refused_as_unstorable(&committed),
            "a text-rooted insert: {committed:?}"
        );
        assert_eq!(warehouse.snapshot("doc").unwrap().seq(), 0);
        assert!(!warehouse.contains("probe"));
        drop(warehouse);
        let reopened = store.open();
        assert_eq!(reopened.document_names(), ["doc", "healthy"]);
        assert!(reopened
            .document("healthy")
            .unwrap()
            .tree()
            .isomorphic(&healthy_doc));
        drop(reopened);
        if let Store::Fs(dir) = &store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A created fuzzy tree may hold several texts in one element when they are
/// exclusive: `encode_possible_worlds` of `<A>1</A>` and `<A>2</A>` grafts
/// `1 [s1]` and `2 [¬s1]` under the root. The checkpoint wraps each in its
/// own element, and after a conditional delete beside them and a
/// checkpoint a cold open serves them node for node, over both stores.
#[test]
fn exclusive_texts_of_encoded_worlds_are_created_and_served() {
    let world = |value: &str| parse_data_tree(&format!("<A>{value}</A>")).unwrap();
    let mut worlds = PossibleWorlds::from_worlds([(world("1"), 0.4), (world("2"), 0.6)]).unwrap();
    worlds.push(parse_data_tree("<A><name>v</name></A>").unwrap(), 0.5);
    let encoded = encode_possible_worlds(&worlds).unwrap();
    let root = encoded.root();
    let texts = (encoded.tree().children(root).iter())
        .filter(|&&child| encoded.tree().is_text(child))
        .count();
    assert_eq!(texts, 2);
    let dir = std::env::temp_dir().join(format!("pxml-storable-worlds-{}", std::process::id()));
    for store in [
        Store::Mem(Arc::new(MemBackend::new())),
        Store::Fs(dir.clone()),
    ] {
        let warehouse = store.open();
        let healthy_doc = parse_data_tree("<r><name>v</name><x/></r>").unwrap();
        warehouse.create_document("healthy", healthy_doc).unwrap();
        warehouse
            .create_fuzzy_document("doc", encoded.clone())
            .unwrap();
        let warehouse = cold_open(warehouse, &store, "create");
        let delete = UpdateTransaction::new(Pattern::parse("name").unwrap(), 0.5).unwrap();
        let target = delete.pattern().root();
        let delete = delete.with_delete(target);
        warehouse.commit_batch("doc", &[delete], None).unwrap();
        warehouse.checkpoint("doc").unwrap();
        drop(cold_open(warehouse, &store, "delete and checkpoint"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Texts of one element that can exist together are refused at create even
/// when both are conditional, because a simplification can make both
/// certain: here it merges `x [w1]` with `x [¬w1]` and `y [w2]` with
/// `y [¬w2]`, and the checkpoint of the result reads back one text, `xy`.
#[test]
fn texts_that_can_meet_are_refused_at_create() {
    let mut fuzzy = FuzzyTree::new("r");
    let root = fuzzy.root();
    for (value, event) in [("x", "w1"), ("y", "w2")] {
        let event = fuzzy.add_event(event, 0.5).unwrap();
        for literal in [Literal::pos(event), Literal::neg(event)] {
            let node = fuzzy.add_text(root, value);
            fuzzy
                .set_condition(node, Condition::from_literal(literal))
                .unwrap();
        }
    }
    let warehouse = Store::Mem(Arc::new(MemBackend::new())).open();
    let created = warehouse.create_fuzzy_document("doc", fuzzy.clone());
    assert!(refused_as_unstorable(&created), "{created:?}");
    assert!(!warehouse.contains("doc"));

    Simplifier::new().run(&mut fuzzy).unwrap();
    let texts = |fuzzy: &FuzzyTree| fuzzy.tree().children(fuzzy.root()).len();
    assert_eq!(texts(&fuzzy), 2, "both texts are certain");
    let stored = serialize_fuzzy_document(&fuzzy, false);
    assert_eq!(
        texts(&parse_fuzzy_document(&stored).unwrap()),
        1,
        "{stored}"
    );
}

/// The refusal of an insert is made at the commit door, before the batch
/// is applied or journaled, and replay does not make it again: a journal
/// written before the door refused two texts apart — here an insert of
/// `<a>x<b/>y</a>`, appended through the backend in the journal format the
/// store has always written — still replays on a cold open, beside a
/// healthy document, over both stores.
#[test]
fn a_journaled_insert_of_two_texts_still_replays() {
    let dir = std::env::temp_dir().join(format!("pxml-storable-journal-{}", std::process::id()));
    for store in [
        Store::Mem(Arc::new(MemBackend::new())),
        Store::Fs(dir.clone()),
    ] {
        let warehouse = store.open();
        let healthy_doc = parse_data_tree("<r><name>v</name><x/></r>").unwrap();
        warehouse.create_document("healthy", healthy_doc).unwrap();
        warehouse
            .create_document("doc", parse_data_tree("<r/>").unwrap())
            .unwrap();
        drop(warehouse);
        let backend: Arc<dyn StorageBackend> = match &store {
            Store::Mem(backend) => backend.clone(),
            Store::Fs(dir) => Arc::new(FsBackend::open(dir).unwrap()),
        };
        let subtree = parse_data_tree("<a>x<b/>y</a>").unwrap();
        let pattern = Pattern::parse("r").unwrap();
        let root = pattern.root();
        let insert = UpdateTransaction::certain(pattern).with_insert(root, subtree);
        backend.append_batch("doc", &[insert]).unwrap();
        drop(backend);

        let reopened = store.open();
        assert_eq!(reopened.document_names(), ["doc", "healthy"]);
        let doc = reopened.document("doc").unwrap();
        let tree = doc.tree();
        let a = tree.children(doc.root())[0];
        let labels: Vec<&Label> = tree.children(a).iter().map(|&c| tree.label(c)).collect();
        assert_eq!(
            labels,
            [
                &Label::Text("x".into()),
                &Label::Element("b".into()),
                &Label::Text("y".into())
            ]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
