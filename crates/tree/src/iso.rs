//! Unordered tree isomorphism: the one canonical form and the one grouper.
//!
//! The paper's data trees are unordered, so two trees are equal when one can
//! be obtained from the other by permuting siblings, and every set the paper
//! defines — the answers of a query, the worlds of a fuzzy tree, the
//! same-body siblings the simplifier may merge — is a set *up to
//! isomorphism*. This module decides isomorphism for all of them, by
//! comparing canonical strings, and is the only place that writes one
//! ([`subtree_canonical_string`]) or groups trees by one
//! ([`isomorphism_classes`]).
//!
//! **The format.** The canonical string of a node is
//!
//! ```text
//! kind '|' label [ '[' annotation ']' ] [ '(' child ',' child … ')' ]
//! ```
//!
//! * `kind` is `e` for an element and `t` for a text node;
//! * `label` is the element name or text value with every structure
//!   character — `(` `)` `,` `|` `[` `]` and the escape `\` itself —
//!   preceded by `\`, so no label can pose as an annotation, a child list or
//!   a sibling;
//! * the annotation is whatever the caller's per-node hook wrote, between
//!   brackets, and is absent (brackets included) where the hook wrote
//!   nothing — the plain form of a data tree annotates nothing. The writer
//!   does not escape it: an annotation must not contain `]`;
//! * the children's canonical strings follow **sorted**, which is what makes
//!   the string independent of sibling order.
//!
//! Labels and annotations are thereby read back unambiguously, so two
//! (annotated) subtrees are isomorphic iff their canonical strings are
//! equal. `pxml-core` is the only annotating caller: it writes a node's
//! condition, so that fuzzy subtrees with different conditions differ
//! (`FuzzyTree::fuzzy_canonical_string`, and the simplifier's same-body
//! test, which leaves the subtree's own root unannotated).
//!
//! **The grouper** returns classes in order of their first member, never in
//! hash or string order: answers are reported in document order of their
//! first match, and nothing a caller prints may depend on a hasher's seed.
//! Callers that want a total order (possible-world normalisation) sort the
//! classes by [`CanonicalForm`] themselves.

use std::collections::HashMap;

use crate::label::Label;
use crate::tree::{NodeId, Tree};

/// The canonical form of a whole tree, unannotated: equal for isomorphic
/// trees, different for non-isomorphic ones, and totally ordered.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalForm(String);

impl CanonicalForm {
    /// Computes the canonical form of a whole tree.
    pub fn of_tree(tree: &Tree) -> Self {
        CanonicalForm(canonical_string(tree))
    }

    /// The canonical string itself.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// The canonical string of the subtree of `tree` rooted at `node` (format in
/// the module docs). `annotate` is called once per node of the subtree with
/// the output buffer; what it appends becomes that node's annotation.
pub fn subtree_canonical_string(
    tree: &Tree,
    node: NodeId,
    annotate: &mut impl FnMut(NodeId, &mut String),
) -> String {
    let (kind, label) = match tree.label(node) {
        Label::Element(name) => ('e', name),
        Label::Text(value) => ('t', value),
    };
    // Room for the kind, the separator and the annotation's opening bracket.
    let mut out = String::with_capacity(label.len() + 3);
    out.push(kind);
    out.push('|');
    for ch in label.chars() {
        if matches!(ch, '(' | ')' | ',' | '|' | '[' | ']' | '\\') {
            out.push('\\');
        }
        out.push(ch);
    }
    let unannotated = out.len();
    out.push('[');
    annotate(node, &mut out);
    if out.len() == unannotated + 1 {
        out.pop();
    } else {
        debug_assert!(
            !out[unannotated + 1..].contains(']'),
            "an annotation must not contain `]`"
        );
        out.push(']');
    }
    let mut child_forms: Vec<String> = tree
        .children(node)
        .iter()
        .map(|&child| subtree_canonical_string(tree, child, annotate))
        .collect();
    if child_forms.is_empty() {
        return out;
    }
    child_forms.sort_unstable();
    out.push('(');
    for (i, form) in child_forms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(form);
    }
    out.push(')');
    out
}

/// The canonical string of the whole tree, unannotated.
pub fn canonical_string(tree: &Tree) -> String {
    subtree_canonical_string(tree, tree.root(), &mut |_, _| {})
}

/// Unordered isomorphism between two whole trees.
pub fn isomorphic(a: &Tree, b: &Tree) -> bool {
    a.node_count() == b.node_count() && canonical_string(a) == canonical_string(b)
}

/// The isomorphism classes of a sequence of trees: each class's canonical
/// form and the positions of its members in the sequence, ascending; the
/// classes come in order of their first member.
pub fn isomorphism_classes<'a>(
    trees: impl IntoIterator<Item = &'a Tree>,
) -> Vec<(CanonicalForm, Vec<usize>)> {
    let trees = trees.into_iter();
    // Sized for all-distinct input: growing would re-hash whole strings.
    let mut members_of: HashMap<CanonicalForm, Vec<usize>> =
        HashMap::with_capacity(trees.size_hint().0);
    for (position, tree) in trees.enumerate() {
        members_of
            .entry(CanonicalForm::of_tree(tree))
            .or_default()
            .push(position);
    }
    let mut classes: Vec<(CanonicalForm, Vec<usize>)> = members_of.into_iter().collect();
    classes.sort_unstable_by_key(|(_, members)| members[0]);
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(labels: &[&str]) -> Tree {
        let mut t = Tree::new(labels[0]);
        let mut cur = t.root();
        for &l in &labels[1..] {
            cur = t.add_element(cur, l);
        }
        t
    }

    #[test]
    fn sibling_order_does_not_matter() {
        let mut t1 = Tree::new("a");
        let b = t1.add_element(t1.root(), "b");
        t1.add_text(b, "x");
        t1.add_element(t1.root(), "c");

        let mut t2 = Tree::new("a");
        t2.add_element(t2.root(), "c");
        let b2 = t2.add_element(t2.root(), "b");
        t2.add_text(b2, "x");

        assert!(isomorphic(&t1, &t2));
        assert_eq!(canonical_string(&t1), canonical_string(&t2));
    }

    #[test]
    fn label_differences_matter() {
        let t1 = chain(&["a", "b", "c"]);
        let t2 = chain(&["a", "b", "d"]);
        assert!(!isomorphic(&t1, &t2));
    }

    #[test]
    fn structure_differences_matter() {
        // a(b(c)) vs a(b, c)
        let t1 = chain(&["a", "b", "c"]);
        let mut t2 = Tree::new("a");
        t2.add_element(t2.root(), "b");
        t2.add_element(t2.root(), "c");
        assert!(!isomorphic(&t1, &t2));
    }

    #[test]
    fn text_vs_element_labels_are_distinguished() {
        let mut t1 = Tree::new("a");
        t1.add_element(t1.root(), "x");
        let mut t2 = Tree::new("a");
        t2.add_text(t2.root(), "x");
        assert!(!isomorphic(&t1, &t2));
    }

    #[test]
    fn multiset_of_children_matters() {
        // a(b, b, c) vs a(b, c, c)
        let mut t1 = Tree::new("a");
        t1.add_element(t1.root(), "b");
        t1.add_element(t1.root(), "b");
        t1.add_element(t1.root(), "c");
        let mut t2 = Tree::new("a");
        t2.add_element(t2.root(), "b");
        t2.add_element(t2.root(), "c");
        t2.add_element(t2.root(), "c");
        assert!(!isomorphic(&t1, &t2));
    }

    #[test]
    fn labels_with_structure_characters_do_not_collide() {
        let mut t1 = Tree::new("a");
        t1.add_element(t1.root(), "b(c");
        let mut t2 = Tree::new("a");
        let b = t2.add_element(t2.root(), "b");
        t2.add_element(b, "c");
        assert!(!isomorphic(&t1, &t2));
    }

    #[test]
    fn subtree_isomorphism() {
        let mut t = Tree::new("root");
        let l = t.add_element(t.root(), "list");
        let p1 = t.add_element(l, "p");
        t.add_text(p1, "v");
        let p2 = t.add_element(l, "p");
        t.add_text(p2, "v");
        let p3 = t.add_element(l, "p");
        t.add_text(p3, "w");
        let plain = |node| subtree_canonical_string(&t, node, &mut |_, _| {});
        assert_eq!(plain(p1), plain(p2));
        assert_ne!(plain(p1), plain(p3));
    }

    #[test]
    fn canonical_form_hash_and_order() {
        let t1 = chain(&["a", "b"]);
        let t2 = chain(&["a", "b"]);
        let t3 = chain(&["a", "c"]);
        let c1 = CanonicalForm::of_tree(&t1);
        let c2 = CanonicalForm::of_tree(&t2);
        let c3 = CanonicalForm::of_tree(&t3);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        assert!(c1 < c3 && c1.as_str() < c3.as_str());
        let distinct: std::collections::HashSet<CanonicalForm> = [c1, c2, c3].into();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn annotations_sit_between_label_and_children_and_labels_cannot_fake_them() {
        let mut t = Tree::new("r");
        let a = t.add_element(t.root(), "a");
        t.add_text(a, "x");
        let annotated = subtree_canonical_string(&t, t.root(), &mut |node, out| {
            if node == a {
                out.push_str("w0");
            }
        });
        assert_eq!(annotated, "e|r(e|a[w0](t|x))");
        assert_eq!(canonical_string(&t), "e|r(e|a(t|x))");
        // A label spelling out the annotated string is escaped, not believed.
        let mut fake = Tree::new("r");
        fake.add_element(fake.root(), "a[w0](t|x)");
        assert_eq!(canonical_string(&fake), r"e|r(e|a\[w0\]\(t\|x\))");
    }

    #[test]
    fn classes_come_in_first_occurrence_order_with_ascending_members() {
        let ab = chain(&["a", "b"]);
        let ac = chain(&["a", "c"]);
        let z = chain(&["z"]);
        let classes = isomorphism_classes([&z, &ac, &ab, &z, &ac, &z]);
        let members: Vec<&[usize]> = classes.iter().map(|(_, m)| m.as_slice()).collect();
        assert_eq!(members, [&[0, 3, 5][..], &[1, 4], &[2]]);
        assert_eq!(classes[1].0, CanonicalForm::of_tree(&ac));
        assert!(isomorphism_classes([]).is_empty());
    }

    #[test]
    fn isomorphism_is_symmetric_and_reflexive() {
        let t1 = chain(&["a", "b", "c"]);
        let t2 = chain(&["a", "b", "c"]);
        assert!(isomorphic(&t1, &t1));
        assert!(isomorphic(&t1, &t2));
        assert!(isomorphic(&t2, &t1));
    }
}
