//! A commit's simplification costs what its update touched, not the
//! document: the inline pipeline's counts of nodes walked and keyed are the
//! same on a 200-, an 800- and a 3 200-person directory, run after run, and
//! the scoped run gives the whole-document run's bytes. The whole-document
//! run's counts on the same documents grow with them, so the gate can fail.

use pxml::gen::uncertain_directory;
use pxml::prelude::*;
use pxml::store::serialize_fuzzy_document;

/// Directory sizes, in persons.
const SIZES: [usize; 3] = [200, 800, 3200];

/// An extraction module's new phone for `person-17`, confidence 0.8.
fn one_phone() -> UpdateTransaction {
    let pattern = Pattern::parse("person { name[=\"person-17\"] }").unwrap();
    let person = pattern.root();
    UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
        person,
        parse_data_tree("<phone>+33-17-new</phone>").unwrap(),
    )
}

/// A cleaning module's retraction of `person-17`'s email when the person
/// has a phone, confidence 0.9: two matches, a fragmented email, a re-cover.
fn one_retraction() -> UpdateTransaction {
    let pattern = Pattern::parse("person { phone, email, name[=\"person-17\"] }").unwrap();
    let email = pattern.node_ids().nth(2).unwrap();
    UpdateTransaction::new(pattern, 0.9)
        .unwrap()
        .with_delete(email)
}

/// A simplified directory of `people` persons with two uncertain phones and
/// an uncertain email each: a fixpoint.
fn clean_directory(people: usize) -> FuzzyTree {
    let mut fuzzy = uncertain_directory(people, 2);
    Simplifier::new().run(&mut fuzzy).unwrap();
    fuzzy
}

/// `update` applied through the inline pipeline to a copy of `base`: its
/// simplification report, after checking that the result has the bytes of
/// the whole-document run over the same updated document.
fn scoped_report(base: &FuzzyTree, update: &UpdateTransaction) -> SimplifyReport {
    let mut scoped = base.clone();
    let stats = update
        .apply_to_fuzzy_with(&mut scoped, SimplifyPolicy::Inline)
        .unwrap();
    let mut whole = base.clone();
    update.apply_to_fuzzy(&mut whole).unwrap();
    Simplifier::new().run(&mut whole).unwrap();
    assert_eq!(
        serialize_fuzzy_document(&scoped, false),
        serialize_fuzzy_document(&whole, false)
    );
    stats.simplify.expect("the inline policy simplifies")
}

/// What a run looked at: (nodes walked, nodes keyed).
fn work(report: &SimplifyReport) -> (usize, usize) {
    (report.nodes_walked, report.nodes_keyed)
}

#[test]
fn a_commit_simplifies_the_same_nodes_whatever_the_directory_size() {
    let mut scoped = Vec::new();
    let mut whole = Vec::new();
    for people in SIZES {
        let base = clean_directory(people);
        let mut row = Vec::new();
        for update in [one_phone(), one_retraction()] {
            let report = scoped_report(&base, &update);
            assert_eq!(report, scoped_report(&base, &update), "deterministic");
            row.push(work(&report));
        }
        scoped.push(row);
        whole.push(work(&Simplifier::new().run(&mut base.clone()).unwrap()));
    }
    // The insertion walks the new phone and its text and keys the person's
    // three phones. The retraction walks the email's three copies and their
    // texts, keys them with the two phones, re-covers the copies into two,
    // and the second round walks and keys what the re-cover rewrote.
    for row in &scoped {
        assert_eq!(row, &[(2, 3), (10, 9)], "scoped work by size: {scoped:?}");
    }
    // The whole-document run walks and keys every person.
    for pair in whole.windows(2) {
        assert!(pair[1].0 > pair[0].0 && pair[1].1 > pair[0].1, "{whole:?}");
    }
    assert!(whole[0].0 > scoped[0][1].0, "{whole:?} vs {scoped:?}");
}
