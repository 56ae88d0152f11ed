//! The "people directory" scenario: a synthetic stand-in for the imprecise
//! sources of the paper's introduction.
//!
//! The paper motivates the warehouse with modules performing information
//! extraction, natural-language processing, data cleaning and schema
//! matching, all of which emit data *with a confidence value*. We do not have
//! those pipelines, so this module fabricates their output: a directory of
//! people extracted from the web, where names are reliable but phone numbers,
//! e-mail addresses and affiliations come from extractors of varying quality.
//! The warehouse only ever sees `(update transaction, confidence)` pairs, so
//! these synthetic updates exercise exactly the same code paths as real
//! extraction output would.

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_event::{Condition, Literal};
use pxml_query::Pattern;
use pxml_tree::Tree;
use rand::Rng;

/// Parameters of the people-directory scenario.
#[derive(Debug, Clone)]
pub struct PeopleScenarioConfig {
    /// Number of people initially present (with certain names).
    pub people: usize,
    /// Confidence range of the extraction modules feeding the directory.
    pub min_confidence: f64,
    /// Upper bound of the confidence range.
    pub max_confidence: f64,
}

impl Default for PeopleScenarioConfig {
    fn default() -> Self {
        PeopleScenarioConfig {
            people: 20,
            min_confidence: 0.55,
            max_confidence: 0.95,
        }
    }
}

const FIRST_NAMES: &[&str] = &[
    "alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi", "ivan", "judy", "mallory",
    "oscar", "peggy", "trent", "victor", "wendy",
];
const DOMAINS: &[&str] = &["example.org", "inria.fr", "acm.org", "museum.net"];
const CITIES: &[&str] = &["paris", "orsay", "saclay", "cachan", "lyon"];

fn person_name(index: usize) -> String {
    format!(
        "{}-{}",
        FIRST_NAMES[index % FIRST_NAMES.len()],
        index / FIRST_NAMES.len()
    )
}

/// Builds the initial (certain) directory document:
/// `directory / person* / name`.
pub fn people_directory(config: &PeopleScenarioConfig) -> Tree {
    let mut tree = Tree::new("directory");
    for index in 0..config.people {
        let person = tree.add_element(tree.root(), "person");
        let name = tree.add_element(person, "name");
        tree.add_text(name, person_name(index));
    }
    tree
}

/// The directory a data-cleaning module works on: `directory / person*`,
/// every person with a certain `name` (`person-<p>`), `phones` uncertain
/// phones and one uncertain email, each extracted fact under its own event
/// (`w<p>_<i>` at 0.7 for phones, `v<p>` at 0.8 for emails).
pub fn uncertain_directory(people: usize, phones: usize) -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("directory");
    let root = fuzzy.root();
    for p in 0..people {
        let person = fuzzy.add_element(root, "person");
        let name = fuzzy.add_element(person, "name");
        fuzzy.add_text(name, format!("person-{p}"));
        for i in 0..phones {
            let w = fuzzy
                .add_event(format!("w{p}_{i}"), 0.7)
                .expect("fresh event names");
            let phone = fuzzy.add_conditional_element(
                person,
                "phone",
                Condition::from_literal(Literal::pos(w)),
            );
            fuzzy.add_text(phone, format!("+33-{p}-{i}"));
        }
        let v = fuzzy
            .add_event(format!("v{p}"), 0.8)
            .expect("fresh event names");
        let email = fuzzy.add_conditional_element(
            person,
            "email",
            Condition::from_literal(Literal::pos(v)),
        );
        fuzzy.add_text(email, format!("p{p}@example.org"));
    }
    fuzzy
}

/// The kinds of imprecise facts the synthetic extractors produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionKind {
    /// A phone number extracted from a web page.
    Phone,
    /// An e-mail address guessed by an NLP module.
    Email,
    /// A city guessed by an entity-resolution module.
    City,
    /// A data-cleaning module retracting previously inserted phone numbers.
    RetractPhones,
}

/// Generates one extraction-style probabilistic update against the directory:
/// an insertion of a phone/e-mail/city under a random person, or a
/// data-cleaning deletion, with a random confidence. Returns the transaction
/// and the kind of module that produced it.
pub fn extraction_update(
    rng: &mut impl Rng,
    config: &PeopleScenarioConfig,
) -> (UpdateTransaction, ExtractionKind) {
    let person = rng.gen_range(0..config.people.max(1));
    let name = person_name(person);
    let confidence = rng.gen_range(config.min_confidence..=config.max_confidence);
    let kind = match rng.gen_range(0..4u32) {
        0 => ExtractionKind::Phone,
        1 => ExtractionKind::Email,
        2 => ExtractionKind::City,
        _ => ExtractionKind::RetractPhones,
    };

    let transaction = |pattern: Pattern| {
        UpdateTransaction::new(pattern, confidence).expect("confidence in range")
    };
    let update = match kind {
        ExtractionKind::Phone => {
            let pattern =
                Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).expect("static query");
            let target = pattern.root();
            let mut subtree = Tree::new("phone");
            let number = format!(
                "+33-1-{:04}-{:04}",
                rng.gen_range(0..10_000),
                rng.gen_range(0..10_000)
            );
            subtree.add_text(subtree.root(), number);
            transaction(pattern).with_insert(target, subtree)
        }
        ExtractionKind::Email => {
            let pattern =
                Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).expect("static query");
            let target = pattern.root();
            let mut subtree = Tree::new("email");
            let domain = DOMAINS[rng.gen_range(0..DOMAINS.len())];
            subtree.add_text(subtree.root(), format!("{name}@{domain}"));
            transaction(pattern).with_insert(target, subtree)
        }
        ExtractionKind::City => {
            let pattern =
                Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).expect("static query");
            let target = pattern.root();
            let mut subtree = Tree::new("city");
            subtree.add_text(subtree.root(), CITIES[rng.gen_range(0..CITIES.len())]);
            transaction(pattern).with_insert(target, subtree)
        }
        ExtractionKind::RetractPhones => {
            let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"], phone }}"))
                .expect("static query");
            let phone_node = pattern.node_ids().nth(2).expect("phone is the third node");
            transaction(pattern).with_delete(phone_node)
        }
    };
    (update, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::FuzzyTree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn directory_has_expected_shape() {
        let config = PeopleScenarioConfig {
            people: 7,
            ..PeopleScenarioConfig::default()
        };
        let tree = people_directory(&config);
        assert_eq!(tree.find_elements("person").len(), 7);
        assert_eq!(tree.find_elements("name").len(), 7);
        assert!(tree.check_data_model().is_ok());
        // Names are unique.
        let mut names: Vec<String> = tree
            .find_elements("name")
            .into_iter()
            .map(|n| tree.node_value(n).unwrap().to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn extraction_updates_target_existing_people() {
        let config = PeopleScenarioConfig::default();
        let tree = people_directory(&config);
        let mut rng = StdRng::seed_from_u64(17);
        let mut applied_insert = false;
        for _ in 0..30 {
            let (update, kind) = extraction_update(&mut rng, &config);
            assert!(update.confidence() >= config.min_confidence);
            assert!(update.confidence() <= config.max_confidence);
            if kind != ExtractionKind::RetractPhones {
                // Insertions always select the document (the person exists).
                assert!(
                    !update.pattern().find_matches(&tree).is_empty(),
                    "insertion query must match the directory"
                );
                applied_insert = true;
            }
        }
        assert!(applied_insert);
    }

    #[test]
    fn a_stream_of_updates_keeps_the_document_valid() {
        let config = PeopleScenarioConfig {
            people: 6,
            ..PeopleScenarioConfig::default()
        };
        let mut fuzzy = FuzzyTree::from_tree(people_directory(&config));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            let (update, _) = extraction_update(&mut rng, &config);
            update.apply_to_fuzzy(&mut fuzzy).unwrap();
        }
        assert!(fuzzy.validate().is_ok());
        assert!(fuzzy.event_count() > 0);
        assert!(fuzzy.node_count() > 13);
    }

    #[test]
    fn retraction_updates_only_match_after_phone_insertions() {
        let config = PeopleScenarioConfig {
            people: 1,
            ..PeopleScenarioConfig::default()
        };
        let tree = people_directory(&config);
        let retract = Pattern::parse(&format!(
            "person {{ name[=\"{}\"], phone }}",
            person_name(0)
        ))
        .unwrap();
        assert!(retract.find_matches(&tree).is_empty());
        let mut with_phone = tree.clone();
        let person = with_phone.find_elements("person")[0];
        let phone = with_phone.add_element(person, "phone");
        with_phone.add_text(phone, "+33-1-0000-0000");
        assert!(!retract.find_matches(&with_phone).is_empty());
    }
}
