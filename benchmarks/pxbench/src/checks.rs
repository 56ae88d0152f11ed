//! The set-up oracle: on a directory small enough to enumerate, every
//! probability the server reports must equal the possible-worlds semantics
//! (`pxml_core::worlds`), which shares no code with the fuzzy-tree engine
//! beyond the pattern matcher.

use pxml_core::{FuzzyTree, PossibleWorlds};
use pxml_gen::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml_query::Pattern;
use pxml_tree::{parse_data_tree, write_data_tree, Label, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::run::Wire;

const ORACLE_DOC: &str = "oracle-mini";
const ORACLE_PEOPLE: usize = 3;
/// At most one fresh event per update, so the world set stays within 2^12.
const ORACLE_UPDATES: usize = 12;
const ORACLE_SEED: u64 = 2006;
const ORACLE_TOLERANCE: f64 = 1e-9;
const ORACLE_PATTERNS: [&str; 5] = [
    "person { phone }",
    "person { name, email }",
    "person { name, city }",
    "person { name[=\"alice-0\"], phone }",
    "person { name[=\"bob-0\"] }",
];

/// Commits a seeded extraction stream to a three-person directory through
/// the wire and in the possible-worlds model, then compares every answer
/// probability. Returns the violations found (none when the server agrees
/// with the semantics).
pub fn oracle(wire: &mut Wire) -> Vec<String> {
    let mut violations = Vec::new();
    let config = PeopleScenarioConfig {
        people: ORACLE_PEOPLE,
        ..PeopleScenarioConfig::default()
    };
    let directory = people_directory(&config);
    let xml = write_data_tree(&directory, false);
    if wire
        .call(|client| client.open(ORACLE_DOC, Some(&xml)))
        .is_none()
    {
        return vec!["oracle: cannot create the mini directory".to_string()];
    }
    let mut worlds = PossibleWorlds::certain(directory);
    let mut rng = StdRng::seed_from_u64(ORACLE_SEED);
    for _ in 0..ORACLE_UPDATES {
        let (update, _) = extraction_update(&mut rng, &config);
        if wire
            .call(|client| client.commit(ORACLE_DOC, std::slice::from_ref(&update)))
            .is_none()
        {
            violations.push("oracle: commit failed".to_string());
        }
        worlds = worlds.update(&update);
    }
    for text in ORACLE_PATTERNS {
        let pattern = Pattern::parse(text).expect("oracle patterns are well-formed");
        let Some((reply, _)) = wire.call(|client| client.query(ORACLE_DOC, text)) else {
            violations.push(format!("oracle: query `{text}` failed"));
            continue;
        };
        let expected = worlds.query(&pattern);
        let expected_selection =
            worlds.probability_that(|world| !pattern.find_matches(world).is_empty());
        if (reply.selection - expected_selection).abs() > ORACLE_TOLERANCE {
            violations.push(format!(
                "oracle: `{text}` selection {} but possible worlds give {expected_selection}",
                reply.selection
            ));
        }
        let possible = expected.iter().filter(|(_, p)| *p > 1e-15).count();
        if reply.answers.len() != possible {
            violations.push(format!(
                "oracle: `{text}` returned {} answers but {possible} are possible",
                reply.answers.len()
            ));
        }
        for answer in &reply.answers {
            let Ok(tree) = parse_data_tree(&answer.xml) else {
                violations.push(format!("oracle: `{text}` answer is not a data tree"));
                continue;
            };
            let expected = expected.probability_of_tree(&tree);
            if (answer.probability - expected).abs() > ORACLE_TOLERANCE {
                violations.push(format!(
                    "oracle: `{text}` answer {} has probability {} but possible worlds give {expected}",
                    answer.xml, answer.probability
                ));
            }
        }
    }
    violations
}

/// An order-insensitive rendering of a whole document: every node with its
/// label and its condition spelled with event *names*, children sorted,
/// followed by every event with its probability. Two snapshots with the same
/// canonical text denote the same fuzzy tree.
///
/// The restart check compares these rather than raw serializations because
/// the simplification pass that recovery runs may emit merged siblings in a
/// different order on every restart of the very same files (it iterates a
/// randomly seeded hash map); sibling order carries no meaning in the
/// paper's unordered data model.
pub fn canonical_document(fuzzy: &FuzzyTree) -> String {
    fn node(fuzzy: &FuzzyTree, id: NodeId, out: &mut String) {
        match fuzzy.tree().label(id) {
            Label::Element(name) => {
                out.push_str("e|");
                out.push_str(name);
            }
            Label::Text(value) => {
                out.push_str("t|");
                out.push_str(value);
            }
        }
        let mut literals: Vec<String> = fuzzy
            .condition_literals(id)
            .iter()
            .map(|literal| literal.display(fuzzy.events()))
            .collect();
        literals.sort_unstable();
        out.push('[');
        out.push_str(&literals.join(" "));
        out.push(']');
        let mut children: Vec<String> = fuzzy
            .tree()
            .children(id)
            .iter()
            .map(|&child| {
                let mut text = String::new();
                node(fuzzy, child, &mut text);
                text
            })
            .collect();
        children.sort_unstable();
        out.push('(');
        out.push_str(&children.join(","));
        out.push(')');
    }
    let mut out = String::new();
    node(fuzzy, fuzzy.root(), &mut out);
    let mut events: Vec<String> = fuzzy
        .events()
        .iter()
        .map(|(_, name, probability)| format!("{name}={probability}"))
        .collect();
    events.sort_unstable();
    out.push('\n');
    out.push_str(&events.join(" "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_event::{Condition, Literal};

    #[test]
    fn canonical_text_ignores_sibling_order_but_not_conditions_or_probabilities() {
        let build = |swap: bool, probability: f64| {
            let mut fuzzy = FuzzyTree::new("directory");
            let event = fuzzy.fresh_event(probability).unwrap();
            let root = fuzzy.root();
            let mut add = |name: &str, conditional: bool| {
                let node = fuzzy.add_element(root, name);
                if conditional {
                    fuzzy
                        .set_condition(node, Condition::from_literal(Literal::pos(event)))
                        .unwrap();
                }
            };
            if swap {
                add("b", false);
                add("a", true);
            } else {
                add("a", true);
                add("b", false);
            }
            fuzzy
        };
        let reference = canonical_document(&build(false, 0.5));
        assert_eq!(reference, canonical_document(&build(true, 0.5)));
        assert_ne!(reference, canonical_document(&build(false, 0.6)));
        let mut unconditional = build(false, 0.5);
        let a = unconditional.tree().children(unconditional.root())[0];
        unconditional.set_condition(a, Condition::always()).unwrap();
        assert_ne!(reference, canonical_document(&unconditional));
    }
}
