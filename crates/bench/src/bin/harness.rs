//! The experiment harness. It has two jobs, and every experiment does one
//! of them:
//!
//! * **reproduce a table of the paper** (Abiteboul & Senellart, EDBT 2006) —
//!   E1–E8 and E10, in [`paper`]: the possible-worlds and fuzzy-tree
//!   examples of the slides, the commutation of queries and updates with
//!   the possible-worlds semantics, deletion growth, simplification, and the
//!   empirical complexity of query / update / simplify;
//! * **gate an invariant `benchmarks/pxbench` cannot see** — an `assert!`
//!   CI runs: E8 (simplification never grows a document, reaches the
//!   re-cover optimum, and is deterministic) in [`paper`]; E13 (factored
//!   selection equals the per-person oracle), E14 (grouped windows issue
//!   fewer fsync rounds than commits), E15 (readers never inherit a
//!   writer's flush stall) and E22 (a commit's simplification work does not
//!   grow with the document) in [`engine`]; E17 (wire scaling, query tail,
//!   `Busy` shedding) and E18 (exact acked-prefix replay and bounded retries
//!   under injected faults) in [`wire`].
//!
//! An experiment that does neither — a timing sweep nothing asserts on, a
//! column another table already prints — does not belong here: numbers
//! anyone diffs, the per-layer trace and the parent-vs-change comparison are
//! pxbench's job, and the text tables on stdout are this harness's only
//! output. What the families share (builders, timing and printing helpers,
//! the scratch-directory guard, the stats delta) is `pxml_bench`'s library.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pxml-bench --bin harness               # all experiments
//! cargo run --release -p pxml-bench --bin harness e3 e5         # a selection
//! cargo run --release -p pxml-bench --bin harness -- --quick    # smaller sweeps
//! cargo run --release -p pxml-bench --bin harness -- --quick e3 # both
//! ```
//!
//! An argument that is neither `--quick` nor an experiment name prints the
//! valid ones and exits 2.

#[path = "harness/engine.rs"]
mod engine;
#[path = "harness/paper.rs"]
mod paper;
#[path = "harness/wire.rs"]
mod wire;

type Experiment = fn(bool);

const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("e1", paper::e1_possible_worlds_example),
    ("e2", paper::e2_expressiveness),
    ("e3", paper::e3_query_models),
    ("e4", paper::e4_updates),
    ("e5", paper::e5_deletion_growth),
    ("e6", paper::e6_conditional_replacement),
    ("e7", paper::e7_warehouse),
    ("e8", paper::e8_simplification),
    ("e10", paper::e10_complexity_summary),
    ("e13", engine::e13_disjunction_structure),
    ("e14", engine::e14_group_commit),
    ("e15", engine::e15_snapshot_reads),
    ("e17", wire::e17_request_rate),
    ("e18", wire::e18_chaos_sweep),
    ("e22", engine::e22_commit_vs_size),
];

/// Parses the command line into `(quick, experiments to run)`. Naming no
/// experiment selects all of them, and the selection comes back in table
/// order whatever order it was typed in. Anything that is neither `--quick`
/// nor an experiment name is an error: a mistyped CI selector must fail the
/// step, not run nothing and exit green.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(bool, Vec<&'static str>), String> {
    let names = || EXPERIMENTS.iter().map(|(name, _)| *name);
    let mut quick = false;
    let mut named = Vec::new();
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if names().any(|name| name == arg) {
            named.push(arg);
        } else {
            let valid: Vec<&str> = names().collect();
            return Err(format!(
                "unknown argument `{arg}`; valid arguments: --quick {}",
                valid.join(" ")
            ));
        }
    }
    let selected = names()
        .filter(|name| named.is_empty() || named.iter().any(|n| n == name))
        .collect();
    Ok((quick, selected))
}

fn main() {
    let (quick, selected) = parse_args(std::env::args().skip(1)).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });
    println!("pxml experiment harness (quick = {quick})");
    println!("=========================================\n");
    for (name, body) in EXPERIMENTS {
        if selected.contains(&name) {
            body(quick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, EXPERIMENTS};

    fn parse(args: &[&str]) -> Result<(bool, Vec<&'static str>), String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn known_selectors_run_in_table_order() {
        assert_eq!(parse(&["e17", "e3"]), Ok((false, vec!["e3", "e17"])));
        assert_eq!(parse(&["--quick", "e1"]), Ok((true, vec!["e1"])));
    }

    #[test]
    fn unknown_selector_is_an_error_naming_the_valid_ones() {
        for typo in ["e9", "e11", "e12", "e16", "e99", "quick"] {
            let error = parse(&["e1", typo]).unwrap_err();
            assert!(error.contains(&format!("`{typo}`")), "{error}");
            assert!(error.contains("--quick e1 e2 "), "{error}");
            assert!(error.ends_with(" e17 e18 e22"), "{error}");
        }
    }

    #[test]
    fn unknown_flag_is_an_error() {
        for typo in ["--qiuck", "--bogus"] {
            let error = parse(&["--quick", typo]).unwrap_err();
            assert!(error.contains(&format!("`{typo}`")), "{error}");
        }
    }

    #[test]
    fn quick_alone_selects_every_experiment() {
        let (quick, selected) = parse(&["--quick"]).unwrap();
        assert!(quick);
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(selected, all);
        assert_eq!(parse(&[]), Ok((false, all)));
    }
}
