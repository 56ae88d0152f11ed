//! Mini-loom schedule explorer entry point.
//!
//! ```text
//! cargo run -p pxml-check --bin explore [-- --json <dir>]
//! ```
//!
//! Runs the full scenario battery, prints a coverage table, and exits
//! non-zero if any schedule violates the durability/ordering invariants.
//! With `--json <dir>` it also writes the coverage record `BENCH_LOOM.json`
//! (`{"experiment", "quick", "tables"}`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use pxml_check::loom::{explore, scenarios, ExploreStats};

fn json_dir() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            return Some(PathBuf::from(args.next().unwrap_or_else(|| ".".into())));
        }
    }
    None
}

fn main() -> ExitCode {
    let results: Vec<(&'static str, ExploreStats)> = scenarios()
        .iter()
        .map(|scenario| (scenario.name, explore(scenario)))
        .collect();

    println!(
        "{:<22} {:>8} {:>11} {:>10} {:>14} {:>12} {:>9}",
        "scenario",
        "states",
        "transitions",
        "memo-hits",
        "local-fastpath",
        "schedules",
        "max-depth"
    );
    let mut violations = 0usize;
    for (name, stats) in &results {
        println!(
            "{:<22} {:>8} {:>11} {:>10} {:>14} {:>12} {:>9}",
            name,
            stats.states,
            stats.transitions,
            stats.memo_hits,
            stats.local_fastpaths,
            stats.schedules,
            stats.max_depth
        );
        violations += stats.violations.len();
        for violation in &stats.violations {
            eprintln!("VIOLATION {violation}");
        }
    }

    if let Some(dir) = json_dir() {
        let mut rows = String::new();
        for (index, (name, stats)) in results.iter().enumerate() {
            if index > 0 {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                "      {{\"scenario\": \"{name}\", \"states\": {}, \"transitions\": {}, \
                 \"memo_hits\": {}, \"local_fastpaths\": {}, \"terminals\": {}, \
                 \"schedules\": {}, \"max_depth\": {}, \"violations\": {}}}",
                stats.states,
                stats.transitions,
                stats.memo_hits,
                stats.local_fastpaths,
                stats.terminals,
                stats.schedules,
                stats.max_depth,
                stats.violations.len()
            );
        }
        let json = format!(
            "{{\n  \"experiment\": \"loom\",\n  \"quick\": false,\n  \"tables\": {{\n    \"explorer\": [\n{rows}\n    ]\n  }}\n}}\n"
        );
        let path = dir.join("BENCH_LOOM.json");
        if let Err(error) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json))
        {
            eprintln!("explore: failed to write {}: {error}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if violations == 0 {
        println!(
            "explore: {} scenarios, all schedules uphold the durability invariants",
            results.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("explore: {violations} invariant violation(s)");
        ExitCode::FAILURE
    }
}
