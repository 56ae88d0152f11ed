//! Mini-loom schedule explorer entry point.
//!
//! ```text
//! cargo run -p pxml-check --bin explore [-- --json <dir>]
//! ```
//!
//! Runs the full scenario battery over the real group committer, prints one
//! coverage row per scenario, and exits non-zero if any schedule violates
//! the durability/ordering invariants. With `--json <dir>` it also writes the
//! coverage record `BENCH_LOOM.json` (`{"experiment", "quick", "tables"}`).

use std::path::PathBuf;
use std::process::ExitCode;

use pxml_check::loom::{explore_all, scenarios, PREEMPTION_BOUND};

fn main() -> ExitCode {
    let mut rows = Vec::new();
    let mut violations = 0usize;
    for (name, stats) in explore_all(&scenarios()) {
        let row = format!(
            "{{\"scenario\": \"{name}\", \"preemption_bound\": {PREEMPTION_BOUND}, \
             \"schedules\": {}, \"points\": {}, \"max_depth\": {}, \"timeouts\": {}, \
             \"faults\": {}, \"violations\": {}}}",
            stats.schedules,
            stats.points,
            stats.max_depth,
            stats.timeouts,
            stats.faults,
            stats.violations.len()
        );
        println!("{row}");
        rows.push(format!("      {row}"));
        violations += stats.violations.len();
        for violation in &stats.violations {
            eprintln!("VIOLATION {violation}");
        }
    }

    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|arg| arg == "--json") {
        let dir = PathBuf::from(args.get(at + 1).map_or(".", String::as_str));
        let json = format!(
            "{{\n  \"experiment\": \"loom\",\n  \"quick\": false,\n  \"tables\": {{\n    \"explorer\": [\n{}\n    ]\n  }}\n}}\n",
            rows.join(",\n")
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
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("explore: {violations} invariant violation(s)");
        ExitCode::FAILURE
    }
}
