//! Repo invariant linter entry point.
//!
//! ```text
//! cargo run -p pxml-check --bin lint [-- [--ledger] [--root <workspace-root>]]
//! ```
//!
//! Prints one `path:line: [rule] message` per finding and exits non-zero if
//! there are any, so CI can gate on it. With `--ledger` it prints the size
//! ledger instead — non-test code lines and public items per workspace crate
//! — and lints nothing. Without `--root` the workspace root
//! is the current directory if it holds a `Cargo.toml`, else the root this
//! binary was compiled in.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--root" {
            if let Some(root) = args.next() {
                return PathBuf::from(root);
            }
        }
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("Cargo.toml").is_file() {
        return cwd;
    }
    // crates/check -> workspace root, resolved at compile time.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or(cwd)
}

fn print_ledger(root: &Path) -> std::io::Result<()> {
    let rows = pxml_check::lint::ledger(root)?;
    println!("{:<18} {:>10} {:>10}", "crate", "code lines", "pub items");
    for (krate, lines, items) in &rows {
        println!("{krate:<18} {lines:>10} {items:>10}");
    }
    let lines: usize = rows.iter().map(|row| row.1).sum();
    let items: usize = rows.iter().map(|row| row.2).sum();
    println!("{:<18} {lines:>10} {items:>10}", "total");
    Ok(())
}

fn main() -> ExitCode {
    let root = workspace_root();
    if std::env::args().any(|arg| arg == "--ledger") {
        return match print_ledger(&root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("lint: failed to scan {}: {error}", root.display());
                ExitCode::from(2)
            }
        };
    }
    let findings = match pxml_check::lint::lint_root(&root) {
        Ok(findings) => findings,
        Err(error) => {
            eprintln!("lint: failed to scan {}: {error}", root.display());
            return ExitCode::from(2);
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("lint: clean ({} ok)", root.display());
        ExitCode::SUCCESS
    } else {
        println!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
