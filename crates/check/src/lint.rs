//! The repo invariant linter: lexical/structural enforcement (no `syn`, no
//! crates.io) of the concurrency rules the engine's safety rests on.
//!
//! Rules (all scoped to workspace sources outside `shims/`):
//!
//! - **`std-sync-lock`** — no `std::sync::{Mutex, RwLock, Condvar}` (or
//!   their guard types) anywhere: blocking primitives must come from the
//!   `parking_lot` shim so the lock-witness instruments them.
//! - **`guard-unwrap`** — no `.unwrap()` / `.expect(` in non-test code
//!   while a lock guard is live (either later in the same method chain as a
//!   `.lock()`/`.read()`/`.write()`, or on a line where a `let`-bound guard
//!   is still in scope): a panic under a lock poisons whole subsystems at
//!   once, so lock-adjacent fallible code must surface errors instead.
//! - **`lock-class`** — every lock construction site in non-test code must
//!   declare its `LockClass` (`Mutex::with_class` / `RwLock::with_class`,
//!   never bare `::new` / `::default`), so the witness's order graph stays
//!   meaningful.
//! - **`relaxed-protocol-atomic`** — atomics whose declaration carries a
//!   `// lint: protocol-atomic` marker (the ones acknowledgement/admission
//!   decisions read, e.g. the commit slot state) must never be used with
//!   `Ordering::Relaxed` in their file.
//! - **`doc-clone-under-guard`** — no full-document clone (`fuzzy.clone()`
//!   / `.fuzzy().clone()`) in non-test code while a `.read()`/`.write()`
//!   guard is live: the doc-entry lock is meant to be held for the O(1)
//!   snapshot pin or pointer swap only, so pin the `Arc` snapshot and clone
//!   outside the lock.
//! - **`no-net-in-engine`** — no `std::net` outside `crates/server/`: the
//!   engine crates stay embeddable (and deterministic under the schedule
//!   explorer), so sockets are confined to the wire front-end.
//! - **`io-result-drop`** — no `let _ = …;` discards and no
//!   statement-position `.ok();` in `crates/store/` / `crates/warehouse/`
//!   non-test code: on the durability path a silently dropped `Result` is
//!   how fsyncgate-class bugs hide (the fsync failed, nobody noticed, the
//!   commit was acknowledged anyway). Handle the error or mark the one
//!   deliberate discard with the allow marker.
//! - **`hash-order-in-apply`** — no `HashMap` / `HashSet` in non-test code
//!   of `crates/core/src/update.rs` and `crates/core/src/simplify.rs`:
//!   what those two files do to a document is replayed by recovery and must
//!   be a function of the document. Hash iteration order reached a persisted
//!   document from them twice, and both times a reader found it, not a
//!   tool; an ordered map or a sorted `Vec` costs nothing there.
//! - **`record-framing-home`** — no `_le_bytes(` in non-test code of
//!   `crates/store/src/` outside `journal.rs`: that module is the only one
//!   that knows a journal record's bytes, so the next format change (a
//!   version byte, a CRC) cannot grow a second home unnoticed.
//! - **`unreferenced-pub`** — a `pub fn` in non-test code under an engine
//!   crate's `src/` (every `crates/*` but the `check` and `bench` tooling)
//!   whose name appears in the code (comments and strings blanked) of no
//!   other `.rs` file of the workspace: public API nothing calls is surface
//!   to keep, document and ledger for no one. Tests, examples and
//!   `benchmarks/pxbench` count as references. This is the one
//!   workspace-wide rule: it runs over all files at once in [`lint_root`].
//!
//! A finding on a deliberate exception is suppressed with
//! `// lint: allow(<rule>)` on the offending line or the line above.
//!
//! The same scanner backs [`ledger`], the size report simplicity PRs quote:
//! per workspace crate and per shim crate, the non-test code lines and the
//! `pub fn` / `pub struct` / `pub enum` / `pub trait` items of its `src/`
//! tree (`lint -- --ledger`), so a PR's ledger is a diff of two CI logs.
//!
//! The scanner blanks comments and string/char literals (preserving line
//! structure), tracks brace depth to skip `#[cfg(test)]` / `#[test]`
//! regions where a rule is test-exempt, and otherwise works line by line —
//! deliberately simple enough to audit by eye. Known lexical limits: locks
//! created through `Default` derives or `.or_default()` are invisible (the
//! engine avoids both), and multi-line `let` statements are only matched on
//! their final line.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the linted root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `guard-unwrap`).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Directory names never descended into.
const SKIPPED_DIRS: &[&str] = &["target", ".git", ".github", "benchmarks", "related"];

/// Lints every `.rs` file under `root` except the `shims/` subtree (the
/// shims implement the instrumented primitives the rules funnel everyone
/// else towards). Files are visited in sorted order, so output is stable.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(root.join(&file))?;
        let rel = file.to_string_lossy().replace('\\', "/");
        findings.extend(lint_source(&rel, &source));
        sources.push((rel, source));
    }
    // The benchmark is linted by no rule, but what it calls is referenced.
    let pxbench = root.join("benchmarks/pxbench");
    if pxbench.is_dir() {
        let mut bench_files = Vec::new();
        collect_rust_files(root, &pxbench, &mut bench_files)?;
        for file in bench_files {
            let source = std::fs::read_to_string(root.join(&file))?;
            sources.push((file.to_string_lossy().replace('\\', "/"), source));
        }
    }
    findings.extend(unreferenced_pub(&sources));
    Ok(findings)
}

/// The workspace pass: every non-test `pub fn` under an engine crate's
/// `src/` whose name is an identifier in the code of no other file in
/// `sources` (`(relative path, source)` pairs).
fn unreferenced_pub(sources: &[(String, String)]) -> Vec<Finding> {
    let blanked: Vec<String> = sources.iter().map(|(_, s)| blank_noncode(s)).collect();
    let identifiers: Vec<std::collections::HashSet<&str>> = blanked
        .iter()
        .map(|code| {
            code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|word| !word.is_empty())
                .collect()
        })
        .collect();
    let mut findings = Vec::new();
    for (index, (rel_path, source)) in sources.iter().enumerate() {
        let is_engine_src = match rel_path.split('/').collect::<Vec<_>>()[..] {
            ["crates", krate, "src", ..] => !matches!(krate, "check" | "bench"),
            _ => false,
        };
        if !is_engine_src {
            continue;
        }
        let code_lines: Vec<&str> = blanked[index].lines().collect();
        let in_test = test_regions(&code_lines);
        let allows = allow_markers(&source.lines().collect::<Vec<_>>());
        for (line, code) in code_lines.iter().enumerate() {
            let Some(rest) = code.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|&c| c.is_alphanumeric() || c == '_')
                .collect();
            let referenced = identifiers
                .iter()
                .enumerate()
                .any(|(other, words)| other != index && words.contains(name.as_str()));
            if in_test[line] || referenced || allows[line].iter().any(|a| a == "unreferenced-pub") {
                continue;
            }
            findings.push(Finding {
                file: rel_path.clone(),
                line: line + 1,
                rule: "unreferenced-pub",
                message: format!(
                    "`pub fn {name}` is named in no other file of the workspace — make it \
                     private, delete it, or mark a deliberate keep with \
                     `// lint: allow(unreferenced-pub)`"
                ),
            });
        }
    }
    findings
}

fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIPPED_DIRS.contains(&name.as_ref()) || (dir == root && name == "shims") {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Lints one file's source. `rel_path` (forward slashes, relative to the
/// workspace root) decides the rule scoping: files under a `tests/`
/// directory are integration tests (test-exempt rules skip them entirely),
/// and `#[cfg(test)]` / `#[test]` regions inside any file are recognised
/// structurally.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let is_test_file = rel_path
        .split('/')
        .any(|component| component == "tests" || component == "benches");
    let is_server_crate = rel_path.starts_with("crates/server/");
    let is_durability_crate =
        rel_path.starts_with("crates/store/") || rel_path.starts_with("crates/warehouse/");
    let is_apply_path = matches!(
        rel_path,
        "crates/core/src/update.rs" | "crates/core/src/simplify.rs"
    );
    let is_store_outside_codec =
        rel_path.starts_with("crates/store/src/") && rel_path != "crates/store/src/journal.rs";
    let blanked = blank_noncode(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let code_lines: Vec<&str> = blanked.lines().collect();
    let in_test = test_regions(&code_lines);
    let allows = allow_markers(&raw_lines);
    let protected = protocol_atomics(&raw_lines, &code_lines);

    let mut findings = Vec::new();
    let mut guards: Vec<(String, i32)> = Vec::new();
    let mut rw_guards: Vec<(String, i32)> = Vec::new();
    let mut depth: i32 = 0;
    let mut pending_use: Option<(usize, String)> = None;

    for (index, code) in code_lines.iter().enumerate() {
        let line = index + 1;
        let non_test = !is_test_file && !in_test[index];
        let allowed = |rule: &str| allows[index].iter().any(|a| a == rule);

        // --- std-sync-lock (applies to tests too: nothing may bypass the
        // instrumented shim) ---------------------------------------------
        if let Some((start, mut text)) = pending_use.take() {
            text.push(' ');
            text.push_str(code);
            if code.contains(';') {
                if let Some(word) = banned_sync_word(&text) {
                    if !allowed("std-sync-lock") {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: start,
                            rule: "std-sync-lock",
                            message: format!(
                                "`std::sync::{word}` is banned outside shims/ — use the \
                                 `parking_lot` shim so the lock-witness sees it"
                            ),
                        });
                    }
                }
            } else {
                pending_use = Some((start, text));
            }
        } else if code.trim_start().starts_with("use std::sync::") && !code.contains(';') {
            pending_use = Some((line, code.to_string()));
        } else if let Some(word) = banned_sync_word(code) {
            if !allowed("std-sync-lock") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line,
                    rule: "std-sync-lock",
                    message: format!(
                        "`std::sync::{word}` is banned outside shims/ — use the \
                         `parking_lot` shim so the lock-witness sees it"
                    ),
                });
            }
        }

        // --- no-net-in-engine (applies to tests too: engine suites reach
        // the server through its crate, never raw sockets) ----------------
        if !is_server_crate
            && contains_ident_bounded(code, "std::net")
            && !allowed("no-net-in-engine")
        {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "no-net-in-engine",
                message: "`std::net` outside `crates/server/` — the engine stays \
                          embeddable; sockets belong to the wire front-end (see the \
                          README's \"Serving\" section)"
                    .to_string(),
            });
        }

        // --- lock-class --------------------------------------------------
        // (std::sync constructions are already covered by std-sync-lock.)
        if non_test && !allowed("lock-class") && !code.contains("std::sync::") {
            for pattern in [
                "Mutex::new(",
                "RwLock::new(",
                "Mutex::default()",
                "RwLock::default()",
            ] {
                if contains_ident_bounded(code, pattern) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: "lock-class",
                        message: format!(
                            "unclassified lock construction `{pattern}..` — declare its \
                             witness class with `with_class(LockClass::…, …)`"
                        ),
                    });
                }
            }
        }

        // --- relaxed-protocol-atomic -------------------------------------
        if code.contains("Ordering::Relaxed") && !allowed("relaxed-protocol-atomic") {
            for name in &protected {
                if code.contains(&format!("{name}.")) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: "relaxed-protocol-atomic",
                        message: format!(
                            "protocol atomic `{name}` used with `Ordering::Relaxed` — \
                             acknowledgement decisions need acquire/release ordering"
                        ),
                    });
                }
            }
        }

        // --- io-result-drop ----------------------------------------------
        // (Lexical: `let _ = …;` always discards; a line-final `.ok();`
        // whose value is neither bound, assigned, nor returned does too.
        // Value-position uses like `let n = s.parse().ok();` stay legal.)
        if is_durability_crate && non_test && !allowed("io-result-drop") {
            let trimmed = code.trim();
            if trimmed.starts_with("let _ =") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line,
                    rule: "io-result-drop",
                    message: "`let _ = …` discards a result on the durability path — a \
                              dropped I/O error here is how fsyncgate-class bugs hide; \
                              handle it or mark the deliberate discard with \
                              `// lint: allow(io-result-drop)`"
                        .to_string(),
                });
            } else if trimmed.ends_with(".ok();")
                && !trimmed.contains('=')
                && !trimmed.starts_with("return ")
            {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line,
                    rule: "io-result-drop",
                    message: "statement-position `.ok()` silently swallows a `Result` on \
                              the durability path — handle the error or mark the \
                              deliberate discard with `// lint: allow(io-result-drop)`"
                        .to_string(),
                });
            }
        }

        // --- hash-order-in-apply -----------------------------------------
        if is_apply_path && non_test && !allowed("hash-order-in-apply") {
            for word in ["HashMap", "HashSet"] {
                if contains_ident_bounded(code, word) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: "hash-order-in-apply",
                        message: format!(
                            "`{word}` on the update/simplify path — recovery replays it, \
                             so its output must be a function of the document; use a \
                             `BTreeMap`/`BTreeSet` or a sorted `Vec`"
                        ),
                    });
                }
            }
        }

        // --- record-framing-home -----------------------------------------
        if is_store_outside_codec
            && non_test
            && code.contains("_le_bytes(")
            && !allowed("record-framing-home")
        {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "record-framing-home",
                message: "byte-level integer coding in the store outside `journal.rs` — \
                          that module is the only home of a journal record's bytes; \
                          frame and decode there"
                    .to_string(),
            });
        }

        // --- guard-unwrap ------------------------------------------------
        if non_test && !allowed("guard-unwrap") {
            if let Some(guard_end) = last_guard_call_end(code) {
                let after = &code[guard_end..];
                if after.contains(".unwrap()") || after.contains(".expect(") {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: "guard-unwrap",
                        message: "`.unwrap()`/`.expect(` chained behind a lock guard \
                                  acquisition — a panic here poisons the lock's whole \
                                  subsystem; surface an error instead"
                            .to_string(),
                    });
                }
            } else if !guards.is_empty()
                && (code.contains(".unwrap()") || code.contains(".expect("))
            {
                let held: Vec<&str> = guards.iter().map(|(name, _)| name.as_str()).collect();
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line,
                    rule: "guard-unwrap",
                    message: format!(
                        "`.unwrap()`/`.expect(` while lock guard{} `{}` {} live — a \
                         panic here poisons the lock's whole subsystem; surface an \
                         error instead",
                        if held.len() == 1 { "" } else { "s" },
                        held.join("`, `"),
                        if held.len() == 1 { "is" } else { "are" },
                    ),
                });
            }
        }

        // --- doc-clone-under-guard ---------------------------------------
        if non_test && !allowed("doc-clone-under-guard") {
            if let Some(at) = doc_clone_position(code) {
                let chained = last_rw_guard_call_end(code).is_some_and(|end| at >= end);
                if chained || !rw_guards.is_empty() {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: "doc-clone-under-guard",
                        message: "full-document clone while a doc-entry read/write guard \
                                  is live — the entry lock is for the O(1) snapshot pin or \
                                  swap only; pin the `Arc` snapshot and clone outside the \
                                  lock"
                            .to_string(),
                    });
                }
            }
        }

        // Guard bookkeeping runs for every line (a guard taken in non-test
        // code can span into regions, and depth must stay consistent).
        if let Some(name) = guard_binding(code) {
            let initialiser = code.trim_end();
            let initialiser = initialiser.strip_suffix(';').unwrap_or(initialiser);
            if initialiser.ends_with(".read()") || initialiser.ends_with(".write()") {
                rw_guards.push((name.clone(), depth));
            }
            guards.push((name, depth));
        }
        for (open, close) in [('{', 1i32), ('}', -1i32)] {
            depth += close * code.chars().filter(|&c| c == open).count() as i32;
        }
        guards.retain(|(name, creation_depth)| {
            depth >= *creation_depth && !code.contains(&format!("drop({name})"))
        });
        rw_guards.retain(|(name, creation_depth)| {
            depth >= *creation_depth && !code.contains(&format!("drop({name})"))
        });
    }
    findings
}

/// The size ledger: one `(crate directory, non-test code lines, public
/// items)` row per workspace crate and per `shims/` crate with a `src/` tree
/// under `root` — `src` itself is the root package — in sorted order. A code
/// line is a line that is not blank once comments are blanked and lies
/// outside every `#[cfg(test)]` / `#[test]` region; a public item is a
/// `pub fn`, `pub struct`, `pub enum` or `pub trait` on such a line.
/// `tests/` and `examples/` are not counted.
pub fn ledger(root: &Path) -> std::io::Result<Vec<(String, usize, usize)>> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    // The lint rules skip the shims; the ledger counts them like any crate.
    let shims = root.join("shims");
    if shims.is_dir() {
        collect_rust_files(root, &shims, &mut files)?;
    }
    let mut rows: std::collections::BTreeMap<String, (usize, usize)> = Default::default();
    for file in files {
        let rel = file.to_string_lossy().replace('\\', "/");
        let krate = match rel.split('/').collect::<Vec<_>>()[..] {
            ["src", ..] => "src".to_string(),
            [home @ ("crates" | "shims"), name, "src", ..] => format!("{home}/{name}"),
            _ => continue,
        };
        let (lines, items) = ledger_source(&std::fs::read_to_string(root.join(&file))?);
        let row = rows.entry(krate).or_default();
        row.0 += lines;
        row.1 += items;
    }
    Ok(rows
        .into_iter()
        .map(|(krate, (lines, items))| (krate, lines, items))
        .collect())
}

/// One file's `(non-test code lines, public items)` for [`ledger`].
fn ledger_source(source: &str) -> (usize, usize) {
    let blanked = blank_noncode(source);
    let code_lines: Vec<&str> = blanked.lines().collect();
    let in_test = test_regions(&code_lines);
    let mut counts = (0, 0);
    for (code, _) in code_lines.iter().zip(in_test).filter(|(_, test)| !test) {
        let code = code.trim();
        if code.is_empty() {
            continue;
        }
        counts.0 += 1;
        let item = ["pub fn ", "pub struct ", "pub enum ", "pub trait "];
        if item.iter().any(|keyword| code.starts_with(keyword)) {
            counts.1 += 1;
        }
    }
    counts
}

/// The banned `std::sync` word a line (or accumulated use statement)
/// mentions, if any.
fn banned_sync_word(text: &str) -> Option<&'static str> {
    const BANNED: &[&str] = &[
        "Mutex",
        "MutexGuard",
        "RwLock",
        "RwLockReadGuard",
        "RwLockWriteGuard",
        "Condvar",
    ];
    let direct = text.contains("std::sync::");
    let in_use_group = text.trim_start().starts_with("use std::sync::");
    if !direct && !in_use_group {
        return None;
    }
    // For a path mention the word must directly follow `std::sync::`; for a
    // use group, any bounded occurrence after the prefix counts.
    for word in BANNED {
        let qualified = format!("std::sync::{word}");
        if contains_ident_bounded(text, &qualified) {
            return Some(word);
        }
        if in_use_group && contains_ident_bounded(text, word) {
            return Some(word);
        }
    }
    None
}

/// Does `text` contain `pattern` with no identifier character immediately
/// before it (so `StdMutex::new(` does not match `Mutex::new(`, and `Mutex`
/// does not match inside `MutexGuard` when the pattern itself ends at an
/// identifier boundary)?
fn contains_ident_bounded(text: &str, pattern: &str) -> bool {
    find_ident_bounded(text, pattern).is_some()
}

/// Byte offset of the first identifier-bounded occurrence of `pattern`.
fn find_ident_bounded(text: &str, pattern: &str) -> Option<usize> {
    let mut search_from = 0;
    while let Some(found) = text[search_from..].find(pattern) {
        let at = search_from + found;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + pattern.len();
        let after_ok = !pattern
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
            || !text[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        search_from = at + 1;
    }
    None
}

/// Byte offset of the first full-document clone on the line, if any — the
/// expressions that deep-copy a fuzzy tree rather than bumping a snapshot
/// `Arc`.
fn doc_clone_position(code: &str) -> Option<usize> {
    ["fuzzy.clone()", "fuzzy().clone()"]
        .iter()
        .filter_map(|pattern| find_ident_bounded(code, pattern))
        .min()
}

/// Byte offset just past the last `.read()` / `.write()` call on the line —
/// the doc-entry guard acquisitions `doc-clone-under-guard` cares about
/// (`.lock()` is excluded: the commit mutex is *meant* to be held while the
/// writer takes its working copy).
fn last_rw_guard_call_end(code: &str) -> Option<usize> {
    [".read()", ".write()"]
        .iter()
        .filter_map(|call| code.rfind(call).map(|at| at + call.len()))
        .max()
}

/// Byte offset just past the last `.lock()` / `.read()` / `.write()` call
/// on the line, if any — the point after which a chained unwrap rides on a
/// live guard.
fn last_guard_call_end(code: &str) -> Option<usize> {
    ["(.lock()", ".lock()", ".read()", ".write()"]
        .iter()
        .filter_map(|call| code.rfind(call).map(|at| at + call.len()))
        .max()
}

/// The name bound by a `let` statement whose initialiser ends in a guard
/// acquisition, e.g. `let mut slots = self.shard(name).slots.write();`.
fn guard_binding(code: &str) -> Option<String> {
    let trimmed = code.trim();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (name, after) = rest.split_once('=')?;
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let after = after.trim_end();
    let after = after.strip_suffix(';').unwrap_or(after).trim_end();
    for call in [".lock()", ".read()", ".write()"] {
        if after.ends_with(call) {
            return Some(name.to_string());
        }
    }
    None
}

/// Rules allowed per line: `// lint: allow(rule)` suppresses on its own
/// line and the next one.
fn allow_markers(raw_lines: &[&str]) -> Vec<Vec<String>> {
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); raw_lines.len()];
    for (index, raw) in raw_lines.iter().enumerate() {
        let mut rest = *raw;
        while let Some(at) = rest.find("// lint: allow(") {
            let after = &rest[at + "// lint: allow(".len()..];
            if let Some(end) = after.find(')') {
                let rule = after[..end].trim().to_string();
                allows[index].push(rule.clone());
                if index + 1 < allows.len() {
                    allows[index + 1].push(rule);
                }
                rest = &after[end..];
            } else {
                break;
            }
        }
    }
    allows
}

/// Field names declared with a `// lint: protocol-atomic` marker.
fn protocol_atomics(raw_lines: &[&str], code_lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for (index, raw) in raw_lines.iter().enumerate() {
        if !raw.contains("// lint: protocol-atomic") {
            continue;
        }
        let code = code_lines.get(index).copied().unwrap_or("");
        let declaration = code.trim().trim_start_matches("pub ").trim_start();
        if let Some((name, _)) = declaration.split_once(':') {
            let name = name.trim().trim_start_matches("pub(crate) ").trim();
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// `in_test[i]`: line `i` (0-based) lies inside a `#[cfg(test)]` module or
/// `#[test]` function, tracked by brace depth from the attribute line.
fn test_regions(code_lines: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; code_lines.len()];
    let mut depth: i32 = 0;
    // (depth at the attribute, whether its block has opened yet)
    let mut region: Option<(i32, bool)> = None;
    for (index, code) in code_lines.iter().enumerate() {
        if region.is_some() {
            in_test[index] = true;
        } else if code.contains("#[cfg(test)]") || code.contains("#[test]") {
            region = Some((depth, false));
            in_test[index] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some((attr_depth, opened)) = region.as_mut() {
                        if depth > *attr_depth {
                            *opened = true;
                        }
                    }
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some((attr_depth, opened)) = region {
            if opened && depth <= attr_depth {
                region = None;
            }
        }
    }
    in_test
}

/// Replaces comments and string/char literal contents with spaces,
/// preserving newlines (and thus line numbers). Raw strings, escapes and
/// lifetimes are handled; the goal is that rule patterns never match inside
/// text.
fn blank_noncode(source: &str) -> String {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out = String::with_capacity(source.len());
    let bytes: Vec<char> = source.chars().collect();
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                }
                '"' => {
                    mode = Mode::Str;
                    out.push('"');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&bytes, i) => {
                    let (hashes, consumed) = raw_string_open(&bytes, i);
                    mode = Mode::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    i += consumed;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal is 'x' or '\…'.
                    if next == Some('\\') || matches!(bytes.get(i + 2), Some('\'')) {
                        mode = Mode::Char;
                        out.push('\'');
                        i += 1;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                if c == '\n' {
                    mode = Mode::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '"' => {
                    mode = Mode::Code;
                    out.push('"');
                    i += 1;
                }
                '\n' => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
            Mode::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&bytes, i, hashes) {
                    mode = Mode::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Char => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '\'' => {
                    mode = Mode::Code;
                    out.push('\'');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
        }
    }
    out
}

/// Is `r"`, `r#"`, `br"` or `br#"` starting at `i`?
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Hash count and consumed prefix length of a raw string opener at `i`.
fn raw_string_open(bytes: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    (hashes, j - i)
}

/// Does the `"` at `i` close a raw string with `hashes` hashes?
fn raw_string_closes(bytes: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn std_sync_lock_is_flagged() {
        let source = "use std::sync::Mutex;\nfn f() { let m = std::sync::RwLock::new(0); }\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["std-sync-lock", "std-sync-lock"]);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
    }

    #[test]
    fn std_sync_use_group_is_flagged_even_multiline() {
        let source = "use std::sync::{\n    atomic::AtomicUsize,\n    Mutex,\n};\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["std-sync-lock"]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn std_sync_arc_and_atomics_are_fine() {
        let source =
            "use std::sync::Arc;\nuse std::sync::atomic::{AtomicUsize, Ordering};\nuse std::sync::mpsc;\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn chained_guard_unwrap_is_flagged() {
        let source =
            "fn f(m: &parking_lot::Mutex<Option<u32>>) -> u32 {\n    m.lock().unwrap()\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["guard-unwrap"]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn unwrap_under_live_let_guard_is_flagged() {
        let source =
            "fn f() {\n    let mut meta = self.meta.lock();\n    let v = thing().unwrap();\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["guard-unwrap"]);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn unwrap_after_guard_scope_or_drop_is_fine() {
        let source = "fn f() {\n    {\n        let g = m.lock();\n        use_it(&g);\n    }\n    thing().unwrap();\n}\nfn g() {\n    let g = m.lock();\n    drop(g);\n    thing().unwrap();\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine_under_guards() {
        let source =
            "fn f() {\n    let g = m.lock();\n    let v = g.value.unwrap_or_else(|| 3);\n    let w = g.other.unwrap_or(7);\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn guard_unwrap_skips_tests_and_test_files() {
        let in_test_mod =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let g = m.lock();\n        thing().unwrap();\n    }\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", in_test_mod).is_empty());
        let test_file = "fn helper() {\n    let g = m.lock();\n    thing().unwrap();\n}\n";
        assert!(lint_source("crates/x/tests/it.rs", test_file).is_empty());
    }

    #[test]
    fn unclassified_lock_construction_is_flagged() {
        let source = "fn f() {\n    let m = Mutex::new(0);\n    let l = RwLock::default();\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["lock-class", "lock-class"]);
    }

    #[test]
    fn with_class_construction_is_fine() {
        let source = "fn f() {\n    let m = Mutex::with_class(LockClass::Journal, 0);\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn relaxed_protocol_atomic_is_flagged() {
        let source = "struct S {\n    state: AtomicU8, // lint: protocol-atomic\n}\nfn f(s: &S) {\n    s.state.load(Ordering::Relaxed);\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["relaxed-protocol-atomic"]);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn acquire_release_protocol_atomic_is_fine() {
        let source = "struct S {\n    state: AtomicU8, // lint: protocol-atomic\n    counter: AtomicUsize,\n}\nfn f(s: &S) {\n    s.state.load(Ordering::Acquire);\n    s.counter.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_line_and_next() {
        let source =
            "fn f() {\n    // lint: allow(lock-class)\n    let m = Mutex::new(0);\n    let l = Mutex::new(1); // lint: allow(lock-class)\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn patterns_inside_strings_and_comments_do_not_match() {
        let source = "fn f() {\n    let s = \"std::sync::Mutex::new(.lock().unwrap())\";\n    // std::sync::Mutex in prose, Mutex::new( too\n    let r = r#\"RwLock::default() .lock().expect(\"#;\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn doc_clone_under_live_rw_guard_is_flagged() {
        let source = "fn f() {\n    let state = slot.state.read();\n    let copy = state.snapshot.fuzzy().clone();\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["doc-clone-under-guard"]);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn doc_clone_chained_behind_guard_acquisition_is_flagged() {
        let source = "fn f() {\n    let copy = slot.state.read().snapshot.fuzzy().clone();\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", source);
        assert_eq!(rules(&findings), vec!["doc-clone-under-guard"]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn doc_clone_outside_guard_or_under_commit_mutex_is_fine() {
        // Clone from a pinned snapshot: no lock is held.
        let pinned = "fn f() {\n    let snapshot = self.snapshot(name)?;\n    let copy = snapshot.fuzzy().clone();\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", pinned).is_empty());
        // The writer's working copy under the commit *mutex* is the intended
        // pipeline; only read/write entry guards are restricted.
        let commit = "fn f() {\n    let _commit = slot.commit.lock();\n    let working = base.fuzzy().clone();\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", commit).is_empty());
        // And other `.clone()`s under a guard stay legal.
        let other = "fn f() {\n    let state = slot.state.read();\n    let snapshot = state.snapshot.clone();\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", other).is_empty());
    }

    #[test]
    fn doc_clone_allow_marker_and_tests_are_exempt() {
        let allowed = "fn f() {\n    let state = slot.state.read();\n    // lint: allow(doc-clone-under-guard)\n    let copy = state.snapshot.fuzzy().clone();\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", allowed).is_empty());
        let test_file = "fn helper() {\n    let state = slot.state.read();\n    let copy = state.snapshot.fuzzy().clone();\n}\n";
        assert!(lint_source("crates/x/tests/it.rs", test_file).is_empty());
    }

    #[test]
    fn std_net_outside_the_server_crate_is_flagged() {
        let source =
            "use std::net::TcpStream;\nfn f() { let l = std::net::TcpListener::bind(\"x\"); }\n";
        let findings = lint_source("crates/store/src/fs.rs", source);
        assert_eq!(
            rules(&findings),
            vec!["no-net-in-engine", "no-net-in-engine"]
        );
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
        // Even in an engine crate's test files: suites drive the server
        // through `pxml-server`, never raw sockets.
        let test_file = "use std::net::TcpStream;\n";
        assert_eq!(
            rules(&lint_source("crates/warehouse/tests/it.rs", test_file)),
            vec!["no-net-in-engine"]
        );
    }

    #[test]
    fn std_net_inside_the_server_crate_or_allowed_is_fine() {
        let source = "use std::net::{TcpListener, TcpStream};\n";
        assert!(lint_source("crates/server/src/server.rs", source).is_empty());
        assert!(lint_source("crates/server/tests/malformed.rs", source).is_empty());
        let allowed = "// lint: allow(no-net-in-engine)\nuse std::net::TcpStream;\n";
        assert!(lint_source("crates/gen/src/lib.rs", allowed).is_empty());
        // Prose and strings never match.
        let prose = "fn f() {\n    // std::net belongs in crates/server\n    let s = \"std::net::TcpStream\";\n}\n";
        assert!(lint_source("crates/core/src/lib.rs", prose).is_empty());
    }

    #[test]
    fn io_result_drop_is_flagged_in_store_and_warehouse() {
        let source =
            "fn f(file: &File) {\n    let _ = file.sync_all();\n    file.sync_all().ok();\n}\n";
        for path in [
            "crates/store/src/fs.rs",
            "crates/warehouse/src/warehouse.rs",
        ] {
            let findings = lint_source(path, source);
            assert_eq!(rules(&findings), vec!["io-result-drop", "io-result-drop"]);
            assert_eq!(findings[0].line, 2);
            assert_eq!(findings[1].line, 3);
        }
    }

    #[test]
    fn io_result_drop_is_scoped_to_durability_crates_and_non_test_code() {
        let source =
            "fn f(file: &File) {\n    let _ = file.sync_all();\n    file.sync_all().ok();\n}\n";
        // Other crates are out of scope (their Results aren't durability).
        assert!(lint_source("crates/query/src/lib.rs", source).is_empty());
        // Test files and #[cfg(test)] regions are exempt.
        assert!(lint_source("crates/store/tests/it.rs", source).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{source}}}\n");
        assert!(lint_source("crates/store/src/fs.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn io_result_drop_does_not_flag_value_position_or_named_bindings() {
        let source = "fn f() {\n    let _guard = slot.commit.lock();\n    let n = text.parse::<u32>().ok();\n    self.cache = reload().ok();\n    return fallible().ok();\n}\n";
        assert!(lint_source("crates/store/src/fs.rs", source).is_empty());
    }

    #[test]
    fn io_result_drop_allow_marker_suppresses() {
        let source = "fn f(file: &File) {\n    // lint: allow(io-result-drop)\n    let _ = file.sync_all();\n    file.sync_all().ok(); // lint: allow(io-result-drop)\n}\n";
        assert!(lint_source("crates/store/src/fs.rs", source).is_empty());
    }

    #[test]
    fn hash_collections_on_the_apply_path_are_flagged() {
        let source = "use std::collections::HashMap;\nfn f() {\n    let seen: HashSet<u32> = HashSet::new();\n}\n";
        for file in ["crates/core/src/update.rs", "crates/core/src/simplify.rs"] {
            assert_eq!(
                rules(&lint_source(file, source)),
                vec!["hash-order-in-apply", "hash-order-in-apply"],
                "{file}"
            );
        }
    }

    #[test]
    fn hash_collections_elsewhere_in_tests_or_ordered_are_fine() {
        let hashed = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/fuzzy.rs", hashed).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(lint_source("crates/core/src/update.rs", in_tests).is_empty());
        let ordered = "use std::collections::BTreeMap;\nfn f() {\n    // not a HashMap\n    let m: BTreeMap<u32, MyHashMapLike> = BTreeMap::new();\n}\n";
        assert!(lint_source("crates/core/src/simplify.rs", ordered).is_empty());
    }

    #[test]
    fn record_framing_outside_the_codec_is_flagged() {
        let source = "fn f(len: u32, b: [u8; 4]) {\n    let h = len.to_le_bytes();\n    let n = u32::from_le_bytes(b);\n}\n";
        for file in ["crates/store/src/fs.rs", "crates/store/src/segment.rs"] {
            let findings = lint_source(file, source);
            assert_eq!(
                rules(&findings),
                vec!["record-framing-home", "record-framing-home"],
                "{file}"
            );
            assert_eq!(findings[0].line, 2);
        }
    }

    #[test]
    fn record_framing_in_the_codec_elsewhere_in_tests_or_allowed_is_fine() {
        let source = "fn f(len: u32) {\n    let h = len.to_le_bytes();\n}\n";
        // The codec's home, other crates (the wire protocol frames its own
        // bytes), and the store's integration tests, which forge records.
        for file in [
            "crates/store/src/journal.rs",
            "crates/server/src/frame.rs",
            "crates/store/tests/segment_crash.rs",
        ] {
            assert!(lint_source(file, source).is_empty(), "{file}");
        }
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{source}}}\n");
        assert!(lint_source("crates/store/src/fs.rs", &in_tests).is_empty());
        let allowed = "fn f(len: u32) {\n    // lint: allow(record-framing-home)\n    let h = len.to_le_bytes();\n}\n";
        assert!(lint_source("crates/store/src/fs.rs", allowed).is_empty());
        // Prose and strings never match.
        let prose = "fn f() {\n    // to_le_bytes( lives in journal.rs\n    let s = \"from_le_bytes(\";\n}\n";
        assert!(lint_source("crates/store/src/fs.rs", prose).is_empty());
    }

    #[test]
    fn shadowed_std_mutex_prefix_is_not_a_lock_class_finding() {
        // `StdMutex::new(` must not match the `Mutex::new(` pattern.
        let source = "fn f() {\n    let m = StdMutex::new(0);\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", source).is_empty());
    }

    #[test]
    fn unreferenced_pub_fn_is_flagged_and_referenced_one_is_not() {
        let file = |path: &str, source: &str| (path.to_string(), source.to_string());
        let engine = "pub fn lonely() {}\npub fn called() {}\n\
                      // lint: allow(unreferenced-pub)\npub fn kept() {}\n\
                      #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let sources = [
            file("crates/x/src/lib.rs", engine),
            file("tests/it.rs", "fn t() { x::called(); }\n"),
            // Tooling crates are out of scope; prose is no reference.
            file("crates/check/src/lib.rs", "pub fn tool() {}\n// lonely\n"),
        ];
        let findings = unreferenced_pub(&sources);
        assert_eq!(rules(&findings), vec!["unreferenced-pub"]);
        assert_eq!(
            (findings[0].file.as_str(), findings[0].line),
            ("crates/x/src/lib.rs", 1)
        );
        assert!(findings[0].message.contains("`pub fn lonely`"));
    }

    #[test]
    fn ledger_counts_non_test_code_lines_and_public_items() {
        // Three code lines, one of them a public item; comments, blank
        // lines, `pub(crate)` and everything under `#[cfg(test)]` count for
        // nothing.
        let source =
            "/// `pub fn in_prose()` is prose.\npub fn counted() -> u32 {\n\n    1 // one\n}\n\
                      #[cfg(test)]\nmod tests {\n    pub fn hidden() {}\n}\n";
        assert_eq!(ledger_source(source), (3, 1));
        assert_eq!(ledger_source("pub(crate) fn internal() {}\n"), (1, 0));
    }

    #[test]
    fn ledger_has_a_row_per_shim_crate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = ledger(&root).expect("workspace sources readable");
        for shim in ["shims/parking_lot", "shims/proptest", "shims/rand"] {
            let row = rows.iter().find(|(krate, _, _)| krate == shim);
            assert!(row.is_some_and(|&(_, lines, _)| lines > 0), "no {shim} row");
        }
        assert!(rows.iter().any(|(krate, _, _)| krate == "crates/check"));
    }
}
