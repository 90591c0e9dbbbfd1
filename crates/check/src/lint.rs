//! Workspace invariant lints: project rules clippy cannot express.
//!
//! These are text/AST-lite lints over the workspace's Rust sources. Each
//! file is first run through a small lexer ([`code_lines`]) that blanks
//! out comments and string/char literal *contents* while preserving line
//! structure, so pattern matching and `#[cfg(test)]`-block brace counting
//! operate on code only (a `"{"` inside a format string cannot desync the
//! scanner, and a pattern mentioned in a doc comment cannot fire a lint).
//!
//! Lints (see also DESIGN.md § Static verification):
//!
//! - `ledger-charge-site` — movement-ledger charging (`.charge(`) happens
//!   only in the graph-driver edge code; anywhere else would double-count
//!   or hide data movement.
//! - `raw-sync-channel` — `sync_channel` appears only in the graph
//!   driver: every credit-bounded channel must be a pipeline edge the
//!   deadlock analysis can see.
//! - `wall-clock-in-sim` — no `Instant::now`/`SystemTime` in `df-sim`
//!   (the sim lane is deterministic virtual time; wall clocks there break
//!   golden traces).
//! - `unsafe-safety-comment` — every `unsafe` keyword is preceded by a
//!   `// SAFETY:` comment within the three lines above it (or carries one
//!   on the same line).
//! - `no-unwrap-in-lib` — no `.unwrap()` / `.expect(` in non-test code of
//!   `crates/{core,fabric,net,serve,storage}`; library code returns typed
//!   errors.
//! - `determinism-hash-iteration` — `std::collections::HashMap`/`HashSet`
//!   iterate in randomized order, which breaks the repo's "same seed ⇒
//!   byte-identical decisions/traces" invariant the moment iteration
//!   feeds output, traces, or scheduling. Every use in non-test crate
//!   code is taint: it must be a pure lookup table, drain through an
//!   explicit sort, switch to `BTreeMap`, or use the in-tree
//!   seed-stable `FxHash` types (which the word-boundary match exempts)
//!   — and carry an allowlist entry saying which. New uses without a
//!   justification fail CI.
//! - `no-thread-id-in-decisions` — `ThreadId`/`thread::current` must not
//!   appear in decision-making code (`crates/{core,serve,sim}`): thread
//!   identity varies run to run, so branching on it is nondeterminism by
//!   construction.
//!
//! Every lint consults an allowlist file under `crates/check/allowlists/`
//! (one entry per line: `path-suffix` to allow a whole file, or
//! `path-suffix :: substring` to allow only lines containing the
//! substring). A finding is suppressed by the first entry that allows it;
//! an entry that suppresses nothing is itself a finding
//! (`stale-allowlist-entry`), reported at its allowlist file and line, so
//! allowlists can only shrink. `crates/check` itself is excluded from the
//! scan: lint pattern strings necessarily appear in its own source.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (stable, kebab-case).
    pub lint: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.lint, self.file, self.line, self.snippet
        )
    }
}

/// Static description of one lint pass.
struct Lint {
    name: &'static str,
    /// Path prefixes (relative, `/`-separated) the lint applies to.
    scopes: &'static [&'static str],
    /// Substrings that fire the lint when found in code text.
    patterns: &'static [&'static str],
    /// Skip matches inside `#[cfg(test)]` blocks.
    skip_test_blocks: bool,
    /// Require word boundaries around pattern matches (so `HashMap` does
    /// not fire inside `FxHashMap`).
    word: bool,
}

const LINTS: &[Lint] = &[
    Lint {
        name: "ledger-charge-site",
        scopes: &["crates/"],
        patterns: &[".charge("],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "raw-sync-channel",
        scopes: &["crates/"],
        patterns: &["sync_channel"],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "edge-codec-site",
        scopes: &["crates/core/src/", "crates/serve/src/"],
        patterns: &[
            "edge::encode(",
            "edge::decode(",
            "edge_codec::encode(",
            "edge_codec::decode(",
        ],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "wall-clock-in-sim",
        scopes: &["crates/sim/"],
        patterns: &["Instant::now", "SystemTime"],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "no-unwrap-in-lib",
        scopes: &[
            "crates/core/src/",
            "crates/fabric/src/",
            "crates/net/src/",
            "crates/serve/src/",
            "crates/storage/src/",
        ],
        patterns: &[".unwrap()", ".expect("],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        // Word-boundary match: the in-tree seed-stable `FxHashMap` /
        // `FxHashSet` / `FxBuildHasher` are the sanctioned alternative
        // and must not fire.
        name: "determinism-hash-iteration",
        scopes: &["crates/"],
        patterns: &["HashMap", "HashSet"],
        skip_test_blocks: true,
        word: true,
    },
    Lint {
        name: "no-thread-id-in-decisions",
        scopes: &["crates/core/src/", "crates/serve/src/", "crates/sim/src/"],
        patterns: &["ThreadId", "thread::current"],
        skip_test_blocks: true,
        word: true,
    },
];

/// The unsafe lint is structural (needs the raw comment text), so it is
/// not in the [`LINTS`] table.
const UNSAFE_LINT: &str = "unsafe-safety-comment";

/// How many lines above an `unsafe` a `// SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 3;

/// The finding reported for an allowlist entry that suppresses nothing.
const STALE_ENTRY: &str = "stale-allowlist-entry";

/// Where the allowlists live, relative to the workspace root.
const ALLOWLIST_DIR: &str = "crates/check/allowlists";

/// Names of all lints, for allowlist discovery and reports.
pub fn lint_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = LINTS.iter().map(|l| l.name).collect();
    names.push(UNSAFE_LINT);
    names
}

// --------------------------------------------------------------- lexer

/// Blank comments and literal contents out of a source file, preserving
/// line structure. Returns one "code-only" string per line: comments
/// become spaces; string/char literals keep their quotes but their
/// contents become spaces. Handles `//`, `/* */` (nested), `"…"`,
/// `'c'` char literals (without eating lifetimes), and raw strings
/// `r"…"` / `r#"…"#` with any number of hashes.
pub fn code_lines(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        Block(usize),  // nested block-comment depth
        Str,           // inside "…"
        RawStr(usize), // inside r##"…"## with N hashes
    }
    let mut mode = Mode::Code;
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut line = String::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            out.push(std::mem::take(&mut line));
            // Line comments end at the newline; everything else persists.
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&b'/') {
                    // Line comment: blank to end of line.
                    while i < bytes.len() && bytes[i] != b'\n' {
                        line.push(' ');
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    mode = Mode::Block(1);
                    line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    mode = Mode::Str;
                    line.push('"');
                    i += 1;
                    continue;
                }
                if c == 'r' {
                    // Possible raw string: r" or r#…#".
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        mode = Mode::RawStr(hashes);
                        for _ in i..=j {
                            line.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal vs lifetime: a lifetime is '<ident> not
                    // followed by a closing quote. Check for the forms
                    // 'x' and escaped '\…'.
                    if bytes.get(i + 1) == Some(&b'\\') {
                        // Escaped char literal: skip to closing quote.
                        line.push('\'');
                        i += 1;
                        while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
                            line.push(' ');
                            i += 1;
                        }
                        continue;
                    }
                    if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                        // 'x' char literal.
                        line.push_str("' '");
                        i += 3;
                        continue;
                    }
                    // Lifetime or stray quote: keep as code.
                    line.push('\'');
                    i += 1;
                    continue;
                }
                line.push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    line.push_str("  ");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    mode = Mode::Block(depth + 1);
                    line.push_str("  ");
                    i += 2;
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // Escape: consume the backslash and the escaped
                    // char — but never a newline. A line-continuation
                    // (`"…\` at end of line) must leave the `\n` for the
                    // main loop, or every later line number desyncs.
                    if matches!(bytes.get(i + 1), None | Some(&b'\n')) {
                        line.push(' ');
                        i += 1;
                    } else {
                        line.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    mode = Mode::Code;
                    line.push('"');
                    i += 1;
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let all = (0..hashes).all(|k| bytes.get(i + 1 + k) == Some(&b'#'));
                    if all {
                        mode = Mode::Code;
                        for _ in 0..=hashes {
                            line.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                line.push(' ');
                i += 1;
            }
        }
    }
    if !line.is_empty() {
        out.push(line);
    }
    out
}

/// Mark lines inside `#[cfg(test)] mod … { … }` blocks (and the attribute
/// line itself). Brace counting runs over code-only text, so braces in
/// strings or comments cannot desync it.
fn test_block_lines(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            in_test[i] = true;
            // Scan forward to the block's opening brace, then to its
            // matching close.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                in_test[j] = true;
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                // An item without braces (e.g. `#[cfg(test)] use …;`)
                // ends at the first `;` before any brace opens.
                if !opened && code[j].contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

// ----------------------------------------------------------- allowlists

/// One allowlist entry: a path suffix, optionally restricted to lines
/// containing a substring.
struct AllowEntry {
    /// The entry as written, trimmed.
    text: String,
    /// 1-indexed line in the allowlist file (0 for new entries).
    line: usize,
    path_suffix: String,
    substring: Option<String>,
    /// Whether the entry suppressed a finding in this run.
    used: bool,
}

/// Allowlist for one lint, loaded from
/// `crates/check/allowlists/<lint>.txt`.
struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse an allowlist file's text.
    fn parse(text: &str) -> Allowlist {
        let mut list = Allowlist {
            entries: Vec::new(),
        };
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                list.push(line, i + 1);
            }
        }
        list
    }

    fn push(&mut self, text: &str, line: usize) {
        let (path_suffix, substring) = match text.split_once(" :: ") {
            Some((p, s)) => (p.trim().to_string(), Some(s.trim().to_string())),
            None => (text.to_string(), None),
        };
        self.entries.push(AllowEntry {
            text: text.to_string(),
            line,
            path_suffix,
            substring,
            used: false,
        });
    }

    /// Whether a finding at `file`/`line_text` is allowed; the first
    /// entry allowing it is marked used.
    fn allows(&mut self, file: &str, line_text: &str) -> bool {
        let hit = self.entries.iter_mut().find(|e| {
            file.ends_with(&e.path_suffix)
                && e.substring
                    .as_ref()
                    .is_none_or(|s| line_text.contains(s.as_str()))
        });
        hit.map(|e| e.used = true).is_some()
    }
}

/// The text of `lint`'s allowlist under `root` (empty when missing).
fn read_allowlist(root: &Path, lint: &str) -> io::Result<String> {
    match fs::read_to_string(root.join(ALLOWLIST_DIR).join(format!("{lint}.txt"))) {
        Ok(t) => Ok(t),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------- walk

/// All Rust sources in lint scope: `crates/*/src` (except `crates/check`),
/// the facade `src/`, plus `tests/`, `examples/`, `benches/` and bench
/// sources for the lints whose scope includes them.
fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.retain(|p| {
        let rel = p.strip_prefix(root).unwrap_or(p);
        let rel = rel.to_string_lossy().replace('\\', "/");
        // Self-scan exemption: the lint patterns live in df-check's own
        // strings and docs.
        !rel.starts_with("crates/check/")
    });
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- runner

/// Run every lint over the workspace at `root`, returning unsuppressed
/// findings plus one `stale-allowlist-entry` finding per allowlist entry
/// that suppressed nothing (sorted by file/line). Allowlists are loaded from
/// `<root>/crates/check/allowlists/`.
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = run_unsuppressed(root)?;
    for name in lint_names() {
        let mut list = Allowlist::parse(&read_allowlist(root, name)?);
        findings.retain(|f| f.lint != name || !list.allows(&f.file, &f.snippet));
        let stale = list.entries.into_iter().filter(|e| !e.used);
        findings.extend(stale.map(|e| Finding {
            lint: STALE_ENTRY,
            file: format!("{ALLOWLIST_DIR}/{name}.txt"),
            line: e.line,
            snippet: e.text,
        }));
    }
    sort(&mut findings);
    Ok(findings)
}

/// Run every lint with allowlists ignored: the complete current debt.
/// This is what `--bless` writes back, so blessing never drops entries
/// that were already suppressing a finding.
pub fn run_unsuppressed(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in &workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        let raw: Vec<&str> = source.lines().collect();
        let code = code_lines(&source);
        let in_test = test_block_lines(&code);

        for lint in LINTS {
            if !lint.scopes.iter().any(|s| rel.starts_with(s)) {
                continue;
            }
            // Test/bench/example trees are exercise code, not library
            // surface: scope lint paths all start with "crates/".
            for (ln, code_line) in code.iter().enumerate() {
                if lint.skip_test_blocks && in_test.get(ln).copied().unwrap_or(false) {
                    continue;
                }
                let hit = lint.patterns.iter().any(|p| {
                    if lint.word {
                        has_word(code_line, p)
                    } else {
                        code_line.contains(p)
                    }
                });
                if hit {
                    findings.push(Finding {
                        lint: lint.name,
                        file: rel.clone(),
                        line: ln + 1,
                        snippet: raw.get(ln).copied().unwrap_or("").trim().to_string(),
                    });
                }
            }
        }

        // unsafe-safety-comment: structural, applies everywhere.
        for (ln, code_line) in code.iter().enumerate() {
            if !has_word(code_line, "unsafe") {
                continue;
            }
            let raw_line = raw.get(ln).copied().unwrap_or("");
            let mut satisfied = raw_line.contains("SAFETY:");
            for back in 1..=SAFETY_WINDOW {
                if satisfied {
                    break;
                }
                if ln >= back {
                    satisfied = raw.get(ln - back).is_some_and(|l| l.contains("SAFETY:"));
                }
            }
            if !satisfied {
                findings.push(Finding {
                    lint: UNSAFE_LINT,
                    file: rel.clone(),
                    line: ln + 1,
                    snippet: raw_line.trim().to_string(),
                });
            }
        }
    }
    sort(&mut findings);
    Ok(findings)
}

fn sort(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
}

/// Word-boundary containment: `unsafe` matches, `unsafe_code` does not.
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0usize;
    while let Some(at) = line[start..].find(word) {
        let begin = start + at;
        let end = begin + word.len();
        let before_ok = begin == 0 || !is_word_byte(bytes[begin - 1]);
        let after_ok = end >= bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = begin + 1;
    }
    false
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rewrite every allowlist to the current debt: entries that suppress
/// nothing go, and each finding no entry covers gets one new entry at the
/// end (no entry appears twice in a file). A comment block stays with the
/// entries that follow it and goes when none of them survives; the file's
/// leading header always stays. Blessing twice changes no byte the second
/// time. Returns the number of entries written.
pub fn bless(root: &Path) -> io::Result<usize> {
    let findings = run_unsuppressed(root)?;
    let dir = root.join(ALLOWLIST_DIR);
    fs::create_dir_all(&dir)?;
    let mut written = 0;
    for name in lint_names() {
        let mut old = read_allowlist(root, name)?;
        if old.is_empty() {
            old = format!(
                "# Allowlist for the `{name}` lint. One entry per line:\n\
                 #   <path-suffix>                 allow the whole file\n\
                 #   <path-suffix> :: <substring>  allow only lines containing it\n\
                 # Regenerate with: cargo run -p df-check -- --workspace --bless\n"
            );
        }
        let mut list = Allowlist::parse(&old);
        for f in findings.iter().filter(|f| f.lint == name) {
            if !list.allows(&f.file, &f.snippet) {
                list.push(&format!("{} :: {}", f.file, f.snippet), 0);
                list.allows(&f.file, &f.snippet);
            }
        }
        written += list.entries.iter().filter(|e| e.used).count();
        fs::write(dir.join(format!("{name}.txt")), render_blessed(&old, &list))?;
    }
    Ok(written)
}

/// `old` with its unused entries dropped (and any comment block left
/// without entries), then `list`'s new entries appended.
fn render_blessed(old: &str, list: &Allowlist) -> String {
    let mut out = Vec::new();
    // A block's comment lines wait here until one of its entries is kept.
    let mut pending = Vec::new();
    let (mut in_header, mut after_entry) = (true, false);
    let mut entries = list.entries.iter();
    for line in old.lines() {
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('#') {
            (in_header, after_entry) = (false, true);
            if entries.next().is_some_and(|e| e.used) {
                out.append(&mut pending);
                out.push(t);
            }
        } else if in_header {
            out.push(line);
        } else {
            if after_entry {
                pending.clear();
            }
            pending.push(line);
            after_entry = false;
        }
    }
    out.extend(entries.map(|e| e.text.as_str()));
    out.iter().map(|l| format!("{l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_comments_and_strings() {
        let src = "let a = \"sync_channel {\"; // sync_channel\nlet b = 1; /* unsafe */\n";
        let lines = code_lines(src);
        assert!(!lines[0].contains("sync_channel"));
        assert!(lines[0].contains("let a ="));
        assert!(!lines[1].contains("unsafe"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_chars() {
        let src = "let r = r#\"unsafe { } \"#;\nlet c = '{';\nlet lt: &'static str = \"x\";\n";
        let lines = code_lines(src);
        assert!(!lines[0].contains("unsafe"));
        assert!(!lines[1].contains('{'));
        assert!(lines[2].contains("'static"));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let lines = code_lines(src);
        assert!(lines[0].contains("let x = 1;"));
        assert!(!lines[0].contains("comment"));
    }

    #[test]
    fn lexer_preserves_lines_across_multiline_raw_strings() {
        // A raw string spanning lines must blank its contents (no false
        // positives inside) and keep the line structure intact so code
        // *after* it is still scanned at the right line numbers.
        let src = "let q = r##\"\nHashMap iteration \"# not the end\nsync_channel\n\"##;\nlet z = HashMap::new();\n";
        let lines = code_lines(src);
        assert_eq!(lines.len(), 5, "one entry per source line: {lines:?}");
        assert!(!lines[1].contains("HashMap"));
        assert!(!lines[2].contains("sync_channel"));
        assert!(
            lines[4].contains("HashMap::new"),
            "code after the raw string must be seen: {:?}",
            lines[4]
        );
    }

    #[test]
    fn lexer_preserves_lines_across_multiline_nested_block_comments() {
        let src = "/* a /* b\nHashMap */ still\ncomment */ let y = HashSet::new();\nlet t = 2;\n";
        let lines = code_lines(src);
        assert_eq!(lines.len(), 4, "one entry per source line: {lines:?}");
        assert!(!lines[0].contains("a /"));
        assert!(!lines[1].contains("HashMap"));
        assert!(
            lines[2].contains("let y = HashSet::new();"),
            "code after the comment must be seen: {:?}",
            lines[2]
        );
        assert!(lines[3].contains("let t = 2;"));
    }

    #[test]
    fn lexer_does_not_swallow_string_line_continuations() {
        // A `\` at end of line continues the string literal onto the next
        // line; the newline must still produce a line break or every
        // later line number is off by one.
        let src = "let s = \"abc\\\n def\";\nlet m = HashMap::new();\n";
        let lines = code_lines(src);
        assert_eq!(lines.len(), 3, "line structure preserved: {lines:?}");
        assert!(
            lines[2].contains("HashMap::new"),
            "third line must carry the code: {:?}",
            lines[2]
        );
    }

    #[test]
    fn test_blocks_are_detected() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let code = code_lines(src);
        let flags = test_block_lines(&code);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(has_word("x = unsafe{y}", "unsafe"));
        assert!(!has_word("#![deny(unsafe_code)]", "unsafe"));
        assert!(!has_word("my_unsafe_fn()", "unsafe"));
    }

    /// A sandbox workspace in the temp dir holding copies of the real
    /// allowlists and of the real sources at `rels`; returns its root.
    fn sandbox(tag: &str, rels: &[&str]) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let tmp = std::env::temp_dir().join(format!("df-check-{tag}-{}", std::process::id()));
        for rel in rels {
            let dst = tmp.join(rel);
            fs::create_dir_all(dst.parent().expect("source dir")).expect("mkdir sandbox src");
            fs::copy(root.join(rel), dst).expect("copy source");
        }
        let allow_dst = tmp.join(ALLOWLIST_DIR);
        fs::create_dir_all(&allow_dst).expect("mkdir sandbox allowlists");
        for entry in fs::read_dir(root.join(ALLOWLIST_DIR)).expect("read allowlists") {
            let entry = entry.expect("allowlist entry");
            fs::copy(entry.path(), allow_dst.join(entry.file_name())).expect("copy allowlist");
        }
        tmp
    }

    /// Source findings in a sandbox. Its allowlists keep the entries for
    /// files the sandbox lacks, so stale-entry findings are left out.
    fn code_findings(root: &Path) -> Vec<Finding> {
        run(root)
            .expect("lint run")
            .into_iter()
            .filter(|f| f.lint != STALE_ENTRY)
            .collect()
    }

    /// Source findings in a sandbox copy of the real file at `rel` after
    /// `mutate` rewrites it; the unmutated copy must lint clean first.
    fn mutated_findings(tag: &str, rel: &str, mutate: impl FnOnce(&str) -> String) -> Vec<Finding> {
        let tmp = sandbox(tag, &[rel]);
        let clean = code_findings(&tmp);
        assert!(clean.is_empty(), "clean copy has findings: {clean:?}");
        let real = fs::read_to_string(tmp.join(rel)).expect("read source");
        let mutated = mutate(&real);
        assert_ne!(mutated, real, "mutation changed nothing");
        fs::write(tmp.join(rel), mutated).expect("write mutated copy");
        let findings = code_findings(&tmp);
        fs::remove_dir_all(&tmp).ok();
        findings
    }

    /// Mutation test for the ledger single-charge-site invariant: a second
    /// `.charge(` call spliced next to the blessed one in the real executor
    /// matches the pattern but none of the allowlist substrings, so it is
    /// rejected. The allowlist's substring entries pin the *exact* blessed
    /// sites rather than waving through the whole file.
    #[test]
    fn second_ledger_charge_site_is_rejected() {
        let findings = mutated_findings("charge", "crates/core/src/exec/push.rs", |real| {
            real.replacen(
                "self.charge(pid, from, to, batch);",
                "self.charge(pid, from, to, batch);\n        \
                 self.shadow_ledger.charge(from, to, 1, 1);",
                1,
            )
        });
        assert!(
            findings.iter().any(|f| f.lint == "ledger-charge-site"
                && f.file.ends_with("push.rs")
                && f.snippet.contains("shadow_ledger")),
            "second charge site not rejected: {findings:?}"
        );
    }

    /// Mutation test for `determinism-hash-iteration`: in the real volcano
    /// executor (whose blessed `HashMap` sites are pinned by substring
    /// allowlist entries) a spliced-in new `HashMap` iteration is rejected,
    /// and the in-tree `FxHashMap` alternative is not flagged
    /// (word-boundary match).
    #[test]
    fn spliced_hash_iteration_is_rejected_and_fxhash_is_not() {
        let volcano = "crates/core/src/exec/volcano.rs";
        let findings = mutated_findings("hash", volcano, |real| {
            format!(
                "{real}\nfn lint_mutation_probe() -> usize {{\n    \
                 let m: std::collections::HashMap<u32, u32> = Default::default();\n    \
                 m.iter().map(|(k, v)| (k + v) as usize).sum()\n}}\n"
            )
        });
        assert!(
            findings
                .iter()
                .any(|f| f.lint == "determinism-hash-iteration"
                    && f.file.ends_with("volcano.rs")
                    && f.snippet.contains("HashMap<u32, u32>")),
            "unjustified HashMap not rejected: {findings:?}"
        );

        let findings = mutated_findings("fxhash", volcano, |real| {
            format!(
                "{real}\nfn lint_fx_probe() -> usize {{\n    \
                 let m: FxHashMap<u32, u32> = FxHashMap::default();\n    \
                 m.len()\n}}\n"
            )
        });
        assert!(
            !findings
                .iter()
                .any(|f| f.lint == "determinism-hash-iteration"),
            "FxHashMap wrongly flagged: {findings:?}"
        );
    }

    /// Mutation test for `no-thread-id-in-decisions`: splicing a
    /// `thread::current().id()` call into decision-making code is caught.
    #[test]
    fn spliced_thread_id_is_rejected() {
        let findings = mutated_findings("tid", "crates/core/src/exec/volcano.rs", |real| {
            format!(
                "{real}\nfn lint_tid_probe() -> u64 {{\n    \
                 let id = std::thread::current().id();\n    \
                 format!(\"{{id:?}}\").len() as u64\n}}\n"
            )
        });
        assert!(
            findings
                .iter()
                .any(|f| f.lint == "no-thread-id-in-decisions"
                    && f.file.ends_with("volcano.rs")
                    && f.snippet.contains("thread::current")),
            "thread-id use not rejected: {findings:?}"
        );
    }

    /// An allowlist entry that suppresses nothing is reported at its file
    /// and line, and so is a duplicate, which the first copy shadows.
    /// `bless` drops both, drops the comment blocks left without entries,
    /// keeps every other justification, and a second bless changes no byte.
    #[test]
    fn stale_entries_are_reported_and_blessed_away() {
        let exec = [
            "crates/core/src/exec/push.rs",
            "crates/core/src/exec/volcano.rs",
        ];
        let tmp = sandbox("stale", &exec);
        let file = format!("{ALLOWLIST_DIR}/determinism-hash-iteration.txt");
        let mut text = fs::read_to_string(tmp.join(&file)).expect("read allowlist");
        let lines = text.lines().count();
        text.push_str("crates/core/src/exec/volcano.rs :: no line holds this\n");
        text.push_str("crates/core/src/exec/volcano.rs :: use std::collections::HashMap;\n");
        fs::write(tmp.join(&file), text).expect("write allowlist");
        let stale: Vec<(String, usize)> = run(&tmp)
            .expect("lint run")
            .into_iter()
            .filter(|f| f.lint == STALE_ENTRY && f.snippet.contains("exec/volcano.rs"))
            .map(|f| (f.file, f.line))
            .collect();
        assert_eq!(
            stale,
            [(file.clone(), lines + 1), (file.clone(), lines + 2)]
        );

        let read_all = || -> Vec<String> {
            let read = |name: &&str| read_allowlist(&tmp, name).expect("read allowlist");
            lint_names().iter().map(read).collect()
        };
        bless(&tmp).expect("first bless");
        let once = read_all();
        let findings = run(&tmp).expect("lint run");
        assert!(
            findings.is_empty(),
            "blessed tree has findings: {findings:?}"
        );
        let hash = fs::read_to_string(tmp.join(&file)).expect("read allowlist");
        assert!(
            hash.contains("# core/exec/volcano.rs: agg groups"),
            "{hash}"
        );
        assert!(!hash.contains("# mem/bufferpool.rs"), "{hash}");
        bless(&tmp).expect("second bless");
        assert_eq!(read_all(), once, "second bless changed the allowlists");
        fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn workspace_is_clean() {
        // The committed tree must carry zero violations: this is the same
        // invariant the CI static-analysis job enforces.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run(&root).expect("lint run");
        assert!(
            findings.is_empty(),
            "workspace lint violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
