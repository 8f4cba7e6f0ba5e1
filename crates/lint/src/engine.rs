//! The lint driver: walk the tree, lex and parse every file, build the
//! workspace symbol table and call graph, run the per-file lexical rules
//! and the whole-workspace dataflow passes, then resolve `allow(...)`
//! directives, directive-hygiene violations, and the baseline.
//!
//! Pipeline: lexer → item parser → symbol table → call graph → passes.
//! Everything is deterministic — files are walked sorted, fn ids follow
//! file order, and every pass iterates in id or BTree order — so two
//! runs over the same tree produce byte-identical reports (CI relies on
//! this, and `tests/fixtures.rs` asserts it).

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::dataflow;
use crate::lexer::{self, Lexed, TokenKind};
use crate::parser;
use crate::rules::{self, Violation};
use crate::symbols::{crate_of, FileEntry, Workspace};

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed, non-baselined findings, ordered by (file, line).
    pub violations: Vec<Violation>,
    /// Findings matched by the baseline file (still reported in JSON,
    /// but they do not fail the run).
    pub baselined: Vec<Violation>,
    /// Number of `.rs` files checked.
    pub files_checked: usize,
    /// Number of fn items in the symbol table.
    pub fns: usize,
    /// Number of call edges in the graph.
    pub edges: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Stable identity of a violation for baseline matching: the line
    /// number is deliberately excluded so unrelated edits above a
    /// baselined finding do not resurrect it.
    pub fn baseline_key(v: &Violation) -> String {
        format!("{}\t{}\t{}", v.rule, v.file, v.message)
    }

    /// Move violations matched by `baseline` into `self.baselined`, and
    /// return the baseline entries that matched no violation. A stale
    /// entry must be deleted: left in place, it would silently mask a
    /// later finding that happens to carry the same text.
    pub fn apply_baseline(&mut self, baseline: &BTreeSet<String>) -> Vec<String> {
        let (kept, masked): (Vec<_>, Vec<_>) = std::mem::take(&mut self.violations)
            .into_iter()
            .partition(|v| !baseline.contains(&Self::baseline_key(v)));
        let matched: BTreeSet<String> = masked.iter().map(Self::baseline_key).collect();
        self.violations = kept;
        self.baselined.extend(masked);
        self.baselined
            .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
        baseline.difference(&matched).cloned().collect()
    }

    /// Baseline file contents for the current violations (write mode).
    pub fn baseline_text(&self) -> String {
        let mut keys: Vec<String> = self
            .violations
            .iter()
            .chain(self.baselined.iter())
            .map(Self::baseline_key)
            .collect();
        keys.sort();
        keys.dedup();
        let mut s = String::from(
            "# tmprof-lint baseline: one `rule<TAB>file<TAB>message` per line.\n\
             # Findings listed here are reported but do not fail the run;\n\
             # burn them down to zero rather than letting them accrete.\n",
        );
        for k in keys {
            s.push_str(&k);
            s.push('\n');
        }
        s
    }

    /// Minimal hand-rolled JSON (the workspace is offline; no serde).
    pub fn to_json(&self) -> String {
        let emit = |list: &[Violation]| {
            let mut s = String::from("[");
            for (i, v) in list.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                    json_escape(v.rule),
                    json_escape(&v.file),
                    v.line,
                    json_escape(&v.message)
                ));
            }
            s.push(']');
            s
        };
        format!(
            "{{\"violations\":{},\"baselined\":{},\"count\":{},\"baselined_count\":{},\
             \"files_checked\":{},\"fns\":{},\"edges\":{}}}",
            emit(&self.violations),
            emit(&self.baselined),
            self.violations.len(),
            self.baselined.len(),
            self.files_checked,
            self.fns,
            self.edges
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Where the knob table lives, relative to the workspace root. The
/// `knob-registry` rule checks every other `TMPROF_*` literal against the
/// names registered here.
const KNOBS_FILE: &str = "crates/core/src/knobs.rs";

/// Directories never descended into, by basename.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor"];

/// Relative paths never descended into (the lint's own test fixtures are
/// violating on purpose).
const SKIP_REL: &[&str] = &["crates/lint/fixtures"];

/// Everything the analysis produced, for callers that want more than
/// the report (`--graph`, tests).
pub struct Analysis {
    pub report: Report,
    pub ws: Workspace,
    pub graph: CallGraph,
}

/// Lint the workspace rooted at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    Ok(analyze(root)?.report)
}

/// Lint the workspace rooted at `root`, keeping the symbol table and
/// call graph.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let registry = build_knob_registry(root);

    // Stage 1: lex + parse every file.
    let mut entries: Vec<FileEntry> = Vec::with_capacity(files.len());
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let lexed = lexer::lex(&src);
        let tests_file = rel_str.contains("/tests/") || rel_str.starts_with("tests/");
        let parsed = parser::parse(&lexed, tests_file);
        entries.push(FileEntry {
            krate: crate_of(&rel_str),
            rel: rel_str,
            lexed,
            parsed,
        });
    }

    // Stage 2: per-file lexical rules.
    let mut candidates = Vec::new();
    for fe in &entries {
        candidates.extend(rules::check_file(&fe.rel, &fe.lexed, &registry));
    }

    // Stage 3: symbol table, call graph, dataflow passes.
    let ws = Workspace::build(entries);
    let graph = CallGraph::build(&ws);
    candidates.extend(dataflow::run_passes(&ws, &graph));

    // Stage 4: directives — hygiene findings plus suppression.
    let mut report = Report {
        files_checked: ws.files.len(),
        fns: ws.fns.len(),
        edges: graph.out.iter().map(Vec::len).sum(),
        ..Report::default()
    };
    let mut suppressed: BTreeSet<(String, String, u32)> = BTreeSet::new();
    for fe in &ws.files {
        let (hygiene, sup) = resolve_directives(&fe.rel, &fe.lexed);
        report.violations.extend(hygiene);
        for (rule, line) in sup {
            suppressed.insert((rule, fe.rel.clone(), line));
        }
    }
    report.violations.extend(
        candidates
            .into_iter()
            .filter(|v| !suppressed.contains(&(v.rule.to_string(), v.file.clone(), v.line))),
    );
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    Ok(Analysis { report, ws, graph })
}

/// Validate one file's directives. Returns hygiene violations (malformed,
/// unknown rule, reasonless) and the set of `(rule, line)` pairs validly
/// suppressed.
fn resolve_directives(rel: &str, lexed: &Lexed) -> (Vec<Violation>, Vec<(String, u32)>) {
    let mut out = Vec::new();
    let mut sup = Vec::new();

    for d in &lexed.directives {
        if d.rule.is_empty() {
            out.push(Violation {
                rule: "allow-directive",
                file: rel.to_string(),
                line: d.line,
                message: "malformed directive; expected \
                          `// tmprof-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            });
            continue;
        }
        if !rules::known_rule(&d.rule) {
            out.push(Violation {
                rule: "allow-directive",
                file: rel.to_string(),
                line: d.line,
                message: format!("allow({}) names an unknown rule", d.rule),
            });
            continue;
        }
        if d.reason.is_empty() {
            out.push(Violation {
                rule: "allow-directive",
                file: rel.to_string(),
                line: d.line,
                message: format!(
                    "allow({}) has no reason; every suppression must say why the \
                     invariant holds: `allow({}) — <reason>`",
                    d.rule, d.rule
                ),
            });
            continue;
        }
        if let Some(line) = lexed.governed_line(d) {
            sup.push((d.rule.clone(), line));
        }
    }
    (out, sup)
}

/// Recursively gather `.rs` files as root-relative paths, sorted walk.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&base) || SKIP_REL.contains(&rel_str.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Extract registered knob names from the knob table: every
/// `name: "TMPROF_..."` field in non-test code.
pub fn build_knob_registry(root: &Path) -> BTreeSet<String> {
    let mut reg = BTreeSet::new();
    let Ok(src) = fs::read_to_string(root.join(KNOBS_FILE)) else {
        return reg;
    };
    let lexed = lexer::lex(&src);
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "name"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Punct(':'))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokenKind::StrLit && !lexed.in_test(t.line))
        {
            reg.insert(toks[i + 2].text.clone());
        }
    }
    reg
}

/// Load a baseline file into the key set `apply_baseline` consumes.
/// Missing file → empty baseline. `#` lines and blanks are ignored.
pub fn load_baseline(path: &Path) -> io::Result<BTreeSet<String>> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    Ok(text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Ascend from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint_src(rel: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let mut candidates = rules::check_file(rel, &lexed, &BTreeSet::new());
        let (mut out, sup) = resolve_directives(rel, &lexed);
        let sup: BTreeSet<(String, u32)> = sup.into_iter().collect();
        candidates.retain(|v| !sup.contains(&(v.rule.to_string(), v.line)));
        out.extend(candidates);
        out
    }

    #[test]
    fn trailing_directive_suppresses_its_own_line() {
        let src = "use std::collections::HashMap; \
                   // tmprof-lint: allow(nondet-iter) — model map in a proptest oracle\n";
        let v = lint_src("crates/sim/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn standalone_directive_suppresses_the_next_code_line() {
        let src = "// tmprof-lint: allow(nondet-iter) — drained through a sorted Vec\n\
                   use std::collections::HashMap;\n";
        let v = lint_src("crates/sim/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reasonless_allow_is_itself_a_violation_and_suppresses_nothing() {
        let src = "// tmprof-lint: allow(nondet-iter)\n\
                   use std::collections::HashMap;\n";
        let v = lint_src("crates/sim/src/x.rs", src);
        let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"allow-directive"), "{v:?}");
        assert!(rules.contains(&"nondet-iter"), "{v:?}");
    }

    #[test]
    fn reasonless_dead_surface_allow_is_flagged() {
        let src = "// tmprof-lint: allow(dead-surface)\npub fn oracle() {}\n";
        let v = lint_src("crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "allow-directive");
        assert!(v[0].message.contains("no reason"), "{}", v[0].message);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// tmprof-lint: allow(no-such-rule) — because\nlet x = 1;\n";
        let v = lint_src("crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-directive");
    }

    #[test]
    fn directive_for_a_different_rule_does_not_suppress() {
        let src = "// tmprof-lint: allow(wall-clock) — not what this line violates\n\
                   use std::collections::HashSet;\n";
        let v = lint_src("crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "nondet-iter");
    }

    #[test]
    fn json_escapes_quotes() {
        let report = Report {
            violations: vec![Violation {
                rule: "knob-registry",
                file: "a.rs".into(),
                line: 3,
                message: "\"TMPROF_X\" is not registered".into(),
            }],
            files_checked: 1,
            ..Report::default()
        };
        let json = report.to_json();
        assert!(json.contains("\\\"TMPROF_X\\\""), "{json}");
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn baseline_roundtrip_masks_exactly_the_listed_findings() {
        let v = |rule: &'static str, file: &str, msg: &str| Violation {
            rule,
            file: file.into(),
            line: 1,
            message: msg.into(),
        };
        let mut report = Report {
            violations: vec![
                v("knob-flow", "a.rs", "old finding"),
                v("knob-flow", "b.rs", "new finding"),
            ],
            ..Report::default()
        };
        let baseline: BTreeSet<String> = [Report::baseline_key(&report.violations[0])]
            .into_iter()
            .collect();
        report.apply_baseline(&baseline);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].file, "b.rs");
        assert_eq!(report.baselined.len(), 1);
        // The write-mode text reproduces both findings, sorted.
        let text = report.baseline_text();
        assert!(text.contains("old finding") && text.contains("new finding"));
    }

    #[test]
    fn baseline_entry_matching_no_finding_is_reported_stale() {
        let mut report = Report {
            violations: vec![Violation {
                rule: "lock-order",
                file: "a.rs".into(),
                line: 7,
                message: "live finding".into(),
            }],
            ..Report::default()
        };
        let live = Report::baseline_key(&report.violations[0]);
        let fixed = "lock-order\tb.rs\tfinding fixed long ago".to_string();
        let baseline: BTreeSet<String> = [live, fixed.clone()].into_iter().collect();
        assert_eq!(report.apply_baseline(&baseline), vec![fixed]);
        assert!(report.violations.is_empty());
        assert_eq!(report.baselined.len(), 1);
    }

    #[test]
    fn load_baseline_ignores_comments_and_missing_files() {
        let dir = std::env::temp_dir().join("tmprof_lint_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("baseline.txt");
        std::fs::write(&p, "# comment\n\nrule\ta.rs\tmsg\n").unwrap();
        let b = load_baseline(&p).unwrap();
        assert_eq!(b.len(), 1);
        assert!(load_baseline(&dir.join("missing.txt")).unwrap().is_empty());
    }
}
