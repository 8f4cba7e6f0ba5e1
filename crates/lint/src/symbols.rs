//! The workspace symbol table: every parsed file, every fn item, and the
//! string constants and `use` aliases needed to resolve calls and knob
//! names across crate boundaries.
//!
//! Resolution is deliberately *conservative over-approximation*: a
//! method call `.foo()` resolves to every workspace fn named `foo` that
//! takes `self`; a qualified call `Type::foo(...)` resolves to fns whose
//! enclosing impl type (or defining module file) matches the qualifier.
//! Calls that resolve to nothing are std/vendor calls and contribute no
//! edges. Over-approximation can only *add* paths, so the reachability
//! passes err toward reporting — the `allow(...)` directive (with a
//! mandatory reason) is the designed escape hatch.

use std::collections::BTreeMap;

use crate::lexer::Lexed;
use crate::parser::{self, ParsedFile};

/// Index of a fn in [`Workspace::fns`].
pub type FnId = usize;

/// One analyzed file.
pub struct FileEntry {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Crate directory name (`sim` for `crates/sim/...`), empty outside
    /// `crates/`.
    pub krate: String,
    pub lexed: Lexed,
    pub parsed: ParsedFile,
}

/// Global handle to one fn item: which file, which item index.
#[derive(Clone, Copy, Debug)]
pub struct FnRef {
    pub file: usize,
    pub item: usize,
}

/// The whole-workspace symbol table.
pub struct Workspace {
    pub files: Vec<FileEntry>,
    /// Flat fn list; `FnId` indexes here.
    pub fns: Vec<FnRef>,
    /// Name → fns with that name (sorted by (file, line) via insertion
    /// order over the sorted file list — deterministic).
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// `&str` constants, keyed bare and crate-qualified
    /// (`NAME` and `crate::NAME`).
    pub str_consts: BTreeMap<String, String>,
}

impl Workspace {
    /// Build the table from parsed files (already sorted by path).
    pub fn build(files: Vec<FileEntry>) -> Self {
        let mut ws = Workspace {
            files,
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            str_consts: BTreeMap::new(),
        };
        for (fi, fe) in ws.files.iter().enumerate() {
            for (ii, f) in fe.parsed.fns.iter().enumerate() {
                let id = ws.fns.len();
                ws.fns.push(FnRef { file: fi, item: ii });
                ws.by_name.entry(f.name.clone()).or_default().push(id);
            }
            for c in &fe.parsed.str_consts {
                ws.str_consts
                    .entry(format!("{}::{}", fe.krate, c.name))
                    .or_insert_with(|| c.value.clone());
                ws.str_consts
                    .entry(c.name.clone())
                    .or_insert_with(|| c.value.clone());
            }
        }
        ws
    }

    pub fn fn_item(&self, id: FnId) -> &parser::FnItem {
        let r = self.fns[id];
        &self.files[r.file].parsed.fns[r.item]
    }

    pub fn fn_file(&self, id: FnId) -> &FileEntry {
        &self.files[self.fns[id].file]
    }

    /// `file.rs` stem of the file defining `id` (used as a module-path
    /// qualifier fallback: `rank::ranked_pages`).
    fn module_stem(&self, id: FnId) -> &str {
        let rel = &self.fn_file(id).rel;
        rel.rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or("")
    }

    /// Human-readable qualified name: `crate::Type::name` or
    /// `crate::name`.
    pub fn qual_name(&self, id: FnId) -> String {
        let r = self.fns[id];
        let fe = &self.files[r.file];
        let f = &fe.parsed.fns[r.item];
        match (&fe.krate.is_empty(), &f.qual) {
            (false, Some(q)) => format!("{}::{}::{}", fe.krate, q, f.name),
            (false, None) => format!("{}::{}", fe.krate, f.name),
            (true, Some(q)) => format!("{}::{}", q, f.name),
            (true, None) => f.name.clone(),
        }
    }

    /// Whether two files belong to one crate: the same `crates/<name>`
    /// directory, or the same top-level directory outside `crates/`
    /// (`perf/src/*`).
    fn same_crate(&self, a: usize, b: usize) -> bool {
        let (fa, fb) = (&self.files[a], &self.files[b]);
        if fa.krate.is_empty() && fb.krate.is_empty() {
            fa.rel.split('/').next() == fb.rel.split('/').next()
        } else {
            fa.krate == fb.krate
        }
    }

    /// Resolve a call site in `caller_file` to candidate workspace fns.
    ///
    /// * Method calls — every same-name fn with a `self` parameter.
    /// * Qualified calls — same-name fns whose impl type or module stem
    ///   or inline module matches the qualifier (`Machine::new`,
    ///   `rank::ranked_pages`, `ring::with_ring`);
    ///   `self::`/`Self::` resolve within the caller's file, `crate::` and
    ///   `super::` to the caller's crate, and a crate name
    ///   (`tmprof_cli::dispatch`) to that crate's free fns, which is how a
    ///   crate-root re-export is called. When nothing matches the
    ///   qualifier, the call is foreign (std or vendor) and resolves to
    ///   nothing.
    /// * Bare calls — same-file fns first; otherwise every same-name
    ///   free fn in the workspace.
    /// * Bare fn values — same-file free fns, or, when the file imports
    ///   the name with `use`, every same-name free fn. A local variable
    ///   that merely shares a distant fn's name resolves to nothing.
    ///
    /// Test fns never resolve (they are not analysis roots or targets).
    pub fn resolve_call(&self, caller_file: usize, call: &parser::CallSite) -> Vec<FnId> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let live = |id: &&FnId| !self.fn_item(**id).is_test;
        let pick = |keep: &dyn Fn(FnId) -> bool| -> Vec<FnId> {
            cands
                .iter()
                .filter(live)
                .filter(|&&id| keep(id))
                .copied()
                .collect()
        };
        let free = |id: FnId| self.fn_item(id).qual.is_none();
        let same_file = |id: FnId| self.fns[id].file == caller_file;
        if call.method {
            return pick(&|id| self.fn_item(id).has_self);
        }
        if let Some(q) = &call.qual {
            return match q.as_str() {
                "self" | "Self" => pick(&same_file),
                "crate" | "super" => pick(&|id| self.same_crate(self.fns[id].file, caller_file)),
                _ => match q.strip_prefix("tmprof_") {
                    Some(krate) if self.files.iter().any(|f| f.krate == krate) => {
                        pick(&|id| free(id) && self.fn_file(id).krate == krate)
                    }
                    _ => pick(&|id| {
                        let item = self.fn_item(id);
                        item.qual.as_deref() == Some(q.as_str())
                            || self.module_stem(id) == q
                            || item.module.as_deref() == Some(q.as_str())
                    }),
                },
            };
        }
        let local = pick(&same_file);
        if call.value {
            let imported = self.files[caller_file]
                .parsed
                .uses
                .iter()
                .any(|u| u.alias == call.name);
            return if imported {
                pick(&|id| free(id) || same_file(id))
            } else {
                pick(&|id| free(id) && same_file(id))
            };
        }
        if !local.is_empty() {
            return local;
        }
        pick(&|id| !self.fn_item(id).has_self)
    }

    /// Resolve a named constant seen in `file` to its string value:
    /// same-file consts win, then same-crate, then a unique global match.
    pub fn resolve_const(&self, file: usize, name: &str) -> Option<String> {
        let fe = &self.files[file];
        for c in &fe.parsed.str_consts {
            if c.name == name {
                return Some(c.value.clone());
            }
        }
        if let Some(v) = self.str_consts.get(&format!("{}::{}", fe.krate, name)) {
            return Some(v.clone());
        }
        self.str_consts.get(name).cloned()
    }
}

/// Crate directory name from a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| {
                    let lexed = lex(src);
                    let parsed = parse(&lexed, rel.contains("/tests/"));
                    FileEntry {
                        rel: rel.to_string(),
                        krate: crate_of(rel),
                        lexed,
                        parsed,
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn method_calls_resolve_to_self_taking_fns() {
        let w = ws(&[
            (
                "crates/sim/src/machine.rs",
                "impl Machine { pub fn translate(&mut self) {} }",
            ),
            ("crates/core/src/free.rs", "pub fn translate() {}"),
        ]);
        let call = parser::CallSite {
            name: "translate".into(),
            qual: None,
            method: true,
            value: false,
            line: 1,
            tok: 0,
        };
        let r = w.resolve_call(1, &call);
        assert_eq!(r.len(), 1);
        assert_eq!(w.qual_name(r[0]), "sim::Machine::translate");
    }

    #[test]
    fn qualified_calls_filter_by_impl_type_or_module() {
        let w = ws(&[
            (
                "crates/sim/src/tlb.rs",
                "impl Tlb { pub fn new() -> Self {} }",
            ),
            ("crates/core/src/rank.rs", "pub fn ranked_pages() {}"),
        ]);
        let tlb_new = parser::CallSite {
            name: "new".into(),
            qual: Some("Tlb".into()),
            method: false,
            value: false,
            line: 1,
            tok: 0,
        };
        assert_eq!(w.resolve_call(1, &tlb_new).len(), 1);
        let foreign = parser::CallSite {
            name: "new".into(),
            qual: Some("String".into()),
            method: false,
            value: false,
            line: 1,
            tok: 0,
        };
        assert!(w.resolve_call(1, &foreign).is_empty());
        let modq = parser::CallSite {
            name: "ranked_pages".into(),
            qual: Some("rank".into()),
            method: false,
            value: false,
            line: 1,
            tok: 0,
        };
        assert_eq!(w.resolve_call(0, &modq).len(), 1);
    }

    #[test]
    fn bare_calls_prefer_same_file() {
        let w = ws(&[
            (
                "crates/sim/src/a.rs",
                "fn helper() {} fn caller() { helper(); }",
            ),
            ("crates/core/src/b.rs", "pub fn helper() {}"),
        ]);
        let call = parser::CallSite {
            name: "helper".into(),
            qual: None,
            method: false,
            value: false,
            line: 1,
            tok: 0,
        };
        let r = w.resolve_call(0, &call);
        assert_eq!(r.len(), 1);
        assert_eq!(w.fns[r[0]].file, 0);
    }

    #[test]
    fn consts_resolve_same_file_then_crate_then_global() {
        let w = ws(&[
            (
                "crates/obs/src/journal.rs",
                "pub const CAP_ENV: &str = \"TMPROF_OBS_JOURNAL\";",
            ),
            ("crates/sim/src/x.rs", "fn f() {}"),
        ]);
        assert_eq!(
            w.resolve_const(0, "CAP_ENV").as_deref(),
            Some("TMPROF_OBS_JOURNAL")
        );
        assert_eq!(
            w.resolve_const(1, "CAP_ENV").as_deref(),
            Some("TMPROF_OBS_JOURNAL"),
            "unique global fallback"
        );
        assert!(w.resolve_const(1, "MISSING").is_none());
    }

    #[test]
    fn test_fns_never_resolve() {
        let w = ws(&[(
            "crates/sim/src/a.rs",
            "#[cfg(test)]\nmod tests { fn helper() {} }\nfn caller() { helper(); }",
        )]);
        let call = parser::CallSite {
            name: "helper".into(),
            qual: None,
            method: false,
            value: false,
            line: 3,
            tok: 0,
        };
        assert!(w.resolve_call(0, &call).is_empty());
    }

    fn call(name: &str, qual: Option<&str>, value: bool) -> parser::CallSite {
        parser::CallSite {
            name: name.into(),
            qual: qual.map(Into::into),
            method: false,
            value,
            line: 1,
            tok: 0,
        }
    }

    #[test]
    fn crate_root_calls_resolve_to_the_crates_free_fns() {
        let w = ws(&[
            ("crates/cli/src/bin/tmpctl.rs", "fn main() {}"),
            (
                "crates/cli/src/commands.rs",
                "pub fn dispatch() {}\nimpl Cmd { pub fn dispatch(&self) {} }",
            ),
            ("crates/sim/src/other.rs", "pub fn dispatch() {}"),
        ]);
        let r = w.resolve_call(0, &call("dispatch", Some("tmprof_cli"), false));
        let names: Vec<String> = r.iter().map(|&id| w.qual_name(id)).collect();
        assert_eq!(names, ["cli::dispatch"]);
        assert!(w
            .resolve_call(0, &call("dispatch", Some("tmprof_nope"), false))
            .is_empty());
    }

    #[test]
    fn bare_fn_values_resolve_only_to_local_or_imported_fns() {
        let w = ws(&[
            (
                "crates/cli/src/commands.rs",
                "use crate::args::parse;\npub fn cmd_profile() {}",
            ),
            ("crates/cli/src/args.rs", "pub fn parse() {}"),
            ("crates/sim/src/far.rs", "pub fn total() {}"),
        ]);
        assert_eq!(w.resolve_call(0, &call("cmd_profile", None, true)).len(), 1);
        assert_eq!(w.resolve_call(0, &call("parse", None, true)).len(), 1);
        // A local variable that shares a distant fn's name is not an edge.
        assert!(w.resolve_call(0, &call("total", None, true)).is_empty());
    }
}
