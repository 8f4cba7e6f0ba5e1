//! The five whole-workspace dataflow passes, run on the symbol table and
//! call graph:
//!
//! 1. **panic-reachability** — panic sites (`unwrap`/`expect`, the panic
//!    macro family, unmasked slice indexing) in any fn transitively
//!    reachable from a registered hot entry point. Replaces the old
//!    line-local `panic-hot-path` file list: a panic three calls deep
//!    below `Machine::exec_batch` is now found no matter which file it
//!    lives in.
//! 2. **determinism-taint** — determinism sources (wall clock, ambient
//!    RNG, std hash iteration, thread IDs) may not flow through the call
//!    graph into determinism sinks (result CSV writers, the hotness
//!    ranking, the obs journal). A source fn `F` taints every caller;
//!    a flow exists when some fn both observes the taint (reaches `F`)
//!    and reaches a sink call.
//! 3. **knob-flow** — every `env::var("TMPROF_*")` read must live in
//!    `crates/core/src/knobs.rs`; reads elsewhere are found by dataflow
//!    (string literals *and* named constants resolved through the symbol
//!    table) and need a reasoned layering annotation.
//! 4. **lock-order** — per-function lock acquisition orders, propagated
//!    through the call graph: cyclic pairwise orders are deadlocks
//!    waiting for the fleet scheduler, and locks held across calls with
//!    large transitive closures are contention bugs.
//! 5. **dead-surface** — library fns (`crates/*/src`) that no production
//!    root reaches: the bins, `examples/`, `perf/src`, and every trait
//!    method body. A fn only tests or benches call is a finding; it is
//!    deleted, moved into its test, or annotated with the test, bench or
//!    diagnostic it serves.
//!
//! Suppression anchors: site-level findings (`unwrap`, sources, env
//! reads, lock pairs) take an `allow(...)` on their own line; grouped
//! slice-index findings anchor at the `fn` line and take one
//! function-level annotation stating the bounding invariant.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::parser::{EnvArg, PanicKind};
use crate::rules::Violation;
use crate::symbols::{FnId, Workspace};

/// Registered hot entry points, as (workspace-relative file, fn name)
/// pairs. These are the paper's "must stay cheap and predictable" paths:
/// batched execution, the A-bit scans (the page-table scan and the
/// scanner's scan and scalar reference), epoch close, and the hotness
/// ranking.
pub const HOT_ENTRIES: &[(&str, &str)] = &[
    ("crates/sim/src/machine.rs", "exec_batch"),
    ("crates/profilers/src/abit.rs", "scan_process"),
    ("crates/profilers/src/abit.rs", "scan_process_scalar"),
    ("crates/sim/src/pagetable.rs", "scan_accessed_bounded"),
    ("crates/core/src/profiler.rs", "end_epoch"),
    ("crates/core/src/rank.rs", "ranked"),
    ("crates/core/src/rank.rs", "top_k"),
];

/// Determinism sinks: fns whose output is part of the reproducibility
/// contract, as (file, fn name, human label).
pub const TAINT_SINKS: &[(&str, &str, &str)] = &[
    ("crates/bench/src/table.rs", "to_csv", "results CSV encoder"),
    (
        "crates/bench/src/table.rs",
        "write_csv",
        "results CSV writer",
    ),
    (
        "crates/bench/src/table.rs",
        "write_result",
        "results file writer",
    ),
    ("crates/core/src/rank.rs", "ranked", "hotness ranking"),
    ("crates/core/src/rank.rs", "top_k", "hotness ranking"),
    ("crates/obs/src/journal.rs", "record", "obs event journal"),
];

/// The canonical knob reader; `env::var("TMPROF_*")` anywhere else needs
/// a reasoned annotation.
pub const KNOBS_FILE: &str = "crates/core/src/knobs.rs";

/// The production roots of `dead-surface`, as path patterns: `*` matches
/// one path segment, and a pattern ending in `/` matches everything
/// below it. `perf/src` is read only as roots; nothing there is reported.
pub const DEAD_SURFACE_ROOTS: &[&str] = &[
    "crates/*/src/bin/",
    "crates/lint/src/main.rs",
    "examples/",
    "perf/src/",
];

/// Whether the workspace-relative path `rel` matches a
/// [`DEAD_SURFACE_ROOTS`] pattern.
pub fn matches_root_pattern(pattern: &str, rel: &str) -> bool {
    let (pattern, subtree) = match pattern.strip_suffix('/') {
        Some(p) => (p, true),
        None => (pattern, false),
    };
    let mut segs = rel.split('/');
    for want in pattern.split('/') {
        match segs.next() {
            Some(got) if want == "*" || want == got => {}
            _ => return false,
        }
    }
    subtree || segs.next().is_none()
}

/// A callee with at least this many transitive workspace callees counts
/// as a "long call" for the held-lock check.
pub const LONG_CALL_THRESHOLD: usize = 8;

/// Fns matching the hot-entry registry (non-test only).
pub fn hot_entry_fns(ws: &Workspace) -> Vec<FnId> {
    let mut roots = Vec::new();
    for id in 0..ws.fns.len() {
        let item = ws.fn_item(id);
        if item.is_test {
            continue;
        }
        let rel = ws.fn_file(id).rel.as_str();
        for &(file, name) in HOT_ENTRIES {
            if item.name == name && rel == file {
                roots.push(id);
                break;
            }
        }
    }
    roots
}

/// Fns matching the sink registry, with their labels.
fn sink_fns(ws: &Workspace) -> Vec<(FnId, &'static str)> {
    let mut sinks = Vec::new();
    for id in 0..ws.fns.len() {
        let item = ws.fn_item(id);
        if item.is_test {
            continue;
        }
        let rel = ws.fn_file(id).rel.as_str();
        for &(file, name, label) in TAINT_SINKS {
            if item.name == name && rel == file {
                sinks.push((id, label));
                break;
            }
        }
    }
    sinks
}

/// Reverse edges of the call graph.
fn reverse(graph: &CallGraph) -> Vec<Vec<FnId>> {
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); graph.out.len()];
    for (f, edges) in graph.out.iter().enumerate() {
        for e in edges {
            rev[e.callee].push(f);
        }
    }
    for v in &mut rev {
        v.sort_unstable();
        v.dedup();
    }
    rev
}

/// Set of fns that can reach any fn in `targets` (inclusive), over the
/// reverse graph.
fn can_reach(rev: &[Vec<FnId>], targets: &[FnId]) -> Vec<bool> {
    let mut seen = vec![false; rev.len()];
    let mut stack: Vec<FnId> = targets.to_vec();
    for &t in targets {
        seen[t] = true;
    }
    while let Some(f) = stack.pop() {
        for &p in &rev[f] {
            if !seen[p] {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    seen
}

/// Pass 1: panic-reachability.
pub fn panic_reachability(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let roots = hot_entry_fns(ws);
    let reach = graph.reach_forward(&roots);
    let mut out = Vec::new();

    for id in 0..ws.fns.len() {
        if !reach.contains(id) {
            continue;
        }
        let item = ws.fn_item(id);
        if item.is_test {
            continue;
        }
        let rel = ws.fn_file(id).rel.clone();
        let path = reach.path_to(ws, id);

        let mut index_lines: Vec<u32> = Vec::new();
        for site in &item.panics {
            match site.kind {
                PanicKind::Index => {
                    if !site.masked {
                        index_lines.push(site.line);
                    }
                }
                _ => {
                    let what = match site.kind {
                        PanicKind::Unwrap => "bare unwrap".to_string(),
                        PanicKind::Expect => "bare expect".to_string(),
                        _ => format!("{}! macro", site.what),
                    };
                    out.push(Violation {
                        rule: "panic-reachability",
                        file: rel.clone(),
                        line: site.line,
                        message: format!(
                            "{what} is reachable from a hot entry point ({path}); \
                             return a typed error or annotate the invariant"
                        ),
                    });
                }
            }
        }
        if !index_lines.is_empty() {
            index_lines.sort_unstable();
            index_lines.dedup();
            let lines = index_lines
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push(Violation {
                rule: "panic-reachability",
                file: rel,
                line: item.line,
                message: format!(
                    "{} unmasked slice-index site(s) (line {lines}) in `{}`, reachable \
                     from a hot entry point ({path}); prove the bound (mask/modulo/min) \
                     or annotate the fn with the bounding invariant",
                    index_lines.len(),
                    ws.qual_name(id),
                ),
            });
        }
    }
    out
}

/// Pass 2: determinism-taint.
pub fn determinism_taint(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let sinks = sink_fns(ws);
    if sinks.is_empty() {
        return Vec::new();
    }
    let rev = reverse(graph);
    let sink_ids: Vec<FnId> = sinks.iter().map(|&(id, _)| id).collect();
    let reaches_sink = can_reach(&rev, &sink_ids);
    // Which sink does a fn reach? For the message, find the first sink
    // (in registry order) reachable from the common ancestor.
    let fwd_reach_per_sink: Vec<(Vec<bool>, &'static str, FnId)> = sinks
        .iter()
        .map(|&(id, label)| (can_reach(&rev, &[id]), label, id))
        .collect();

    let mut out = Vec::new();
    for id in 0..ws.fns.len() {
        let item = ws.fn_item(id);
        if item.is_test || item.sources.is_empty() {
            continue;
        }
        // Ancestors of the source fn (fns that observe its value),
        // including itself.
        let ancestors = can_reach(&rev, &[id]);
        // A flow exists when some ancestor also reaches a sink.
        let mut join: Option<FnId> = None;
        for (g, anc) in ancestors.iter().enumerate() {
            if *anc && reaches_sink[g] && ws.fns[g].file != usize::MAX {
                join = Some(match join {
                    Some(j) if j <= g => j,
                    _ => g,
                });
            }
        }
        let Some(join) = join else { continue };
        // Name the first registered sink the join point reaches.
        let (sink_label, sink_id) = fwd_reach_per_sink
            .iter()
            .find(|(reach, _, _)| reach[join])
            .map(|&(_, label, sid)| (label, sid))
            .unwrap_or(("determinism sink", sink_ids[0]));
        let rel = ws.fn_file(id).rel.clone();
        for src in &item.sources {
            out.push(Violation {
                rule: "determinism-taint",
                file: rel.clone(),
                line: src.line,
                message: format!(
                    "determinism source {} in `{}` can flow into {} `{}` \
                     (common caller `{}`); keep nondeterminism out of \
                     reproducible outputs or annotate why it never reaches them",
                    src.what,
                    ws.qual_name(id),
                    sink_label,
                    ws.qual_name(sink_id),
                    ws.qual_name(join),
                ),
            });
        }
    }
    out
}

/// Pass 3: knob-flow.
pub fn knob_flow(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in 0..ws.fns.len() {
        let item = ws.fn_item(id);
        if item.is_test {
            continue;
        }
        let r = ws.fns[id];
        let rel = ws.fn_file(id).rel.clone();
        if rel == KNOBS_FILE {
            continue; // the canonical reader
        }
        for read in &item.env_reads {
            let resolved = match &read.arg {
                EnvArg::Lit(s) => Some((s.clone(), "literal")),
                EnvArg::Const(name) => ws.resolve_const(r.file, name).map(|v| (v, "constant")),
                EnvArg::Dynamic => None,
            };
            let Some((name, how)) = resolved else {
                continue;
            };
            // tmprof-lint: allow(knob-registry) — this literal is the knob name prefix the pass filters on, not an env read
            if !name.starts_with("TMPROF_") {
                continue;
            }
            out.push(Violation {
                rule: "knob-flow",
                file: rel.clone(),
                line: read.line,
                message: format!(
                    "env::var(\"{name}\") (via {how}) read outside {KNOBS_FILE}; \
                     route the read through the knob registry (Knob::get) or \
                     annotate the layering exception"
                ),
            });
        }
    }
    out
}

/// Pass 4: lock-order.
pub fn lock_order(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let trans_locks = graph.transitive_locks(ws);
    let closures = graph.closure_sizes();

    // Ordered pairs `A held when B acquired` → first witness
    // (file, line, description).
    let mut order: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut out = Vec::new();

    for id in 0..ws.fns.len() {
        let item = ws.fn_item(id);
        if item.is_test || item.locks.is_empty() {
            continue;
        }
        let rel = ws.fn_file(id).rel.clone();
        let qn = ws.qual_name(id);

        for (i, a) in item.locks.iter().enumerate() {
            if a.recv == "?" {
                continue; // dynamic receiver — no stable identity
            }
            // Intra-fn: a later lock acquired inside A's guard region.
            for b in item.locks.iter().skip(i + 1) {
                if b.recv != a.recv && b.tok < a.region_end {
                    order.entry((a.recv.clone(), b.recv.clone())).or_insert((
                        rel.clone(),
                        b.line,
                        format!("`{}` then `{}` in `{qn}`", a.recv, b.recv),
                    ));
                }
            }
            // Inter-fn: calls inside A's guard region. Group edges by
            // call site — edges sharing a token are alternative
            // resolutions of the same call, so the site's cost is the
            // *minimum* candidate closure (it is long only if every
            // possible resolution is long).
            let mut site_weight: BTreeMap<usize, (usize, FnId, u32)> = BTreeMap::new();
            for e in &graph.out[id] {
                if e.tok <= a.tok || e.tok >= a.region_end {
                    continue;
                }
                for b_recv in &trans_locks[e.callee] {
                    if b_recv != &a.recv && b_recv != "?" {
                        order.entry((a.recv.clone(), b_recv.clone())).or_insert((
                            rel.clone(),
                            e.line,
                            format!(
                                "`{}` held in `{qn}` across call to `{}` which acquires `{}`",
                                a.recv,
                                ws.qual_name(e.callee),
                                b_recv
                            ),
                        ));
                    }
                }
                let w = closures[e.callee];
                site_weight
                    .entry(e.tok)
                    .and_modify(|s| {
                        if w < s.0 {
                            *s = (w, e.callee, e.line);
                        }
                    })
                    .or_insert((w, e.callee, e.line));
            }
            // One long-call finding per lock site, anchored at the
            // acquisition so a single annotation covers the region:
            // report the widest call held under the guard.
            if let Some(&(w, callee, line)) = site_weight
                .values()
                .filter(|&&(w, _, _)| w >= LONG_CALL_THRESHOLD)
                .max_by_key(|&&(w, callee, _)| (w, callee))
            {
                out.push(Violation {
                    rule: "lock-order",
                    file: rel.clone(),
                    line: a.line,
                    message: format!(
                        "lock `{}` ({}) held across call to `{}` at line {line} \
                         ({w} transitive callees); shrink the guard scope or \
                         annotate why the critical section must be this wide",
                        a.recv,
                        a.kind.label(),
                        ws.qual_name(callee),
                    ),
                });
            }
        }
    }

    // Cyclic pairwise orders.
    for ((a, b), (file, line, desc)) in &order {
        if a < b {
            if let Some((rfile, rline, rdesc)) = order.get(&(b.clone(), a.clone())) {
                out.push(Violation {
                    rule: "lock-order",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "inconsistent lock acquisition order: {desc}, but {rdesc} \
                         at {rfile}:{rline}; pick one global order before the \
                         sharded scheduler lands"
                    ),
                });
                out.push(Violation {
                    rule: "lock-order",
                    file: rfile.clone(),
                    line: *rline,
                    message: format!(
                        "inconsistent lock acquisition order: {rdesc}, but {desc} \
                         at {file}:{line}; pick one global order before the \
                         sharded scheduler lands"
                    ),
                });
            }
        }
    }
    out
}

/// The line of the reasoned `allow(dead-surface)` that governs fn `id`'s
/// line, if any.
fn keeping_directive(ws: &Workspace, id: FnId) -> Option<u32> {
    let lexed = &ws.fn_file(id).lexed;
    lexed
        .directives
        .iter()
        .find(|d| {
            d.rule == "dead-surface"
                && !d.reason.is_empty()
                && lexed.governed_line(d) == Some(ws.fn_item(id).line)
        })
        .map(|d| d.line)
}

/// Pass 5: dead-surface. A fn annotated `allow(dead-surface)` is kept on
/// purpose, so it is a root too: the helpers only it calls serve the same
/// test and are not reported again. An annotated fn that production
/// already reaches needs no allow, and that allow is a finding too,
/// anchored at the directive's own line so that it cannot suppress it
/// (a standalone directive governs the next code line). A tree with no
/// root file at all (a single-pass lint fixture) has no production
/// surface to judge, so it gets no findings; `tests/fixtures.rs` checks
/// that every root pattern still matches a file of the real workspace.
pub fn dead_surface(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let in_root_file = |id: FnId| {
        let rel = ws.fn_file(id).rel.as_str();
        DEAD_SURFACE_ROOTS
            .iter()
            .any(|p| matches_root_pattern(p, rel))
    };
    if !(0..ws.fns.len()).any(in_root_file) {
        return Vec::new();
    }
    let non_test = |id: FnId| !ws.fn_item(id).is_test;
    let mut roots: Vec<FnId> = (0..ws.fns.len())
        .filter(|&id| non_test(id) && (ws.fn_item(id).trait_body || in_root_file(id)))
        .collect();
    let production = graph.reach_forward(&roots);
    let mut out = Vec::new();
    for id in (0..ws.fns.len()).filter(|&id| non_test(id)) {
        let Some(line) = keeping_directive(ws, id) else {
            continue;
        };
        roots.push(id);
        if production.contains(id) {
            out.push(Violation {
                rule: "dead-surface",
                file: ws.fn_file(id).rel.clone(),
                line,
                message: format!(
                    "`{}` carries allow(dead-surface), but a production root \
                     reaches it ({}); delete the allow",
                    ws.qual_name(id),
                    production.path_to(ws, id)
                ),
            });
        }
    }
    let reach = graph.reach_forward(&roots);
    for id in 0..ws.fns.len() {
        let item = ws.fn_item(id);
        let rel = ws.fn_file(id).rel.as_str();
        if item.is_test || reach.contains(id) || !matches_root_pattern("crates/*/src/", rel) {
            continue;
        }
        out.push(Violation {
            rule: "dead-surface",
            file: rel.to_string(),
            line: item.line,
            message: format!(
                "`{}` is reached from no production root (a bin, an example, \
                 perf/src or a trait method); delete it, move it into the test \
                 code that uses it, or annotate the test, bench or diagnostic \
                 it serves",
                ws.qual_name(id)
            ),
        });
    }
    out
}

/// Run all five passes.
pub fn run_passes(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let mut out = panic_reachability(ws, graph);
    out.extend(determinism_taint(ws, graph));
    out.extend(knob_flow(ws));
    out.extend(lock_order(ws, graph));
    out.extend(dead_surface(ws, graph));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::symbols::{crate_of, FileEntry};

    fn build(files: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let ws = Workspace::build(
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
        );
        let graph = CallGraph::build(&ws);
        (ws, graph)
    }

    #[test]
    fn transitive_unwrap_is_reported_with_a_witness_path() {
        let (ws, g) = build(&[
            (
                "crates/sim/src/machine.rs",
                "impl Machine { pub fn exec_batch(&mut self) { self.translate(); }\n\
                 pub fn translate(&mut self) { deep(); } }",
            ),
            (
                "crates/sim/src/pagetable.rs",
                "pub fn deep() { let x: Option<u64> = None; x.unwrap(); }",
            ),
        ]);
        let v = panic_reachability(&ws, &g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "panic-reachability");
        assert_eq!(v[0].file, "crates/sim/src/pagetable.rs");
        assert!(v[0].message.contains("exec_batch"), "{}", v[0].message);
        assert!(v[0].message.contains("→"), "{}", v[0].message);
    }

    #[test]
    fn unreachable_panics_and_test_code_are_silent() {
        let (ws, g) = build(&[
            (
                "crates/sim/src/machine.rs",
                "impl Machine { pub fn exec_batch(&mut self) {} }",
            ),
            (
                "crates/sim/src/other.rs",
                "pub fn never_called() { panic!(\"fine\"); }\n\
                 #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
            ),
        ]);
        assert!(panic_reachability(&ws, &g).is_empty());
    }

    #[test]
    fn masked_indices_are_skipped_and_unmasked_group_per_fn() {
        let (ws, g) = build(&[(
            "crates/sim/src/machine.rs",
            "impl Machine { pub fn exec_batch(&mut self, v: &[u64], i: usize) -> u64 {\n\
               let a = v[i & 63];\n\
               let b = v[i];\n\
               let c = v[i + 1];\n\
               a + b + c\n\
             } }",
        )]);
        let v = panic_reachability(&ws, &g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1, "anchors at the fn line");
        assert!(v[0].message.contains("2 unmasked"), "{}", v[0].message);
        assert!(v[0].message.contains("line 3, 4"), "{}", v[0].message);
    }

    #[test]
    fn taint_flows_from_source_through_common_caller_into_sink() {
        let (ws, g) = build(&[
            (
                "crates/bench/src/table.rs",
                "impl Table { pub fn write_csv(&self) {} }",
            ),
            (
                "crates/bench/src/sweep.rs",
                "pub fn now_ms() -> u64 { let t = Instant::now(); 0 }",
            ),
            (
                "crates/bench/src/bin/fig.rs",
                "fn main() { let t = now_ms(); let tab = Table::new(); tab.write_csv(); }",
            ),
        ]);
        let v = determinism_taint(&ws, &g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/bench/src/sweep.rs");
        assert!(v[0].message.contains("wall-clock"), "{}", v[0].message);
        assert!(v[0].message.contains("write_csv"), "{}", v[0].message);
    }

    #[test]
    fn source_with_no_route_to_a_sink_is_silent() {
        let (ws, g) = build(&[
            (
                "crates/bench/src/table.rs",
                "impl Table { pub fn write_csv(&self) {} }",
            ),
            (
                "crates/bench/src/timing.rs",
                "pub fn stopwatch() { let t = Instant::now(); }",
            ),
        ]);
        assert!(determinism_taint(&ws, &g).is_empty());
    }

    #[test]
    fn knob_flow_resolves_consts_and_skips_the_registry_file() {
        let (ws, _) = build(&[
            (
                "crates/core/src/knobs.rs",
                "impl Knob { pub fn get(&self) { std::env::var(\"TMPROF_SCALE\"); } }",
            ),
            (
                "crates/obs/src/journal.rs",
                "pub const CAP_ENV: &str = \"TMPROF_OBS_JOURNAL\";\n\
                 fn cap() { let c = std::env::var(CAP_ENV); }",
            ),
            (
                "crates/sim/src/direct.rs",
                "fn f() { let v = std::env::var(\"TMPROF_SNEAKY\"); }",
            ),
            (
                "crates/sim/src/other_env.rs",
                "fn f() { let v = std::env::var(\"PATH\"); }",
            ),
        ]);
        let v = knob_flow(&ws);
        let files: Vec<&str> = v.iter().map(|x| x.file.as_str()).collect();
        assert_eq!(
            files,
            vec!["crates/obs/src/journal.rs", "crates/sim/src/direct.rs"],
            "{v:?}"
        );
        assert!(v[0].message.contains("TMPROF_OBS_JOURNAL"));
        assert!(v[0].message.contains("constant"));
    }

    #[test]
    fn cyclic_lock_order_is_flagged_at_both_witnesses() {
        let (ws, g) = build(&[(
            "crates/core/src/d.rs",
            "impl D {\n\
               fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
               fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n\
             }",
        )]);
        let v = lock_order(&ws, &g);
        let cyclic: Vec<&Violation> = v
            .iter()
            .filter(|x| x.message.contains("inconsistent"))
            .collect();
        assert_eq!(cyclic.len(), 2, "{v:?}");
    }

    #[test]
    fn consistent_lock_order_is_silent() {
        let (ws, g) = build(&[(
            "crates/core/src/d.rs",
            "impl D {\n\
               fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
               fn ab2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             }",
        )]);
        let v = lock_order(&ws, &g);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn interprocedural_lock_cycle_is_found() {
        let (ws, g) = build(&[(
            "crates/core/src/d.rs",
            "impl D {\n\
               fn takes_beta(&self) { let b = self.beta.lock(); }\n\
               fn ab(&self) { let a = self.alpha.lock(); self.takes_beta(); }\n\
               fn takes_alpha(&self) { let a = self.alpha.lock(); }\n\
               fn ba(&self) { let b = self.beta.lock(); self.takes_alpha(); }\n\
             }",
        )]);
        let v = lock_order(&ws, &g);
        assert!(
            v.iter().any(|x| x.message.contains("inconsistent")),
            "{v:?}"
        );
    }

    #[test]
    fn long_call_under_lock_is_flagged() {
        // Chain c1..c9 gives the called fn a transitive closure ≥ 8.
        let mut src = String::from("impl D { fn f(&self) { let g = self.state.lock(); c1(); } }\n");
        for i in 1..=9 {
            src.push_str(&format!("fn c{i}() {{ c{}(); }}\n", i + 1));
        }
        src.push_str("fn c10() {}\n");
        let (ws, g) = build(&[("crates/core/src/d.rs", src.as_str())]);
        let v = lock_order(&ws, &g);
        assert!(
            v.iter().any(|x| x.message.contains("held across call")),
            "{v:?}"
        );
    }

    fn dead(files: &[(&str, &str)]) -> Vec<String> {
        let (ws, g) = build(files);
        dead_surface(&ws, &g)
            .iter()
            .map(|v| v.message.split('`').nth(1).unwrap_or("").to_string())
            .collect()
    }

    const BIN: (&str, &str) = ("crates/sim/src/bin/run.rs", "fn main() { live(); }");

    #[test]
    fn fns_only_tests_and_benches_reach_are_dead_surface() {
        let v = dead(&[
            BIN,
            (
                "crates/sim/src/lib.rs",
                "pub fn live() {}\n\
                 pub fn unit_only() {}\n\
                 pub fn integration_only() {}\n\
                 pub fn bench_only() {}\n\
                 #[cfg(test)]\nmod tests { fn t() { unit_only(); } }",
            ),
            ("crates/sim/tests/it.rs", "fn t() { integration_only(); }"),
            ("crates/sim/benches/b.rs", "fn main() { bench_only(); }"),
        ]);
        assert_eq!(
            v,
            ["sim::unit_only", "sim::integration_only", "sim::bench_only"]
        );
    }

    #[test]
    fn reexports_fn_values_and_trait_methods_are_reached() {
        let v = dead(&[
            (
                "crates/cli/src/bin/tool.rs",
                "fn main() { tmprof_cli::dispatch(); }",
            ),
            (
                "crates/cli/src/commands.rs",
                "pub fn dispatch() { let t = [(\"p\", cmd_profile)]; keys().map(PageKey::pack); }\n\
                 pub fn cmd_profile() {}\n\
                 fn keys() {}",
            ),
            (
                "crates/sim/src/pagedesc.rs",
                "impl PageKey { pub fn pack(self) -> u64 { 0 } }\n\
                 impl Default for PageKey { fn default() -> Self { PageKey::zero() } }\n\
                 impl PageKey { pub fn zero() -> Self { PageKey } }\n\
                 pub trait Pack { fn packed(&self) -> u64 { helper() } }\n\
                 fn helper() -> u64 { 0 }",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_reasoned_allow_keeps_a_fn_and_what_only_it_calls() {
        let src = |directive: &str| {
            format!("pub fn live() {{}}\n{directive}\npub fn oracle() {{ helper(); }}\nfn helper() {{}}")
        };
        let kept = src("// tmprof-lint: allow(dead-surface) — the identity oracle of tests/x.rs");
        assert!(dead(&[BIN, ("crates/sim/src/lib.rs", &kept)]).is_empty());
        // A reasonless directive keeps nothing; the engine reports the
        // directive itself as `allow-directive`.
        let bare = src("// tmprof-lint: allow(dead-surface)");
        assert_eq!(
            dead(&[BIN, ("crates/sim/src/lib.rs", &bare)]),
            ["sim::oracle", "sim::helper"]
        );
    }

    #[test]
    fn an_allow_production_already_makes_unnecessary_is_reported() {
        let src = "// tmprof-lint: allow(dead-surface) — the identity oracle of tests/x.rs\n\
                   pub fn live() { helper(); }\n\
                   fn helper() {}\n\
                   // tmprof-lint: allow(dead-surface) — the value tests/x.rs pins\n\
                   pub fn oracle() {}";
        let (ws, g) = build(&[BIN, ("crates/sim/src/lib.rs", src)]);
        let v = dead_surface(&ws, &g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1, "anchors at the directive");
        assert!(
            v[0].message
                .starts_with("`sim::live` carries allow(dead-surface)"),
            "{v:?}"
        );
        assert!(
            v[0].message.contains("(sim::main → sim::live)"),
            "names the root: {v:?}"
        );
    }

    #[test]
    fn a_tree_without_roots_reports_nothing() {
        assert!(dead(&[("crates/sim/src/lib.rs", "pub fn orphan() {}")]).is_empty());
    }

    #[test]
    fn root_patterns_match_segments_and_subtrees() {
        assert!(matches_root_pattern(
            "crates/*/src/bin/",
            "crates/cli/src/bin/tmpctl.rs"
        ));
        assert!(matches_root_pattern(
            "crates/*/src/bin/",
            "crates/bench/src/bin/experiments/main.rs"
        ));
        assert!(!matches_root_pattern(
            "crates/*/src/bin/",
            "crates/cli/src/args.rs"
        ));
        assert!(matches_root_pattern(
            "crates/lint/src/main.rs",
            "crates/lint/src/main.rs"
        ));
        assert!(!matches_root_pattern(
            "crates/lint/src/main.rs",
            "crates/lint/src/main.rs.bak/x.rs"
        ));
        assert!(matches_root_pattern("perf/src/", "perf/src/drivers.rs"));
        assert!(!matches_root_pattern("perf/src/", "perf/tests/smoke.rs"));
    }
}
