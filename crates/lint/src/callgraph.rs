//! The cross-crate call graph, built on the workspace symbol table, with
//! the deterministic reachability machinery the dataflow passes share.
//!
//! Edges are produced by [`symbols::Workspace::resolve_call`]'s
//! conservative resolution, so the graph over-approximates real calls.
//! Everything here is deterministic: files are sorted, fn ids are
//! assigned in file order, and BFS frontiers are processed in id order —
//! two runs over the same tree produce byte-identical reports.

use crate::symbols::{FnId, Workspace};

/// One call edge, with the site that produced it.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub callee: FnId,
    /// Line of the call site in the caller's file.
    pub line: u32,
    /// Token index of the call site (orders sites within a body).
    pub tok: usize,
    /// True when the site resolved ambiguously (an unqualified method
    /// call matching several same-name fns — often a std method like
    /// `.map()`/`.get()` colliding with workspace names). Weak edges keep
    /// reachability conservative but are excluded from the transitive
    /// cost model so one `.get()` does not inherit the whole workspace.
    pub weak: bool,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Outgoing edges per fn, sorted by call-site token index.
    pub out: Vec<Vec<Edge>>,
}

impl CallGraph {
    pub fn build(ws: &Workspace) -> Self {
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); ws.fns.len()];
        for (id, slot) in out.iter_mut().enumerate() {
            let r = ws.fns[id];
            let item = ws.fn_item(id);
            if item.is_test {
                continue; // test code is outside the analysis
            }
            let mut edges = Vec::new();
            for call in &item.calls {
                let cands = ws.resolve_call(r.file, call);
                let weak = call.method && cands.len() > 1;
                for callee in cands {
                    if callee == id {
                        continue; // self-recursion adds nothing
                    }
                    edges.push(Edge {
                        callee,
                        line: call.line,
                        tok: call.tok,
                        weak,
                    });
                }
            }
            edges.sort_by_key(|e| (e.tok, e.callee));
            edges.dedup_by_key(|e| (e.tok, e.callee));
            *slot = edges;
        }
        CallGraph { out }
    }

    /// Fns reachable from `roots` (inclusive), with the BFS predecessor
    /// edge that first discovered each fn — `parent[f] = (caller, line)`
    /// reconstructs one deterministic witness path back to a root.
    pub fn reach_forward(&self, roots: &[FnId]) -> Reach {
        let n = self.out.len();
        let mut parent: Vec<Option<(FnId, u32)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut frontier: Vec<FnId> = roots.to_vec();
        frontier.sort_unstable();
        frontier.dedup();
        for &r in &frontier {
            seen[r] = true;
        }
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &f in &frontier {
                for e in &self.out[f] {
                    if !seen[e.callee] {
                        seen[e.callee] = true;
                        parent[e.callee] = Some((f, e.line));
                        next.push(e.callee);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        Reach { seen, parent }
    }

    /// Transitive callee set size per fn (used as the "long call"
    /// weight for the lock-order pass), over *strong* edges only, so an
    /// ambiguously-resolved `.get()` does not credit a fn with the whole
    /// workspace. Computed by forward BFS from each fn; the workspace is
    /// small enough that O(V·E) is well under the single-digit-seconds
    /// budget.
    pub fn closure_sizes(&self) -> Vec<usize> {
        let n = self.out.len();
        let mut sizes = vec![0usize; n];
        let mut seen = vec![u32::MAX; n];
        for (f, size) in sizes.iter_mut().enumerate() {
            let stamp = f as u32;
            let mut stack = vec![f];
            seen[f] = stamp;
            let mut count = 0usize;
            while let Some(g) = stack.pop() {
                for e in &self.out[g] {
                    if !e.weak && seen[e.callee] != stamp {
                        seen[e.callee] = stamp;
                        count += 1;
                        stack.push(e.callee);
                    }
                }
            }
            *size = count;
        }
        sizes
    }

    /// Locks (by receiver name) transitively acquired by each fn,
    /// including its own: `fn → sorted receiver names`.
    pub fn transitive_locks(&self, ws: &Workspace) -> Vec<Vec<String>> {
        let n = self.out.len();
        // Fixed-point over the condensed graph would be fancier; a
        // simple iterate-until-stable loop converges in a few rounds on
        // an acyclic-ish graph this size.
        let mut acc: Vec<Vec<String>> = (0..n)
            .map(|id| {
                let mut v: Vec<String> = ws
                    .fn_item(id)
                    .locks
                    .iter()
                    .map(|l| l.recv.clone())
                    .collect();
                v.sort();
                v.dedup();
                v
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                let mut merged = acc[id].clone();
                for e in &self.out[id] {
                    if e.weak {
                        continue; // ambiguous resolution — don't smear lock sets
                    }
                    for r in &acc[e.callee] {
                        if !merged.contains(r) {
                            merged.push(r.clone());
                        }
                    }
                }
                merged.sort();
                if merged != acc[id] {
                    acc[id] = merged;
                    changed = true;
                }
            }
            if !changed {
                return acc;
            }
        }
    }

    /// Deterministic dump of every edge, for `--graph`.
    pub fn dump(&self, ws: &Workspace) -> String {
        let mut lines = Vec::new();
        for (f, edges) in self.out.iter().enumerate() {
            for e in edges {
                lines.push(format!(
                    "{} -> {} @ {}:{}",
                    ws.qual_name(f),
                    ws.qual_name(e.callee),
                    ws.fn_file(f).rel,
                    e.line
                ));
            }
        }
        lines.sort();
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }
}

/// A reachability result with witness-path reconstruction.
pub struct Reach {
    pub seen: Vec<bool>,
    parent: Vec<Option<(FnId, u32)>>,
}

impl Reach {
    pub fn contains(&self, f: FnId) -> bool {
        self.seen.get(f).copied().unwrap_or(false)
    }

    /// Witness chain root → … → `f` as qualified names, e.g.
    /// `sim::Machine::exec_batch → sim::Machine::translate`.
    pub fn path_to(&self, ws: &Workspace, f: FnId) -> String {
        let mut chain = vec![f];
        let mut cur = f;
        while let Some((p, _)) = self.parent[cur] {
            chain.push(p);
            cur = p;
            if chain.len() > 64 {
                break; // cycle guard; paths are witness BFS trees, so this should not happen
            }
        }
        chain.reverse();
        chain
            .iter()
            .map(|&id| ws.qual_name(id))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::symbols::{crate_of, FileEntry};

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

    fn id_of(w: &Workspace, name: &str) -> FnId {
        (0..w.fns.len())
            .find(|&i| w.fn_item(i).name == name)
            .unwrap()
    }

    #[test]
    fn reachability_follows_cross_file_edges() {
        let w = ws(&[
            (
                "crates/sim/src/machine.rs",
                "impl Machine { pub fn exec_batch(&mut self) { self.translate(); }\n\
                 pub fn translate(&mut self) { walk_to(); } }",
            ),
            (
                "crates/sim/src/pagetable.rs",
                "pub fn walk_to() {}\npub fn unrelated() {}",
            ),
        ]);
        let g = CallGraph::build(&w);
        let r = g.reach_forward(&[id_of(&w, "exec_batch")]);
        assert!(r.contains(id_of(&w, "walk_to")));
        assert!(!r.contains(id_of(&w, "unrelated")));
        let path = r.path_to(&w, id_of(&w, "walk_to"));
        assert_eq!(
            path,
            "sim::Machine::exec_batch → sim::Machine::translate → sim::walk_to"
        );
    }

    #[test]
    fn cycles_terminate() {
        let w = ws(&[(
            "crates/sim/src/a.rs",
            "fn a() { b(); } fn b() { a(); c(); } fn c() {}",
        )]);
        let g = CallGraph::build(&w);
        let r = g.reach_forward(&[id_of(&w, "a")]);
        assert!(r.contains(id_of(&w, "c")));
        assert_eq!(g.closure_sizes()[id_of(&w, "a")], 2);
    }

    #[test]
    fn transitive_locks_accumulate_through_calls() {
        let w = ws(&[(
            "crates/core/src/d.rs",
            "impl D { fn low(&self) { let g = self.state.lock(); drop(g); }\n\
             fn high(&self) { self.low(); } }",
        )]);
        let g = CallGraph::build(&w);
        let tl = g.transitive_locks(&w);
        assert_eq!(tl[id_of(&w, "high")], vec!["state".to_string()]);
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let w = ws(&[(
            "crates/sim/src/a.rs",
            "fn a() { b(); c(); } fn b() {} fn c() {}",
        )]);
        let g = CallGraph::build(&w);
        let d1 = g.dump(&w);
        let d2 = g.dump(&w);
        assert_eq!(d1, d2);
        assert!(d1.contains("sim::a -> sim::b @ crates/sim/src/a.rs:1"));
    }
}
