//! The rule set: what each rule means, where it applies, and the token
//! patterns it flags.
//!
//! Every rule is scoped by *relative path* (forward-slash, rooted at the
//! workspace) so the same checks run identically against the real tree
//! and the fixture trees under `fixtures/`.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, TokenKind};

/// One finding. `line` is 1-based.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Rule names and one-line summaries, for `--help`-style output and for
/// validating `allow(...)` directives.
pub const RULES: &[(&str, &str)] = &[
    (
        "nondet-iter",
        "std HashMap/HashSet in deterministic crates; use KeyMap/KeySet/PageSet or BTreeMap",
    ),
    (
        "wall-clock",
        "Instant/SystemTime outside bench timing code; simulated time only",
    ),
    (
        "ambient-rng",
        "ambient randomness (thread_rng, RandomState, ...); use sim::rng with explicit seeds",
    ),
    (
        "float-rank",
        "float arithmetic in hotness ranking/stats paths; keep integer sums",
    ),
    (
        "knob-registry",
        "every TMPROF_* name must appear in the knob table in crates/core/src/knobs.rs",
    ),
    (
        "panic-reachability",
        "unwrap/expect/panic!/unmasked indexing transitively reachable from a hot entry point",
    ),
    (
        "determinism-taint",
        "wall clock/ambient RNG/hash iteration/thread IDs flowing into CSVs, rankings, or the obs journal",
    ),
    (
        "knob-flow",
        "env::var(TMPROF_*) reads (literal or const) outside the central knob registry",
    ),
    (
        "lock-order",
        "cyclic pairwise lock orders or locks held across long calls, via the call graph",
    ),
    (
        "dead-surface",
        "library fns no bin, example, perf/src driver or trait method reaches; tests alone keep nothing, and an allow production makes unnecessary is stale",
    ),
];

pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|&(n, _)| n == name)
}

/// Files whose ranking/statistics arithmetic must stay integral.
const FLOAT_RANK_FILES: &[&str] = &[
    "crates/core/src/rank.rs",
    "crates/sim/src/stats.rs",
    "crates/sim/src/pagedesc.rs",
];

/// Crates required to iterate deterministically.
fn in_deterministic_crate(rel: &str) -> bool {
    [
        "crates/sim/",
        "crates/profilers/",
        "crates/policy/",
        "crates/core/",
        "crates/workloads/",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

/// Run every rule over one lexed file. Returns raw candidates; the engine
/// applies `allow(...)` directives afterwards.
pub fn check_file(rel: &str, lexed: &Lexed, knob_registry: &BTreeSet<String>) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;

    // Integration tests (`crates/*/tests/*.rs`) compile without
    // `#[cfg(test)]`; treat the whole file as test code for the rules
    // that exempt tests.
    let test_file = rel.contains("/tests/");
    let in_test = |line: u32| test_file || lexed.in_test(line);

    let nondet = in_deterministic_crate(rel) && rel != "crates/sim/src/keymap.rs";
    let wall_clock = !rel.starts_with("crates/bench/") && !rel.starts_with("crates/lint/");
    let float_rank = FLOAT_RANK_FILES.contains(&rel);
    let knobs = rel != "crates/core/src/knobs.rs";

    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokenKind::Ident => {
                let name = t.text.as_str();
                if nondet && (name == "HashMap" || name == "HashSet") {
                    out.push(Violation {
                        rule: "nondet-iter",
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "std {name} iterates in a random order; use KeyMap/KeySet \
                             (sim::keymap) or BTreeMap when order is observable"
                        ),
                    });
                }
                if wall_clock && (name == "Instant" || name == "SystemTime") {
                    out.push(Violation {
                        rule: "wall-clock",
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "{name} reads the wall clock; outside bench code the simulator \
                             must run on simulated time only"
                        ),
                    });
                }
                if matches!(name, "thread_rng" | "from_entropy" | "RandomState")
                    || (name == "rand"
                        && is_punct(lexed, i + 1, ':')
                        && is_punct(lexed, i + 2, ':'))
                {
                    out.push(Violation {
                        rule: "ambient-rng",
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "{name} draws ambient entropy; route all randomness through \
                             sim::rng with an explicit seed"
                        ),
                    });
                }
                if float_rank && !in_test(t.line) && (name == "f32" || name == "f64") {
                    out.push(Violation {
                        rule: "float-rank",
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "{name} in a ranking/stats path; hotness ranking must stay an \
                             integer sum so ties break identically across runs"
                        ),
                    });
                }
            }
            TokenKind::NumLit if float_rank && !in_test(t.line) && t.text.contains('.') => {
                out.push(Violation {
                    rule: "float-rank",
                    file: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "float literal {} in a ranking/stats path; hotness ranking \
                         must stay an integer sum",
                        t.text
                    ),
                });
            }
            TokenKind::StrLit => {
                // tmprof-lint: allow(knob-registry) — this literal is the knob name prefix itself, not an env read
                let prefix = "TMPROF_";
                if knobs
                    && !in_test(t.line)
                    && t.text.starts_with(prefix)
                    && !knob_registry.contains(&t.text)
                {
                    out.push(Violation {
                        rule: "knob-registry",
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "\"{}\" is not registered in crates/core/src/knobs.rs; every \
                             tunable must appear in the documented knob table",
                            t.text
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

fn is_punct(lexed: &Lexed, i: usize, c: char) -> bool {
    lexed
        .tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(rel: &str, src: &str) -> Vec<Violation> {
        check_file(rel, &lex(src), &BTreeSet::new())
    }

    #[test]
    fn hashmap_flags_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(check("crates/sim/src/foo.rs", src).len(), 1);
        assert_eq!(check("crates/bench/src/foo.rs", src).len(), 0);
        assert_eq!(check("crates/sim/src/keymap.rs", src).len(), 0);
    }

    #[test]
    fn bare_unwrap_is_no_longer_a_lexical_concern() {
        // Panic checking moved to the call-graph panic-reachability pass
        // (crate::dataflow); the lexical rules stay silent on unwrap.
        let bare = "fn f(x: Option<u64>) -> u64 { x.unwrap() }";
        assert!(check("crates/sim/src/machine.rs", bare).is_empty());
    }

    #[test]
    fn registered_knob_names_pass() {
        let mut reg = BTreeSet::new();
        reg.insert("TMPROF_SCALE".to_string());
        let lexed = lex("let a = \"TMPROF_SCALE\"; let b = \"TMPROF_MYSTERY\";");
        let v = check_file("crates/bench/src/x.rs", &lexed, &reg);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("TMPROF_MYSTERY"));
    }

    #[test]
    fn float_rule_catches_literals_and_types() {
        let src = "pub fn score(n: u64) -> f64 { n as f64 * 0.5 }";
        let v = check("crates/core/src/rank.rs", src);
        assert_eq!(v.len(), 3); // f64, f64, 0.5
        assert!(check("crates/core/src/other.rs", src).is_empty());
    }
}
