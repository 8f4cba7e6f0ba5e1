//! `tmprof-lint` — workspace-level static analysis for the tmprof
//! workspace: a determinism/hot-path linter grown into a small dataflow
//! engine.
//!
//! The simulator's headline claim is bit-for-bit reproducibility: the
//! same binary, seed, and knobs must produce byte-identical CSVs. Some
//! regressions against that claim are *syntactically visible* (a std
//! `HashMap` whose iteration order leaks into output, a float creeping
//! into the hotness ranking); others are only visible *across function
//! and crate boundaries* — an `unwrap` three calls below `exec_batch`, a
//! wall-clock read whose value flows into a results CSV, an `env::var`
//! read that bypasses the knob registry, two locks taken in opposite
//! orders in different modules. This crate catches both kinds without
//! external dependencies:
//!
//! ```text
//! lexer (lexer.rs)            tokens, allow-directives, #[cfg(test)] spans
//!   → item parser (parser.rs) fn items, impl owners, call/panic/lock/
//!                             taint-source/env-read sites
//!   → symbol table (symbols.rs) workspace fn index, conservative call
//!                               resolution, string-const table
//!   → call graph (callgraph.rs) edges + deterministic reachability
//!   → passes (rules.rs, dataflow.rs)
//! ```
//!
//! Lexical rules (per file, see [`rules::RULES`]):
//!
//! * `nondet-iter` — no std `HashMap`/`HashSet` in the deterministic
//!   crates (sim, profilers, policy, core, workloads); use
//!   `sim::keymap::{KeyMap, KeySet, PageSet}` or `BTreeMap`.
//! * `wall-clock` — no `Instant`/`SystemTime` outside `crates/bench`.
//! * `ambient-rng` — all randomness flows through `sim::rng` with an
//!   explicit seed; no `thread_rng`/`RandomState`/`from_entropy`.
//! * `float-rank` — hotness ranking and stats stay integer sums.
//! * `knob-registry` — every `TMPROF_*` name appears in the central knob
//!   table (`crates/core/src/knobs.rs`).
//!
//! Workspace passes (whole-program, on the call graph, see
//! [`dataflow`]):
//!
//! * `panic-reachability` — `unwrap`/`expect`/`panic!`/unmasked indexing
//!   in any fn transitively reachable from a hot entry point
//!   (`exec_batch`, the A-bit scans, epoch close, ranking). Replaces the
//!   old file-scoped `panic-hot-path` rule.
//! * `determinism-taint` — nondeterminism sources (wall clock, ambient
//!   RNG, std hash iteration, thread IDs) must not flow, via the call
//!   graph, into determinism sinks (result CSVs, hotness rankings, the
//!   obs journal).
//! * `knob-flow` — every `env::var("TMPROF_*")` read, whether the name
//!   is a literal or a named const, happens in the knob registry file;
//!   resolved by dataflow, not string matching.
//! * `lock-order` — pairwise lock-acquisition orders must be acyclic
//!   across the whole workspace, and no lock is held across a call with
//!   a large transitive footprint.
//! * `dead-surface` — every non-test library fn is reached from a
//!   production root: the bins, `examples/`, `perf/src` (read only as
//!   roots) or a trait method body. Code only tests or benches call is
//!   deleted, moved into its test, or annotated with what it serves.
//!
//! A finding is suppressed only by an explicit, reasoned annotation on
//! (or directly above) the offending line:
//!
//! ```text
//! // tmprof-lint: allow(panic-reachability) — walk_to descends interior nodes only
//! ```
//!
//! The reason is mandatory; a reasonless or misspelled directive is
//! itself reported (rule `allow-directive`) and suppresses nothing.
//! Pre-existing findings can be parked in a committed baseline file
//! (`--baseline`), which reports them without failing the run; the
//! workspace's own baseline is kept empty.

pub mod callgraph;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
