//! Golden-fixture tests: each lexical rule must fire on its violating
//! fixture and stay silent on the clean twin; each workspace pass has
//! its own violating/clean tree pair under `fixtures/passes/`; and the
//! real workspace must be clean modulo the committed baseline.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tmprof_lint::rules::Violation;
use tmprof_lint::symbols::Workspace;
use tmprof_lint::{dataflow, engine};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn lint(root: &Path) -> Vec<Violation> {
    engine::run(root).expect("fixture tree lints").violations
}

fn rules_hit(violations: &[Violation]) -> BTreeSet<&str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn violating_tree_trips_every_rule() {
    let violations = lint(&fixture_root("violating"));
    let hit = rules_hit(&violations);
    for rule in [
        "nondet-iter",
        "wall-clock",
        "ambient-rng",
        "panic-reachability",
        "float-rank",
        "knob-registry",
        "allow-directive",
    ] {
        assert!(
            hit.contains(rule),
            "rule {rule} did not fire: {violations:#?}"
        );
    }
}

#[test]
fn violating_tree_attributes_findings_to_the_right_files() {
    let violations = lint(&fixture_root("violating"));
    let pairs: BTreeSet<(&str, &str)> = violations
        .iter()
        .map(|v| (v.file.as_str(), v.rule))
        .collect();
    for expected in [
        ("crates/sim/src/nondet.rs", "nondet-iter"),
        ("crates/core/src/clock.rs", "wall-clock"),
        ("crates/policy/src/rng.rs", "ambient-rng"),
        ("crates/sim/src/machine.rs", "panic-reachability"),
        ("crates/sim/src/pagetable.rs", "panic-reachability"),
        ("crates/core/src/rank.rs", "float-rank"),
        ("crates/bench/src/scale.rs", "knob-registry"),
        ("crates/sim/src/badallow.rs", "allow-directive"),
    ] {
        assert!(
            pairs.contains(&expected),
            "missing {expected:?}: {violations:#?}"
        );
    }
}

#[test]
fn reasonless_allow_does_not_suppress_the_underlying_finding() {
    let violations = lint(&fixture_root("violating"));
    // Line 3 carries the reasonless allow, line 4 the HashMap it failed
    // to suppress; the *reasoned* directive later in the file works.
    assert!(violations
        .iter()
        .any(|v| v.file == "crates/sim/src/badallow.rs"
            && v.rule == "allow-directive"
            && v.line == 3));
    assert!(violations
        .iter()
        .any(|v| v.file == "crates/sim/src/badallow.rs" && v.rule == "nondet-iter" && v.line == 4));
    assert!(!violations
        .iter()
        .any(|v| v.file == "crates/sim/src/badallow.rs" && v.line == 8));
}

#[test]
fn test_code_unwrap_is_exempt_from_panic_reachability() {
    let violations = lint(&fixture_root("violating"));
    // machine.rs has an unwrap inside #[cfg(test)]; only the non-test
    // unwrap (line 4) and panic (line 6), both reachable from the
    // exec_batch entry beside them, may fire.
    let machine: Vec<u32> = violations
        .iter()
        .filter(|v| v.file == "crates/sim/src/machine.rs")
        .map(|v| v.line)
        .collect();
    assert_eq!(machine, vec![4, 6], "{violations:#?}");
}

#[test]
fn bench_wall_clock_is_exempt_even_in_the_violating_tree() {
    let violations = lint(&fixture_root("violating"));
    assert!(!violations
        .iter()
        .any(|v| v.file == "crates/bench/src/scale.rs" && v.rule == "wall-clock"));
}

#[test]
fn clean_tree_is_clean() {
    let violations = lint(&fixture_root("clean"));
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn knob_registry_is_read_from_the_fixture_knob_table() {
    let reg = engine::build_knob_registry(&fixture_root("violating"));
    assert!(reg.contains("TMPROF_SCALE"));
    assert!(!reg.contains("TMPROF_UNDOCUMENTED"));
}

// --- per-pass fixture trees -------------------------------------------

/// Each workspace pass has a dedicated violating/clean tree pair; the
/// violating tree must produce findings for exactly that rule, and the
/// clean twin none at all.
fn check_pass(rule: &str, expect: usize) {
    let violating = lint(&fixture_root(&format!("passes/{rule}/violating")));
    assert_eq!(
        violating.len(),
        expect,
        "passes/{rule}/violating: {violating:#?}"
    );
    assert!(
        violating.iter().all(|v| v.rule == rule),
        "passes/{rule}/violating tripped other rules: {violating:#?}"
    );
    let clean = lint(&fixture_root(&format!("passes/{rule}/clean")));
    assert!(clean.is_empty(), "passes/{rule}/clean: {clean:#?}");
}

#[test]
fn panic_reachability_pass_fixtures() {
    // One per-site unwrap finding plus one grouped unmasked-index
    // finding anchored at the helper's fn line.
    check_pass("panic-reachability", 2);
    let v = lint(&fixture_root("passes/panic-reachability/violating"));
    assert!(
        v.iter()
            .any(|x| x.message.contains("exec_batch") && x.message.contains("→")),
        "witness path missing: {v:#?}"
    );
}

#[test]
fn determinism_taint_pass_fixtures() {
    check_pass("determinism-taint", 1);
    let v = lint(&fixture_root("passes/determinism-taint/violating"));
    assert_eq!(v[0].file, "crates/bench/src/sweep.rs");
    assert!(v[0].message.contains("write_csv"), "{}", v[0].message);
}

#[test]
fn knob_flow_pass_fixtures() {
    check_pass("knob-flow", 1);
    let v = lint(&fixture_root("passes/knob-flow/violating"));
    assert_eq!(v[0].file, "crates/sim/src/direct.rs");
    assert!(
        v[0].message.contains("TMPROF_SNEAKY") && v[0].message.contains("constant"),
        "{}",
        v[0].message
    );
}

#[test]
fn lock_order_pass_fixtures() {
    // Both witnesses of the cyclic pair are reported.
    check_pass("lock-order", 2);
    let v = lint(&fixture_root("passes/lock-order/violating"));
    assert!(
        v.iter().all(|x| x.message.contains("inconsistent")),
        "{v:#?}"
    );
}

#[test]
fn dead_surface_pass_fixtures() {
    // Reached only from a unit test, a bench, an integration test, and
    // from nothing, plus an allow on `Page::key`, which `cmd_profile`
    // reaches. The crate-root call, the fn values and the trait method in
    // the same tree keep everything else live.
    check_pass("dead-surface", 5);
    let v = lint(&fixture_root("passes/dead-surface/violating"));
    let names: Vec<&str> = v
        .iter()
        .map(|x| x.message.split('`').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(
        names,
        [
            "sim::Page::key",
            "sim::Page::doubled",
            "sim::bench_only",
            "sim::integration_only",
            "sim::never_called"
        ],
        "{v:#?}"
    );
}

// --- the real workspace -----------------------------------------------

#[test]
fn workspace_self_check_is_clean_modulo_baseline() {
    let root = workspace_root();
    let mut report = engine::run(&root).expect("workspace lints");
    let baseline = engine::load_baseline(&root.join("lint-baseline.txt")).expect("baseline reads");
    let stale = report.apply_baseline(&baseline);
    assert!(stale.is_empty(), "stale baseline entries: {stale:#?}");
    assert!(
        report.violations.is_empty(),
        "the workspace must stay lint-clean modulo the committed baseline: {:#?}",
        report.violations
    );
    // The baseline may park lock-order findings, but the panic, knob and
    // dead-surface passes are burned down to zero — keep them there.
    for v in &report.baselined {
        assert!(
            !matches!(v.rule, "panic-reachability" | "knob-flow" | "dead-surface"),
            "the {} baseline must stay empty: {v:#?}",
            v.rule
        );
    }
    // Sanity: the walk actually covered the tree, not an empty dir.
    assert!(report.files_checked > 50, "{}", report.files_checked);
}

#[test]
fn every_registered_hot_entry_and_sink_names_a_real_fn() {
    // A renamed or deleted fn would leave a registry entry that matches
    // nothing, silently dropping its root from panic-reachability or
    // determinism-taint.
    let ws = engine::analyze(&workspace_root())
        .expect("workspace analyzes")
        .ws;
    for &(file, name) in dataflow::HOT_ENTRIES {
        assert!(
            defines_live_fn(&ws, file, name),
            "HOT_ENTRIES ({file}, {name}) matches no fn"
        );
    }
    for &(file, name, _) in dataflow::TAINT_SINKS {
        assert!(
            defines_live_fn(&ws, file, name),
            "TAINT_SINKS ({file}, {name}) matches no fn"
        );
    }
}

/// Whether `file` defines a non-test fn called `name`.
fn defines_live_fn(ws: &Workspace, file: &str, name: &str) -> bool {
    (0..ws.fns.len()).any(|id| {
        let item = ws.fn_item(id);
        !item.is_test && item.name == name && ws.fn_file(id).rel == file
    })
}

#[test]
fn workspace_report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = engine::run(&root).expect("first run").to_json();
    let b = engine::run(&root).expect("second run").to_json();
    assert_eq!(a, b);
}

#[test]
fn rules_readme_and_pass_fixtures_stay_in_sync() {
    let root = workspace_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    for (name, _) in tmprof_lint::rules::RULES {
        assert!(
            readme.contains(name),
            "rule `{name}` is not documented in README.md"
        );
    }
    let rule_names: BTreeSet<&str> = tmprof_lint::rules::RULES.iter().map(|&(n, _)| n).collect();
    let passes_dir = fixture_root("passes");
    let mut pass_dirs = BTreeSet::new();
    for entry in std::fs::read_dir(&passes_dir).expect("fixtures/passes") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 dir name");
        assert!(
            rule_names.contains(name.as_str()),
            "fixtures/passes/{name} does not match any rule in rules::RULES"
        );
        for half in ["violating", "clean"] {
            assert!(
                entry.path().join(half).is_dir(),
                "fixtures/passes/{name}/{half} is missing"
            );
        }
        pass_dirs.insert(name);
    }
    for pass in [
        "panic-reachability",
        "determinism-taint",
        "knob-flow",
        "lock-order",
        "dead-surface",
    ] {
        assert!(
            pass_dirs.contains(pass),
            "workspace pass {pass} has no fixture tree"
        );
    }
    // A root pattern that matches no file (a renamed `perf/src`, a moved
    // bin directory) would silently drop its roots from dead-surface.
    let ws = engine::analyze(&root).expect("workspace analyzes").ws;
    for pattern in dataflow::DEAD_SURFACE_ROOTS {
        assert!(
            ws.files
                .iter()
                .any(|f| dataflow::matches_root_pattern(pattern, &f.rel)),
            "dead-surface root pattern {pattern} matches no workspace file"
        );
    }
    // Every hot entry point must still name a non-test fn.
    for &(file, name) in dataflow::HOT_ENTRIES {
        assert!(
            defines_live_fn(&ws, file, name),
            "HOT_ENTRIES ({file}, {name}) matches no non-test fn"
        );
    }
}
