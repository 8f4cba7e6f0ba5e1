//! CLI for `tmprof-lint`. See the library docs for the rule set.
//!
//! Usage: `tmprof-lint [--root <dir>] [--json] [--graph]
//!                     [--baseline <file>] [--write-baseline <file>]`
//!
//! Exit status: 0 when the tree is clean (baselined findings do not
//! count), 1 when violations were found or a `--baseline` entry matches
//! no finding, 2 on usage or I/O errors — so `cargo run -p tmprof-lint`
//! gates CI.

use std::path::PathBuf;
use std::process::ExitCode;

use tmprof_lint::{engine, rules};

fn main() -> ExitCode {
    let mut json = false;
    let mut graph = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--graph" => graph = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("tmprof-lint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("tmprof-lint: --baseline needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("tmprof-lint: --write-baseline needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("tmprof-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("tmprof-lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match engine::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "tmprof-lint: no workspace Cargo.toml above {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let analysis = match engine::analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tmprof-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = analysis.report;

    if graph {
        print!("{}", analysis.graph.dump(&analysis.ws));
        return ExitCode::SUCCESS;
    }

    let mut stale = Vec::new();
    if let Some(path) = &baseline {
        let keys = match engine::load_baseline(path) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("tmprof-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        stale = report.apply_baseline(&keys);
    }

    if let Some(path) = &write_baseline {
        if let Err(e) = std::fs::write(path, report.baseline_text()) {
            eprintln!("tmprof-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "tmprof-lint: wrote {} baseline entr{} to {}",
            report.violations.len() + report.baselined.len(),
            if report.violations.len() + report.baselined.len() == 1 {
                "y"
            } else {
                "ies"
            },
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if json {
        println!("{}", report.to_json());
    } else if report.is_clean() {
        println!(
            "tmprof-lint: clean ({} files, {} fns, {} call edges{})",
            report.files_checked,
            report.fns,
            report.edges,
            if report.baselined.is_empty() {
                String::new()
            } else {
                format!(", {} baselined finding(s)", report.baselined.len())
            }
        );
    } else {
        for v in &report.violations {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        println!(
            "tmprof-lint: {} violation(s) in {} files checked",
            report.violations.len(),
            report.files_checked
        );
    }

    for entry in &stale {
        eprintln!("tmprof-lint: stale baseline entry matches no finding (delete it): {entry}");
    }

    if report.is_clean() && stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_help() {
    println!("tmprof-lint: determinism & hot-path static analysis for the tmprof workspace");
    println!();
    println!("usage: tmprof-lint [--root <dir>] [--json] [--graph]");
    println!("                   [--baseline <file>] [--write-baseline <file>]");
    println!();
    println!(
        "  --root <dir>            workspace root (default: ascend to [workspace] Cargo.toml)"
    );
    println!("  --json                  machine-readable output");
    println!(
        "  --graph                 dump the resolved call graph (caller -> callee @ site) and exit"
    );
    println!("  --baseline <file>       park findings listed in <file>: reported, but exit 0;");
    println!("                          an entry matching no finding fails the run");
    println!("  --write-baseline <file> write the current findings as a baseline and exit");
    println!();
    println!("rules:");
    for (name, desc) in rules::RULES {
        println!("  {name:<20} {desc}");
    }
    println!();
    println!("suppress a finding (reason mandatory):");
    println!("  // tmprof-lint: allow(<rule>) — <reason>");
}
