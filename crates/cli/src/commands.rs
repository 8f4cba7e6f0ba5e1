//! `tmpctl` subcommand implementations.
//!
//! The paper's fourth contribution is "a profiling tool as an upgradable
//! solution": this is that tool's command-line face over the simulated
//! stack. Every subcommand returns its report as a `String` so the logic
//! is unit-testable; `main` only prints.

use tmprof_bench::harness::{run_workload, ProfMode, RunOptions};
use tmprof_bench::heatmap::Heatmap;
use tmprof_bench::scale::Scale;
use tmprof_bench::table::{f, pct, Table};
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{replay_hitrate, ReplayPolicy, PAPER_RATIOS};
use tmprof_workloads::spec::WorkloadKind;

use crate::args::{ArgError, Parsed};

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    Args(ArgError),
    UnknownCommand(String),
    UnknownWorkload(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(fmt, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(fmt, "unknown command {c:?} (try `tmpctl help`)")
            }
            CliError::UnknownWorkload(w) => {
                write!(fmt, "unknown workload {w:?} (try `tmpctl workloads`)")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Resolve a workload name (case/punctuation-insensitive).
pub fn workload_by_name(name: &str) -> Result<WorkloadKind, CliError> {
    let needle = name.to_lowercase().replace(['-', '_'], "");
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name().to_lowercase().replace('-', "") == needle)
        .ok_or_else(|| CliError::UnknownWorkload(name.to_string()))
}

fn options_from(parsed: &Parsed) -> Result<(WorkloadKind, RunOptions), CliError> {
    let kind = workload_by_name(parsed.get("workload").unwrap_or("gups"))?;
    let mut scale = Scale::from_env();
    scale.epochs = parsed.get_positive("epochs", scale.epochs)?;
    scale.ops_per_epoch = parsed.get_positive("ops", scale.ops_per_epoch)?;
    let mut opts = RunOptions::new(scale)
        .dense()
        .with_rate(parsed.get_positive("rate", 4)?);
    if parsed.switch("thp") {
        opts = opts.with_thp();
    }
    if parsed.switch("pebs") {
        opts.pebs = true;
    }
    opts.mode = match parsed.get_choice("mode", &["both", "abit", "trace", "none"])? {
        "abit" => ProfMode::ABitOnly,
        "trace" => ProfMode::TraceOnly,
        "none" => ProfMode::None,
        _ => ProfMode::Both,
    };
    Ok((kind, opts))
}

/// The flags every command that profiles a workload takes.
const RUN_FLAGS: [&str; 7] = ["workload", "rate", "mode", "epochs", "ops", "thp", "pebs"];

/// `tmpctl workloads` — list the Table III suite.
pub fn cmd_workloads() -> String {
    let mut table = Table::new(vec!["name", "suite", "paper input", "procs", "pages/proc"]);
    for kind in WorkloadKind::ALL {
        let cfg = kind.default_config();
        table.row(vec![
            kind.name().to_string(),
            kind.suite().to_string(),
            kind.paper_input().to_string(),
            cfg.processes.to_string(),
            cfg.footprint_pages.to_string(),
        ]);
    }
    table.render()
}

/// `tmpctl profile --workload W [--rate N] [--mode both|abit|trace] [--thp]`
pub fn cmd_profile(parsed: &Parsed) -> Result<String, CliError> {
    let (kind, opts) = options_from(parsed)?;
    let run = run_workload(kind, &opts);
    let mut out = String::new();
    out.push_str(&format!(
        "profiled {} for {} epochs (IBS {}x{}{})\n\n",
        kind.name(),
        run.epochs,
        opts.rate,
        if opts.pebs { ", PEBS" } else { "" },
        if opts.thp { ", THP" } else { "" },
    ));
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "pages detected by A-bit".to_string(),
        run.detection.abit.to_string(),
    ]);
    table.row(vec![
        "pages detected by IBS".to_string(),
        run.detection.trace.to_string(),
    ]);
    table.row(vec![
        "both (same epoch)".to_string(),
        run.detection.both.to_string(),
    ]);
    table.row(vec![
        "LLC misses".to_string(),
        run.counts.llc_misses.to_string(),
    ]);
    table.row(vec![
        "page walks".to_string(),
        run.counts.ptw_walks.to_string(),
    ]);
    table.row(vec![
        "profiling overhead".to_string(),
        pct(run.counts.profiling_overhead()),
    ]);
    out.push_str(&table.render());
    Ok(out)
}

/// `tmpctl heatmap --workload W [--source ibs|abit] [--buckets N]`
pub fn cmd_heatmap(parsed: &Parsed) -> Result<String, CliError> {
    let (kind, opts) = options_from(parsed)?;
    let source = parsed.get_choice("source", &["ibs", "abit"])?;
    let buckets = parsed.get_positive("buckets", 24usize)?;
    let run = run_workload(kind, &opts.recording());
    let points = if source == "abit" {
        run.heat_abit.clone()
    } else {
        run.heat_trace.clone()
    };
    let hm = Heatmap::build(points, run.epochs as usize, run.total_frames, buckets);
    Ok(format!(
        "{} heatmap of {} ({} observations)\n{}",
        if source == "abit" { "A-bit" } else { "IBS" },
        kind.name(),
        hm.total(),
        hm.render_ascii()
    ))
}

/// `tmpctl hitrate --workload W [--ratio-denoms 8,16,...]`
pub fn cmd_hitrate(parsed: &Parsed) -> Result<String, CliError> {
    let (kind, opts) = options_from(parsed)?;
    let denoms = parsed
        .get_positive_list("ratio-denoms")?
        .unwrap_or_else(|| PAPER_RATIOS.to_vec());
    let run = run_workload(kind, &opts);
    let footprint = run.log.footprint_pages().max(1);
    let mut table = Table::new(vec![
        "tier1 ratio",
        "Oracle/TMP",
        "History/TMP",
        "History/A-bit",
        "History/IBS",
        "First-touch",
    ]);
    for denom in denoms {
        let cap = (footprint / denom as usize).max(1);
        table.row(vec![
            format!("1/{denom}"),
            pct(replay_hitrate(
                &run.log,
                ReplayPolicy::Oracle,
                RankSource::Combined,
                cap,
            )),
            pct(replay_hitrate(
                &run.log,
                ReplayPolicy::History,
                RankSource::Combined,
                cap,
            )),
            pct(replay_hitrate(
                &run.log,
                ReplayPolicy::History,
                RankSource::ABit,
                cap,
            )),
            pct(replay_hitrate(
                &run.log,
                ReplayPolicy::History,
                RankSource::Trace,
                cap,
            )),
            pct(replay_hitrate(
                &run.log,
                ReplayPolicy::FirstTouch,
                RankSource::Combined,
                cap,
            )),
        ]);
    }
    Ok(format!(
        "tier-1 hitrate for {} (footprint {} pages)\n{}",
        kind.name(),
        footprint,
        table.render()
    ))
}

/// `tmpctl emulate --workload W [--ratio N]` — §VI-C speedup for one
/// workload (fast:slow = 1:N).
pub fn cmd_emulate(parsed: &Parsed) -> Result<String, CliError> {
    use tmprof_core::profiler::TmpConfig;
    use tmprof_emul::emulator::EmulConfig;
    use tmprof_emul::experiment::{emulation_machine, run_emulated, speedup, EmulPolicy};
    use tmprof_sim::runner::OpStream;
    use tmprof_sim::tlb::Pid;

    let kind = workload_by_name(parsed.get("workload").unwrap_or("datacaching"))?;
    let slow_ratio = parsed.get_positive("ratio", 15u64)?;
    let scale = Scale::from_env();
    let one = |policy: EmulPolicy| {
        let cfg = tmprof_bench::harness::scaled_config(kind, &scale).scaled_footprint(1, 2);
        let total = cfg.total_pages();
        let t2 = total * 2;
        let t1 = (t2 / slow_ratio).max(64);
        let mut machine = emulation_machine(scale.cores, t1, t2, scale.base_period / 4);
        let mut gens = cfg.spawn();
        let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
        for &pid in &pids {
            machine.add_process(pid);
        }
        let mut streams: Vec<(Pid, &mut dyn OpStream)> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
            .collect();
        run_emulated(
            &mut machine,
            &mut streams,
            policy,
            EmulConfig::default(),
            TmpConfig::paper_defaults(scale.base_period),
            scale.epochs,
            scale.ops_per_epoch / 2,
        )
    };
    let base = one(EmulPolicy::FirstTouch);
    let opt = one(EmulPolicy::TmpHistory);
    let mut table = Table::new(vec!["metric", "first-touch", "TMP+History"]);
    table.row(vec![
        "tier-1 hitrate".to_string(),
        pct(base.tier1_hitrate),
        pct(opt.tier1_hitrate),
    ]);
    table.row(vec![
        "slow faults".to_string(),
        base.slow_faults.to_string(),
        opt.slow_faults.to_string(),
    ]);
    table.row(vec![
        "migrations".to_string(),
        base.migrations.to_string(),
        opt.migrations.to_string(),
    ]);
    Ok(format!(
        "NVM-emulated run of {} (fast:slow = 1:{slow_ratio})\n{}\nspeedup: {}x\n",
        kind.name(),
        table.render(),
        f(speedup(&base, &opt), 3)
    ))
}

/// `tmpctl metrics --workload W [...] [--csv|--json]` — profile one
/// workload, then dump the observability counters it left behind.
pub fn cmd_metrics(parsed: &Parsed) -> Result<String, CliError> {
    let (kind, opts) = options_from(parsed)?;
    tmprof_obs::metrics::reset();
    let run = run_workload(kind, &opts);
    let snap = tmprof_obs::metrics::Snapshot::take();
    if parsed.switch("csv") {
        return Ok(snap.to_csv());
    }
    if parsed.switch("json") {
        return Ok(snap.to_json());
    }
    let mut out = format!(
        "observability counters after profiling {} for {} epochs\n\n",
        kind.name(),
        run.epochs
    );
    if !tmprof_obs::ENABLED {
        out.push_str("(observability compiled out: obs-off build)\n");
        return Ok(out);
    }
    let mut table = Table::new(vec!["metric", "value", "what"]);
    for (m, v) in snap.iter_nonzero() {
        table.row(vec![
            m.name().to_string(),
            v.to_string(),
            m.help().to_string(),
        ]);
    }
    out.push_str(&table.render());
    Ok(out)
}

/// `tmpctl journal --workload W [--cap N] [...] [--csv|--json]` — profile
/// one workload and dump the event journal it produced.
pub fn cmd_journal(parsed: &Parsed) -> Result<String, CliError> {
    let cap = parsed.get_u64("cap", tmprof_obs::journal::DEFAULT_CAPACITY as u64)? as usize;
    tmprof_obs::journal::set_capacity(cap);
    let (kind, opts) = options_from(parsed)?;
    let run = run_workload(kind, &opts);
    if parsed.switch("csv") {
        return Ok(tmprof_obs::journal::to_csv());
    }
    if parsed.switch("json") {
        return Ok(tmprof_obs::journal::to_json());
    }
    let mut out = format!(
        "event journal after profiling {} for {} epochs\n",
        kind.name(),
        run.epochs
    );
    if !tmprof_obs::ENABLED {
        out.push_str("(observability compiled out: obs-off build)\n");
        return Ok(out);
    }
    out.push_str(&tmprof_obs::journal::dump());
    Ok(out)
}

/// `tmpctl knobs`: the registered `TMPROF_*` environment knobs and their
/// current values.
pub fn cmd_knobs() -> String {
    let mut out = String::from("Environment knobs (tmprof_core::knobs):\n\n");
    for k in tmprof_core::knobs::ALL {
        let current = k
            .get()
            .map(|v| format!("set to {v:?}"))
            .unwrap_or_else(|| "unset".to_string());
        out.push_str(&format!(
            "  {} ({current})\n    accepts: {}\n    default: {}\n    {}\n\n",
            k.name, k.accepts, k.default, k.help
        ));
    }
    out
}

/// `tmpctl help`
pub fn cmd_help() -> String {
    "tmpctl — the TMP tiered-memory profiler, on the simulated machine

USAGE: tmpctl <command> [--flag value] [--switch]

COMMANDS:
  workloads                      list the Table III workload suite
  profile   --workload W         profile one workload with TMP
            [--rate N]           IBS rate multiplier (default 4)
            [--mode both|abit|trace|none]
            [--epochs N] [--ops N] [--thp] [--pebs]
  heatmap   --workload W         ASCII access heatmap (Figs. 3-4)
            [--source ibs|abit] [--buckets N]
  hitrate   --workload W         Fig. 6-style hitrate replay
            [--ratio-denoms 8,16,32]
  emulate   --workload W         §VI-C speedup vs first-touch
            [--ratio N]          slow:fast capacity ratio (default 15)
  metrics   --workload W         profile, then dump the observability
            [--csv|--json]       counters (nonzero table by default)
  journal   --workload W         profile, then dump the event journal
            [--cap N] [--csv|--json]
  knobs                          list TMPROF_* environment knobs
  help                           this text

heatmap, hitrate, metrics and journal also take profile's flags. A flag
a command does not take, or a value it does not accept, is an error.
Scale presets via TMPROF_SCALE=quick|default|full.
"
    .to_string()
}

/// Dispatch a parsed command line, refusing any flag the command does
/// not take.
pub fn dispatch(parsed: &Parsed) -> Result<String, CliError> {
    type Command = fn(&Parsed) -> Result<String, CliError>;
    // (command, whether it takes `RUN_FLAGS`, the flags only it takes)
    let (run, runs_workload, own): (Command, bool, &[&str]) = match parsed.command.as_str() {
        "workloads" => (|_| Ok(cmd_workloads()), false, &[]),
        "profile" => (cmd_profile, true, &[]),
        "heatmap" => (cmd_heatmap, true, &["source", "buckets"]),
        "hitrate" => (cmd_hitrate, true, &["ratio-denoms"]),
        "emulate" => (cmd_emulate, false, &["workload", "ratio"]),
        "metrics" => (cmd_metrics, true, &["csv", "json"]),
        "journal" => (cmd_journal, true, &["cap", "csv", "json"]),
        "knobs" => (|_| Ok(cmd_knobs()), false, &[]),
        "help" => (|_| Ok(cmd_help()), false, &[]),
        other => return Err(CliError::UnknownCommand(other.to_string())),
    };
    let shared: &[&str] = if runs_workload { &RUN_FLAGS } else { &[] };
    parsed.only(&[shared, own].concat())?;
    run(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let parsed = parse(args.iter().map(|s| s.to_string()))?;
        dispatch(&parsed)
    }

    #[test]
    fn workloads_lists_all_eight() {
        let out = cmd_workloads();
        for kind in WorkloadKind::ALL {
            assert!(out.contains(kind.name()), "{} missing", kind.name());
        }
    }

    #[test]
    fn workload_lookup_is_fuzzy() {
        assert_eq!(workload_by_name("GUPS").unwrap(), WorkloadKind::Gups);
        assert_eq!(
            workload_by_name("data-caching").unwrap(),
            WorkloadKind::DataCaching
        );
        assert_eq!(
            workload_by_name("Data_Caching").unwrap(),
            WorkloadKind::DataCaching
        );
        assert!(workload_by_name("nope").is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn help_mentions_every_command() {
        let help = cmd_help();
        for cmd in [
            "workloads",
            "profile",
            "heatmap",
            "hitrate",
            "emulate",
            "metrics",
            "journal",
            "knobs",
        ] {
            assert!(help.contains(cmd));
        }
    }

    #[test]
    fn knobs_lists_every_registered_knob() {
        let out = run(&["knobs"]).unwrap();
        for k in tmprof_core::knobs::ALL {
            assert!(out.contains(k.name), "{} missing", k.name);
            assert!(out.contains(k.default), "{} default missing", k.name);
        }
    }

    #[test]
    fn profile_runs_end_to_end() {
        std::env::set_var("TMPROF_SCALE", "quick");
        let out = run(&["profile", "--workload", "gups", "--epochs", "2"]).unwrap();
        assert!(out.contains("pages detected by A-bit"));
        assert!(out.contains("profiling overhead"));
    }

    #[test]
    fn heatmap_renders_ascii() {
        std::env::set_var("TMPROF_SCALE", "quick");
        let out = run(&[
            "heatmap",
            "--workload",
            "lulesh",
            "--epochs",
            "2",
            "--buckets",
            "8",
        ])
        .unwrap()
        .to_string();
        assert!(out.contains("heatmap of LULESH"));
        assert!(out.contains("time ->"));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn metrics_reports_the_run_it_just_made() {
        std::env::set_var("TMPROF_SCALE", "quick");
        let out = run(&["metrics", "--workload", "gups", "--epochs", "2"]).unwrap();
        assert!(out.contains("sim.batch_ops"), "{out}");
        assert!(out.contains("trace.samples_counted"), "{out}");
        assert!(out.contains("abit.ptes_scanned"), "{out}");
        let csv = run(&["metrics", "--workload", "gups", "--epochs", "2", "--csv"]).unwrap();
        assert!(csv.starts_with("metric,value\n"));
        assert_eq!(
            csv.lines().count(),
            tmprof_obs::metrics::Metric::COUNT + 1,
            "CSV covers the whole registry"
        );
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn journal_records_epoch_horizons() {
        std::env::set_var("TMPROF_SCALE", "quick");
        let out = run(&[
            "journal",
            "--workload",
            "gups",
            "--epochs",
            "2",
            "--cap",
            "64",
        ])
        .unwrap();
        assert!(out.contains("journal capacity=64"), "{out}");
        assert!(out.contains("epoch_end"), "{out}");
        tmprof_obs::journal::set_capacity(tmprof_obs::journal::DEFAULT_CAPACITY);
    }

    #[test]
    fn hitrate_covers_requested_ratios() {
        std::env::set_var("TMPROF_SCALE", "quick");
        let out = run(&[
            "hitrate",
            "--workload",
            "webserving",
            "--epochs",
            "2",
            "--ratio-denoms",
            "8,64",
        ])
        .unwrap();
        assert!(out.contains("1/8"));
        assert!(out.contains("1/64"));
        assert!(!out.contains("1/16"), "unrequested ratio printed");
    }

    /// `args` must fail with an argument error naming every one of
    /// `needles`.
    fn refused(args: &[&str], needles: &[&str]) {
        let err = match run(args) {
            Err(CliError::Args(e)) => e.to_string(),
            other => panic!("{args:?} gave {other:?}, not an argument error"),
        };
        for needle in needles {
            assert!(err.contains(needle), "{args:?}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn unknown_flag_is_refused() {
        refused(
            &["profile", "--epoch", "2"],
            &["--epoch", "\"2\"", "--epochs", "--rate"],
        );
        refused(&["emulate", "--rate", "8"], &["--rate", "--ratio"]);
        refused(&["knobs", "--csv"], &["--csv", "no flags"]);
    }

    #[test]
    fn misspelt_mode_is_refused() {
        refused(
            &["profile", "--mode", "abiit"],
            &["--mode", "abiit", "both, abit, trace, none"],
        );
    }

    #[test]
    fn misspelt_heatmap_source_is_refused() {
        refused(
            &["heatmap", "--source", "abti"],
            &["--source", "abti", "ibs, abit"],
        );
    }

    #[test]
    fn non_integer_ratio_denominator_is_refused() {
        refused(
            &["hitrate", "--ratio-denoms", "8,x,16"],
            &["--ratio-denoms", "8,x,16", "positive integers"],
        );
    }

    #[test]
    fn zero_ratio_denominator_is_refused() {
        refused(
            &["hitrate", "--ratio-denoms", "0"],
            &["--ratio-denoms", "\"0\"", "positive integers"],
        );
    }

    #[test]
    fn zero_emulation_ratio_is_refused() {
        refused(
            &["emulate", "--ratio", "0"],
            &["--ratio", "\"0\"", "a positive integer"],
        );
    }

    #[test]
    fn zero_sampling_rate_is_refused() {
        refused(
            &["profile", "--rate", "0"],
            &["--rate", "\"0\"", "a positive integer"],
        );
    }

    #[test]
    fn zero_heatmap_buckets_are_refused() {
        refused(
            &["heatmap", "--buckets", "0"],
            &["--buckets", "\"0\"", "a positive integer"],
        );
    }

    #[test]
    fn zero_heatmap_epochs_are_refused() {
        refused(
            &["heatmap", "--workload", "gups", "--epochs", "0"],
            &["--epochs", "\"0\"", "a positive integer"],
        );
    }

    #[test]
    fn zero_hitrate_epochs_and_ops_are_refused() {
        refused(
            &["hitrate", "--epochs", "0"],
            &["--epochs", "\"0\"", "a positive integer"],
        );
        refused(
            &["hitrate", "--ops", "0"],
            &["--ops", "\"0\"", "a positive integer"],
        );
    }

    #[test]
    fn epochs_past_u32_are_refused() {
        // u32::MAX + 2, which an `as u32` cast would read as 1.
        refused(
            &["profile", "--epochs", "4294967297"],
            &["--epochs", "\"4294967297\"", "fits in u32"],
        );
    }

    #[test]
    fn zero_profile_ops_are_refused() {
        refused(
            &["profile", "--ops", "0"],
            &["--ops", "\"0\"", "a positive integer"],
        );
    }
}
