//! `perf_record`: the end-to-end and per-layer benchmark of the simulator.
//!
//! One run measures one workload:
//!
//! ```text
//! perf_record --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It repeats whole passes of the workload for about `--seconds` (at least
//! one pass), checks every pass's simulated outputs, prints each
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! check a span-traced pass against an untraced one and report the
//! per-layer metrics.
//!
//! Without `--workload` it records a suite: every workload in fresh child
//! processes, untraced rounds interleaved round-robin, then one traced run
//! each, written to `perf/records/<rev>-<tag>.json` with the spans beside
//! it. See `perf/README.md`.

mod drivers;
mod jsonio;
mod spans;
mod suite;

use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use drivers::{Checks, Outcome, Pass, Size, Workload};
use jsonio::Json;
use spans::{now_ns, Breakdown, Layer, Span, Tracer};

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mops_per_s", "Mops/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_gcycles", "Gcycles"),
];

/// `setup_s` is the median of at least `MIN_SETUPS` set-ups per run. Cheap
/// set-ups are repeated (built and dropped) up to `SETUP_SAMPLES` times
/// within `SETUP_EXTRA_NS`, so a millisecond-scale median does not rest
/// on three draws.
const MIN_SETUPS: usize = 3;
const SETUP_SAMPLES: usize = 25;
const SETUP_EXTRA_NS: u64 = 1_000_000_000;

// tmprof-lint: allow(knob-registry) — the prefix every library knob shares; perf_record refuses to run with any of them set
const KNOB_PREFIX: &str = "TMPROF_";

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::text(m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    tag: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: suite::RUN_SECONDS,
        trace: false,
        spans: None,
        tag: "a".to_string(),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload =
                    Some(Workload::from_name(value).ok_or_else(|| bad(&names.join(" | ")))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--tag" => {
                let ok = !value.is_empty()
                    && value
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
                if !ok {
                    return Err(bad("letters, digits, `-` or `_`"));
                }
                args.tag = value.to_string();
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// `TMPROF_*` variables set in the environment. Each one changes what the
/// library does (and several silently fall back on bad values), so a run
/// with any of them set would not measure the benchmark's configuration.
fn stray_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_record: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = stray_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perf_record: {} set; unset every {KNOB_PREFIX}* variable, they change what is measured",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => {
            let report = match run_one(
                w,
                args.seed,
                args.seconds,
                args.trace,
                Size::Full,
                args.spans.as_deref(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perf_record: {e}");
                    return ExitCode::from(1);
                }
            };
            for m in &report.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json().render());
            ExitCode::SUCCESS
        }
        None => suite::record(&args.tag, args.seed, args.seconds),
    }
}

/// Run `w` for about `seconds` (whole passes, at least one) and report its
/// end-to-end (untraced) or per-layer (traced) metrics. Traced runs append
/// the first traced pass's spans to `spans_out` when given.
pub fn run_one(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans_out: Option<&Path>,
) -> Result<RunReport, String> {
    let budget_ns = (seconds * 1e9) as u64;
    let start = now_ns();
    let mut checks = Checks::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut layer_runs: Vec<Vec<Metric>> = Vec::new();
    loop {
        let first = samples.is_empty() && layer_runs.is_empty();
        let iteration_start = now_ns();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if trace {
                let odd = layer_runs.len() % 2 == 1;
                let it = traced_iteration(w, seed, size, odd, &mut checks);
                if first {
                    if let Some(path) = spans_out {
                        write_spans(path, w, &it.spans)?;
                    }
                }
                layer_runs.push(it.metrics);
            } else {
                samples.push(untraced_iteration(w, seed, size, &mut checks));
            }
            Ok::<(), String>(())
        }));
        match result {
            Ok(r) => r?,
            Err(_) => {
                // The panic message is already on stderr.
                checks.verify(false, || format!("{}: a pass panicked", w.name()));
                break;
            }
        }
        // Stop when one more pass of the same length would end further
        // from the budget than stopping now, so runs last about `seconds`.
        let now = now_ns();
        if now - start + (now - iteration_start) / 2 >= budget_ns {
            break;
        }
    }
    let metrics = if trace {
        median_metrics(&layer_runs)
    } else {
        if let Some(s) = samples.first() {
            for other in &samples[1..] {
                checks.verify(
                    other.digest == s.digest && other.sim_cycles == s.sim_cycles,
                    || format!("{}: passes of one seed diverged", w.name()),
                );
            }
        }
        let mut setups: Vec<u64> = samples.iter().map(|s| s.setup_ns).collect();
        let extra_start = now_ns();
        while let Some(&last) = setups.last() {
            let cheap =
                setups.len() < SETUP_SAMPLES && now_ns() - extra_start + last <= SETUP_EXTRA_NS;
            if setups.len() >= MIN_SETUPS && !cheap {
                break;
            }
            let t0 = now_ns();
            let state = drivers::setup(w, seed, size, Pass::Coarse);
            setups.push(now_ns() - t0);
            drop(state);
        }
        end_to_end_metrics(&samples, &setups)
    };
    Ok(RunReport {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

/// One untraced pass's measurements.
struct Sample {
    setup_ns: u64,
    wall_ns: u64,
    sim_ops: u64,
    sim_cycles: u64,
    digest: u64,
}

struct TimedPass {
    out: Outcome,
    setup_ns: u64,
    wall_ns: u64,
}

fn timed_pass(w: Workload, seed: u64, size: Size, pass: Pass, tr: &mut Tracer) -> TimedPass {
    let t0 = now_ns();
    let state = drivers::setup(w, seed, size, pass);
    let t1 = now_ns();
    let out = drivers::run(state, size, tr, pass);
    let t2 = now_ns();
    TimedPass {
        out,
        setup_ns: t1 - t0,
        wall_ns: t2 - t1,
    }
}

fn absorb(checks: &mut Checks, pass: &mut TimedPass) {
    let own = std::mem::take(&mut pass.out.checks);
    checks.attempted += own.attempted;
    checks.failed += own.failed;
}

fn untraced_iteration(w: Workload, seed: u64, size: Size, checks: &mut Checks) -> Sample {
    let mut p = timed_pass(w, seed, size, Pass::Coarse, &mut Tracer::new(false));
    absorb(checks, &mut p);
    drivers::check_golden(w, seed, size, &p.out, checks);
    Sample {
        setup_ns: p.setup_ns,
        wall_ns: p.wall_ns,
        sim_ops: p.out.sim_ops,
        sim_cycles: p.out.sim_cycles,
        digest: p.out.digest,
    }
}

struct TracedIteration {
    metrics: Vec<Metric>,
    spans: Vec<Span>,
}

/// An untraced reference pass, the traced fine pass and the same fine pass
/// untraced, all over the same inputs (plus, for the fleet, the serial
/// schedule). The fine passes must reproduce the reference's simulated
/// outputs exactly. `trace.overhead_pct` compares the two fine passes,
/// which differ only in the span calls; odd iterations run the traced one
/// first, so warm-up (heap growth, cold caches) does not bias it one way.
fn traced_iteration(
    w: Workload,
    seed: u64,
    size: Size,
    traced_first: bool,
    checks: &mut Checks,
) -> TracedIteration {
    let mut untraced = Tracer::new(false);
    let mut base = timed_pass(w, seed, size, Pass::Coarse, &mut untraced);
    absorb(checks, &mut base);
    drivers::check_golden(w, seed, size, &base.out, checks);
    let mut serial = (w == Workload::Fleet1k)
        .then(|| timed_pass(w, seed, size, Pass::Serial, &mut Tracer::new(false)));
    let mut tr = Tracer::new(true);
    let mut bare = Tracer::new(false);
    let (mut fine, mut plain) = if traced_first {
        let fine = timed_pass(w, seed, size, Pass::Fine, &mut tr);
        (fine, timed_pass(w, seed, size, Pass::Fine, &mut bare))
    } else {
        let plain = timed_pass(w, seed, size, Pass::Fine, &mut bare);
        (timed_pass(w, seed, size, Pass::Fine, &mut tr), plain)
    };
    absorb(checks, &mut fine);
    absorb(checks, &mut plain);

    let name = w.name();
    checks.verify(fine.out.digest == base.out.digest, || {
        format!("{name}: traced pass diverged from the untraced pass")
    });
    checks.verify(plain.out.digest == base.out.digest, || {
        format!("{name}: untraced fine pass diverged from the untraced pass")
    });
    checks.verify(fine.out.sim_cycles == base.out.sim_cycles, || {
        format!("{name}: traced pass simulated a different cycle count")
    });
    if let (Some(a), Some(b)) = (fine.out.hitrate, base.out.hitrate) {
        checks.verify(a.to_bits() == b.to_bits(), || {
            format!("{name}: traced hitrate {a} != untraced {b}")
        });
    }
    if let Some(s) = serial.as_mut() {
        absorb(checks, s);
        checks.verify(s.out.digest == base.out.digest, || {
            format!("{name}: serial and 2-worker fleets decided differently")
        });
    }
    let breakdown = Breakdown::of(tr.spans(), fine.wall_ns);
    checks.verify(breakdown.nested, || {
        format!("{name}: spans overlap, so layer self times do not sum to the wall time")
    });

    let mut metrics = layer_metrics(&fine.out, &breakdown);
    let sched = base.out.sched.unwrap_or_default();
    let wall_speedup = serial
        .as_ref()
        .map_or(0.0, |s| s.wall_ns as f64 / base.wall_ns as f64);
    // The reference pass's epochs where it exposes them; `placement_emul`'s
    // is one `run_emulated` call per kind, so its epochs come from the
    // untraced fine pass.
    let epochs = match untraced.epoch_ns() {
        [] => bare.epoch_ns(),
        some => some,
    };
    let epoch_ns: Vec<f64> = epochs.iter().map(|&e| e as f64).collect();
    metrics.extend([
        metric("core.epoch_ms_p50", percentile(&epoch_ns, 50.0) / 1e6, "ms"),
        metric("core.epoch_ms_p90", percentile(&epoch_ns, 90.0) / 1e6, "ms"),
        metric("core.sched.wall_speedup", wall_speedup, "x"),
        metric("core.sched.sim_speedup", sched.sim_speedup, "x"),
        metric(
            "core.sched.steal_ratio",
            ratio(sched.stolen as f64, sched.units as f64),
            "fraction",
        ),
        metric("core.sched.units", sched.units as f64, "count"),
        metric(
            "trace.overhead_pct",
            (fine.wall_ns as f64 / plain.wall_ns as f64 - 1.0) * 100.0,
            "%",
        ),
    ]);
    TracedIteration {
        metrics,
        spans: tr.spans().to_vec(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(out: &Outcome, b: &Breakdown) -> Vec<Metric> {
    let ms = |l: Layer| b.layer_ns(l) as f64 / 1e6;
    let c = &out.counts;
    let mut m: Vec<Metric> = Layer::ALL
        .iter()
        .map(|&l| {
            metric(
                format!("{}.share", l.label()),
                ratio(b.layer_ns(l) as f64, b.wall_ns as f64),
                "fraction",
            )
        })
        .collect();
    m.extend([
        metric("workloads.gen_ms", ms(Layer::Workloads), "ms"),
        metric("sim.exec_ms", ms(Layer::Sim), "ms"),
        metric(
            "sim.ns_per_op",
            ratio(b.layer_ns(Layer::Sim) as f64, out.sim_ops as f64),
            "ns",
        ),
        metric("sim.exec_gcycles", c.exec_cycles as f64 / 1e9, "Gcycles"),
        metric("profilers.trace.drain_ms", ms(Layer::ProfTrace), "ms"),
        metric(
            "profilers.trace.useful_ratio",
            ratio(c.trace_counted as f64, c.trace_attempts as f64),
            "fraction",
        ),
        metric(
            "profilers.trace.sim_mcycles",
            c.trace_cycles as f64 / 1e6,
            "Mcycles",
        ),
        metric("profilers.abit.scan_ms", ms(Layer::ProfAbit), "ms"),
        metric("profilers.abit.ptes_visited", c.abit_ptes as f64, "count"),
        metric(
            "profilers.abit.ns_per_pte",
            ratio(b.layer_ns(Layer::ProfAbit) as f64, c.abit_ptes as f64),
            "ns",
        ),
        metric(
            "profilers.abit.obs_per_kpte",
            ratio(c.abit_obs as f64 * 1000.0, c.abit_ptes as f64),
            "obs/kPTE",
        ),
        metric(
            "profilers.abit.sim_mcycles",
            c.abit_cycles as f64 / 1e6,
            "Mcycles",
        ),
        metric("core.epoch_close_ms", ms(Layer::Core), "ms"),
        metric("policy.mover.pages_moved", c.mover_pages as f64, "count"),
        metric(
            "policy.mover.pages_per_s",
            ratio(
                c.mover_pages as f64 * 1e9,
                b.layer_ns(Layer::PolicyMover) as f64,
            ),
            "pages/s",
        ),
        metric(
            "policy.mover.sim_gcycles",
            c.mover_cycles as f64 / 1e9,
            "Gcycles",
        ),
        metric("policy.hitrate", out.hitrate.unwrap_or(0.0), "fraction"),
        metric("emul.slow_faults", c.slow_faults as f64, "count"),
        metric("other_ms", b.other_ns as f64 / 1e6, "ms"),
    ]);
    m
}

/// Median of each metric across traced passes (all passes report the same
/// names in the same order).
fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(i))
                .map(|x| x.value)
                .collect();
            metric(m.name.clone(), percentile(&values, 50.0), m.unit)
        })
        .collect()
}

fn end_to_end_metrics(samples: &[Sample], setups: &[u64]) -> Vec<Metric> {
    if samples.is_empty() {
        return Vec::new();
    }
    let setups: Vec<f64> = setups.iter().map(|&s| s as f64).collect();
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64).collect();
    let mops: Vec<f64> = samples
        .iter()
        .map(|s| s.sim_ops as f64 * 1e3 / s.wall_ns.max(1) as f64)
        .collect();
    let values = [
        percentile(&setups, 50.0) / 1e9,
        percentile(&walls, 50.0) / 1e9,
        percentile(&mops, 50.0),
        peak_rss_mib(),
        samples[0].sim_cycles as f64 / 1e9,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect()
}

/// Linear-interpolated percentile (0–100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(&last) = v.last() else {
        return 0.0;
    };
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    let lo_v = v.get(lo).copied().unwrap_or(last);
    let hi_v = v.get(hi).copied().unwrap_or(last);
    lo_v + (hi_v - lo_v) * (rank - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Append `spans` as JSON lines, one per top-level span (an epoch root or a
/// call made outside any epoch) with its folded children inline as
/// `[layer, start_ns, end_ns, dur_ns, calls]`. Times are relative to the
/// pass's first span.
fn write_spans(path: &Path, w: Workload, spans: &[Span]) -> Result<(), String> {
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = s.parent.and_then(|p| children.get_mut(p)) {
            list.push(s);
        }
    }
    let label = |s: &Span| Json::text(s.layer.map_or("epoch", Layer::label));
    let ns = |t: u64| Json::Num((t - origin) as f64);
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    for (s, kids) in spans.iter().zip(&children) {
        if s.parent.is_some() {
            continue;
        }
        let kids = kids
            .iter()
            .map(|c| {
                Json::Arr(vec![
                    label(c),
                    ns(c.start_ns),
                    ns(c.end_ns),
                    Json::Num(c.dur_ns as f64),
                    Json::Num(c.calls as f64),
                ])
            })
            .collect();
        let line = Json::obj(vec![
            ("workload", Json::text(w.name())),
            ("epoch", Json::Num(f64::from(s.epoch))),
            ("layer", label(s)),
            ("start_ns", ns(s.start_ns)),
            ("end_ns", ns(s.end_ns)),
            ("children", Json::Arr(kids)),
        ]);
        writeln!(out, "{}", line.render()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        jsonio::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.field(key)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k| m.field(k).and_then(Json::string).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_end_to_end_metrics() {
        let doc = benchmark_json();
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
    }

    /// Every workload, tiny, untraced and traced: every declared metric is
    /// emitted, finite and in its unit's range, and every output check
    /// (traced == untraced, serial == 2-worker fleet, one scan per process
    /// per epoch, passes of one seed agree) passes.
    #[test]
    fn tiny_workloads_emit_every_declared_metric_and_pass_their_checks() {
        let doc = benchmark_json();
        for w in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run_one(w, 7, 0.0, trace, Size::Tiny, None).expect("run completes");
                assert!(report.attempted > 0, "{}: no checks ran", w.name());
                assert_eq!(report.failed, 0, "{}: output checks failed", w.name());
                let emitted: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(emitted, declared(&doc, key), "{} trace={trace}", w.name());
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                    let in_range = match m.unit {
                        "%" => m.value > -100.0,
                        "fraction" => (0.0..=1.0).contains(&m.value),
                        _ => m.value >= 0.0,
                    };
                    assert!(in_range, "{} {} = {} {}", w.name(), m.name, m.value, m.unit);
                }
            }
        }
    }

    #[test]
    fn seed_changes_the_inputs_and_repeats_exactly() {
        let pass = |seed| {
            let state = drivers::setup(Workload::SparseFootprint, seed, Size::Tiny, Pass::Coarse);
            drivers::run(state, Size::Tiny, &mut Tracer::new(false), Pass::Coarse).digest
        };
        assert_eq!(pass(3), pass(3));
        assert_ne!(pass(3), pass(4));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_values() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload fleet_1k --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--tag ../x").is_err());
    }
}
