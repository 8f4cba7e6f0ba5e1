//! Suite mode: record every workload into one perf-record file.
//!
//! Each run is a fresh child process (so `setup_s` and `peak_rss_mb`
//! belong to one workload). Untraced rounds go round-robin across the
//! workloads, so slow drift of the host spreads evenly over them; one
//! traced run per workload follows, appending its spans beside the record.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::drivers::Workload;
use crate::jsonio::{self, Json};

/// Seconds each run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;
/// Untraced runs per workload in a recorded suite.
const UNTRACED_RUNS: usize = 5;
/// Where records are written, relative to the repository root.
const RECORDS_DIR: &str = "perf/records";

/// One child run's parsed result line.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl ChildRun {
    fn broken(why: String) -> Self {
        eprintln!("perf_record: {why}");
        ChildRun {
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }
}

fn child(exe: &Path, w: Workload, seed: u64, seconds: f64, spans: Option<&Path>) -> ChildRun {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if spans.is_some() { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let output = match cmd.output() {
        Ok(o) if o.status.success() => o,
        Ok(o) => return ChildRun::broken(format!("{} exited with {}", w.name(), o.status)),
        Err(e) => return ChildRun::broken(format!("{}: cannot start: {e}", w.name())),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(jsonio::parse);
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => return ChildRun::broken(format!("{}: unreadable result line: {e}", w.name())),
    };
    let count = |k| doc.field(k).and_then(Json::number).unwrap_or(1.0) as u64;
    let metrics = match doc.field("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.field("value").and_then(Json::number).unwrap_or(f64::NAN);
                let unit = m.field("unit").and_then(Json::string).unwrap_or("");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    };
    ChildRun {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), which is how the benchmark's spread is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let n = v.len();
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn command_text(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Run the suite and write `perf/records/<rev>-<tag>.json` plus
/// `perf/records/<rev>-<tag>.spans.jsonl`.
pub fn record(tag: &str, seed: u64, seconds: f64) -> ExitCode {
    let out = Path::new(RECORDS_DIR);
    let runs = UNTRACED_RUNS;
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf_record: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let rev = command_text("git", &["rev-parse", "HEAD"]);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("schema", Json::text("tmprof-perf-record/1")),
        ("rev", Json::text(rev.clone())),
        ("rustc", Json::text(command_text("rustc", &["-V"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("loadavg_start", Json::text(loadavg())),
    ];
    let stem = format!("{}-{tag}", rev.get(..7).unwrap_or(&rev));
    let spans_path = out.join(format!("{stem}.spans.jsonl"));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|_| std::fs::write(&spans_path, "")) {
        eprintln!("perf_record: {}: {e}", spans_path.display());
        return ExitCode::from(1);
    }

    let mut untraced: Vec<Vec<ChildRun>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 1..=runs {
        for (w, done) in Workload::ALL.into_iter().zip(&mut untraced) {
            eprintln!("perf_record: round {round}/{runs}: {}", w.name());
            done.push(child(&exe, w, seed, seconds, None));
        }
    }
    let traced: Vec<ChildRun> = Workload::ALL
        .into_iter()
        .map(|w| {
            eprintln!("perf_record: traced: {}", w.name());
            child(&exe, w, seed, seconds, Some(&spans_path))
        })
        .collect();

    let mut all_ok = true;
    let mut workloads = Vec::new();
    for ((w, runs_of), traced) in Workload::ALL.into_iter().zip(&untraced).zip(&traced) {
        let attempted: u64 = runs_of.iter().chain([traced]).map(|r| r.attempted).sum();
        let failed: u64 = runs_of.iter().chain([traced]).map(|r| r.failed).sum();
        all_ok &= failed == 0;
        println!("== {} ({failed} of {attempted} checks failed)", w.name());
        let names = runs_of
            .first()
            .map(|r| r.metrics.as_slice())
            .unwrap_or_default();
        let mut e2e = Vec::new();
        for (i, (name, _, unit)) in names.iter().enumerate() {
            let values: Vec<f64> = runs_of
                .iter()
                .filter_map(|r| r.metrics.get(i))
                .map(|m| m.1)
                .collect();
            let (q1, median, q3) = quartiles(&values);
            println!(
                "  {name} = {median} {unit}  (q1 {q1}, q3 {q3}, {} runs)",
                values.len()
            );
            let entry = Json::obj(vec![
                ("unit", Json::text(unit.clone())),
                ("median", Json::Num(median)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]);
            e2e.push((name.clone(), entry));
        }
        let mut layers = Vec::new();
        for (name, value, unit) in &traced.metrics {
            println!("  {name} = {value} {unit}  (traced)");
            let entry = Json::obj(vec![
                ("unit", Json::text(unit.clone())),
                ("value", Json::Num(*value)),
            ]);
            layers.push((name.clone(), entry));
        }
        workloads.push(Json::obj(vec![
            ("name", Json::text(w.name())),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "fail_ratio",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
        ]));
    }
    meta.extend([
        ("loadavg_end", Json::text(loadavg())),
        (
            "command",
            Json::text(format!(
                "perf_record --seed {seed} --seconds {seconds} --tag {tag}"
            )),
        ),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("untraced_runs", Json::Num(runs as f64)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let record_path = out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&record_path, Json::obj(meta).render_pretty() + "\n") {
        eprintln!("perf_record: {}: {e}", record_path.display());
        return ExitCode::from(1);
    }
    println!("record written to {}", record_path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}
