//! Profiler shoot-out: TMP vs the software-initiated alternatives the
//! paper surveys (§II) — AutoNUMA-style PROT_NONE fault tracking and
//! Thermostat-style sampled BadgerTrap classification.
//!
//! For each contender we measure, on the same deterministic workload:
//!
//! * **coverage@N** — run the profiler's hottest-N page estimate against
//!   ground truth: the fraction of the *best achievable* top-N memory
//!   traffic that the estimate captures (the same access-weighted metric
//!   the Fig. 6 hitrate uses, so a perfect profiler scores 1.0 even on
//!   uniform workloads);
//! * **overhead** — profiling cycles (scans, shootdowns) plus fault-path
//!   inflation, as a fraction of an unprofiled run's cycles.
//!
//! This is the quantified version of the paper's §II argument: fault-based
//! visibility costs more and sees less (hot pages hide behind the TLB).

use std::collections::HashMap;
use std::hash::BuildHasher;

use tmprof_profilers::autonuma::{AutoNumaConfig, AutoNumaScanner};
use tmprof_profilers::thermostat::{Thermostat, ThermostatConfig};
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::Machine;
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::WorkloadKind;

use crate::harness::{profiling_machine, run_workload, scaled_config, ProfMode, RunOptions};
use crate::scale::Scale;

/// One contender's scorecard.
#[derive(Clone, Copy, Debug)]
pub struct Scorecard {
    /// Access-weighted coverage of the profiler's top-N vs the ideal top-N.
    pub coverage: f64,
    /// Cycle inflation over the unprofiled run.
    pub overhead: f64,
    /// Distinct pages the profiler observed at all.
    pub pages_seen: usize,
}

/// Hottest-`n` keys of a count map, ties broken by key for determinism.
fn top_n<S: BuildHasher>(m: &HashMap<u64, u64, S>, n: usize) -> Vec<u64> {
    let mut v: Vec<(u64, u64)> = m.iter().map(|(&k, &c)| (k, c)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.into_iter().take(n).map(|(k, _)| k).collect()
}

/// Access-weighted coverage: traffic captured by `estimate`'s top-N
/// divided by traffic captured by `truth`'s own top-N (the oracle ceiling).
/// Generic over the maps' hashers so both std maps and the simulator's
/// [`tmprof_sim::keymap::KeyMap`] work.
pub fn coverage_at_n<S1, S2>(
    truth: &HashMap<u64, u64, S1>,
    estimate: &HashMap<u64, u64, S2>,
    n: usize,
) -> f64
where
    S1: BuildHasher,
    S2: BuildHasher,
{
    if n == 0 || truth.is_empty() {
        return 0.0;
    }
    let traffic = |keys: &[u64]| -> u64 {
        keys.iter()
            .map(|k| truth.get(k).copied().unwrap_or(0))
            .sum()
    };
    let ceiling = traffic(&top_n(truth, n));
    if ceiling == 0 {
        return 0.0;
    }
    traffic(&top_n(estimate, n)) as f64 / ceiling as f64
}

/// Add one epoch's `(page, count)` pairs into a running total.
fn fold_counts(total: &mut KeyMap<u64, u64>, epoch: impl IntoIterator<Item = (u64, u64)>) {
    for (k, v) in epoch {
        *total.entry(k).or_insert(0) += v;
    }
}

fn spawn_into(
    machine: &mut Machine,
    kind: WorkloadKind,
    scale: &Scale,
) -> (Vec<Box<dyn OpStream + Send>>, Vec<Pid>) {
    let cfg = scaled_config(kind, scale);
    let gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    (gens, pids)
}

fn run_epoch(machine: &mut Machine, gens: &mut [Box<dyn OpStream + Send>], pids: &[Pid], ops: u64) {
    let streams: Vec<(Pid, &mut dyn OpStream)> = gens
        .iter_mut()
        .enumerate()
        .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
        .collect();
    Runner::new(streams).run(machine, ops);
}

/// Cycles of an unprofiled run (the overhead baseline).
fn baseline_cycles(kind: WorkloadKind, scale: &Scale) -> u64 {
    run_workload(kind, &RunOptions::new(*scale).with_mode(ProfMode::None))
        .counts
        .cycles
}

/// TMP's scorecard (standard sparse-rate configuration, rate 4x — the
/// deployable regime, unlike the coverage experiments' dense sampling).
pub fn score_tmp(kind: WorkloadKind, scale: &Scale) -> Scorecard {
    let base = baseline_cycles(kind, scale);
    let run = run_workload(kind, &RunOptions::new(*scale));
    // Estimate: combined per-page counts accumulated over all epochs.
    let mut estimate: KeyMap<u64, u64> = KeyMap::default();
    let mut truth: KeyMap<u64, u64> = KeyMap::default();
    for e in &run.log.epochs {
        let profiled = e.profile.abit.iter().chain(&e.profile.trace);
        fold_counts(&mut estimate, profiled.map(|(&k, &v)| (k, v)));
        fold_counts(&mut truth, e.truth_mem.iter().copied());
    }
    let n = (truth.len() / 16).max(1);
    Scorecard {
        coverage: coverage_at_n(&truth, &estimate, n),
        overhead: run.counts.cycles as f64 / base as f64 - 1.0,
        pages_seen: estimate.len(),
    }
}

/// AutoNUMA's scorecard.
pub fn score_autonuma(kind: WorkloadKind, scale: &Scale) -> Scorecard {
    let base = baseline_cycles(kind, scale);
    let cfg = scaled_config(kind, scale);
    let mut machine = profiling_machine(&cfg, scale, scale.base_period);
    let (mut gens, pids) = spawn_into(&mut machine, kind, scale);
    let (mut scanner, handler) = AutoNumaScanner::new(AutoNumaConfig {
        scan_size_pages: scale.abit_budget,
    });
    machine.set_fault_policy(Some(handler));
    let mut truth: KeyMap<u64, u64> = KeyMap::default();
    for _ in 0..scale.epochs {
        for &pid in &pids {
            scanner.scan_pass(&mut machine, pid);
        }
        run_epoch(&mut machine, &mut gens, &pids, scale.ops_per_epoch);
        fold_counts(&mut truth, machine.advance_epoch().mem_accesses);
    }
    let estimate = scanner.hit_counts();
    let n = (truth.len() / 16).max(1);
    Scorecard {
        coverage: coverage_at_n(&truth, &estimate, n),
        overhead: machine.aggregate_counts().cycles as f64 / base as f64 - 1.0,
        pages_seen: scanner.pages_seen(),
    }
}

/// Thermostat's scorecard.
pub fn score_thermostat(kind: WorkloadKind, scale: &Scale) -> Scorecard {
    let base = baseline_cycles(kind, scale);
    let cfg = scaled_config(kind, scale);
    let mut machine = profiling_machine(&cfg, scale, scale.base_period);
    let (mut gens, pids) = spawn_into(&mut machine, kind, scale);
    let (mut th, handler) = Thermostat::new(ThermostatConfig::default());
    machine.set_fault_policy(Some(handler));
    // Warm-up epoch so pages exist before the first sample; its accesses
    // count towards the truth like every other epoch's.
    run_epoch(&mut machine, &mut gens, &pids, scale.ops_per_epoch);
    let mut truth: KeyMap<u64, u64> = KeyMap::default();
    fold_counts(&mut truth, machine.advance_epoch().mem_accesses);
    for _ in 1..scale.epochs {
        for &pid in &pids {
            th.begin_epoch(&mut machine, pid);
        }
        run_epoch(&mut machine, &mut gens, &pids, scale.ops_per_epoch);
        th.end_epoch(&mut machine);
        fold_counts(&mut truth, machine.advance_epoch().mem_accesses);
    }
    // Thermostat's estimate is binary; score its hot set.
    // tmprof-lint: allow(determinism-taint) — the estimate map is probed by key against the sorted truth ranking; its iteration order is never observed
    let estimate: HashMap<u64, u64> = th.hot_pages().into_iter().map(|k| (k, 1)).collect();
    let n = (truth.len() / 16).max(1);
    Scorecard {
        coverage: coverage_at_n(&truth, &estimate, n),
        overhead: machine.aggregate_counts().cycles as f64 / base as f64 - 1.0,
        pages_seen: th.sampled_pages(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_of_identical_maps_is_one() {
        let m: HashMap<u64, u64> = (0..100).map(|k| (k, 100 - k)).collect();
        assert_eq!(coverage_at_n(&m, &m, 10), 1.0);
    }

    #[test]
    fn coverage_of_disjoint_estimates_is_zero() {
        let truth: HashMap<u64, u64> = (0..10).map(|k| (k, 10)).collect();
        let est: HashMap<u64, u64> = (100..110).map(|k| (k, 10)).collect();
        assert_eq!(coverage_at_n(&truth, &est, 5), 0.0);
    }

    #[test]
    fn coverage_edge_cases() {
        let empty = HashMap::new();
        let m: HashMap<u64, u64> = HashMap::from([(1, 1)]);
        assert_eq!(coverage_at_n(&empty, &m, 5), 0.0);
        assert_eq!(coverage_at_n(&m, &m, 0), 0.0);
    }

    #[test]
    fn coverage_is_weighted_not_set_based() {
        // Estimate misses the #1 page but catches #2: coverage reflects
        // the traffic proportion, not a 0/1 set hit.
        let truth: HashMap<u64, u64> = HashMap::from([(1, 90), (2, 10)]);
        let est: HashMap<u64, u64> = HashMap::from([(2, 5)]);
        let c = coverage_at_n(&truth, &est, 1);
        assert!((c - 10.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn tmp_beats_thermostat_on_a_hot_set_workload() {
        // The §VII claims: Thermostat's faults cost more than TMP's
        // sampling, and buy less coverage per point of overhead. (Its
        // blind spot for TLB-resident hot pages is pinned by
        // thermostat::tests::tlb_resident_hot_page_is_misclassified_cold.)
        let scale = Scale::quick();
        let tmp = score_tmp(WorkloadKind::WebServing, &scale);
        let th = score_thermostat(WorkloadKind::WebServing, &scale);
        assert!(
            th.overhead > tmp.overhead,
            "overhead: Thermostat {} vs TMP {}",
            th.overhead,
            tmp.overhead
        );
        assert!(
            tmp.coverage / tmp.overhead > th.coverage / th.overhead,
            "coverage per overhead: TMP {}/{} vs Thermostat {}/{}",
            tmp.coverage,
            tmp.overhead,
            th.coverage,
            th.overhead
        );
    }

    #[test]
    fn autonuma_costs_more_than_tmp() {
        let scale = Scale::quick();
        let tmp = score_tmp(WorkloadKind::DataCaching, &scale);
        let numa = score_autonuma(WorkloadKind::DataCaching, &scale);
        // The §II claim is about cost: AutoNUMA pays protection faults and
        // shootdowns for its visibility; TMP's deployable configuration
        // stays in the single-digit range.
        assert!(
            numa.overhead > tmp.overhead,
            "AutoNUMA {} vs TMP {}",
            numa.overhead,
            tmp.overhead
        );
        assert!(numa.pages_seen > 0);
    }
}
