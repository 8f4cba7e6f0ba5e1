//! Cross-crate integration: workloads → machine → profilers → TMP.
//!
//! These tests run real Table III workload generators through the full
//! machine model with the complete TMP stack armed, and check the
//! invariants that hold across crate boundaries.

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_sim::prelude::*;
use tmprof_workloads::spec::WorkloadKind;

const BASE_PERIOD: u64 = 512;

fn machine_for(cfg: &tmprof_workloads::spec::WorkloadConfig) -> Machine {
    let frames = cfg.total_pages() * 2;
    Machine::new(MachineConfig::scaled(2, frames, 0, BASE_PERIOD))
}

fn run_epochs(
    kind: WorkloadKind,
    epochs: u32,
    ops: u64,
) -> (Machine, Tmp, Vec<tmprof_core::profiler::TmpEpochReport>) {
    let cfg = kind.default_config().scaled_footprint(1, 8);
    let mut machine = machine_for(&cfg);
    let mut gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    let mut tmp = Tmp::new(TmpConfig::paper_defaults(BASE_PERIOD), &mut machine);
    let mut reports = Vec::new();
    for _ in 0..epochs {
        let streams: Vec<(Pid, &mut dyn OpStream)> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
            .collect();
        Runner::new(streams).run(&mut machine, ops);
        reports.push(tmp.end_epoch(&mut machine));
    }
    (machine, tmp, reports)
}

#[test]
fn every_workload_profiles_end_to_end() {
    for kind in WorkloadKind::ALL {
        let (machine, tmp, reports) = run_epochs(kind, 2, 40_000);
        let counts = machine.aggregate_counts();
        assert!(counts.retired_ops > 0, "{}: no ops", kind.name());
        assert!(
            tmp.abit_pages_total() > 0,
            "{}: A-bit saw nothing",
            kind.name()
        );
        assert!(
            reports.iter().any(|r| r.truth.total_mem_accesses() > 0),
            "{}: no memory-level accesses",
            kind.name()
        );
    }
}

#[test]
fn op_accounting_is_conserved() {
    let (machine, _tmp, _r) = run_epochs(WorkloadKind::Gups, 3, 50_000);
    let counts = machine.aggregate_counts();
    // Each of the spawned processes ran exactly ops*epochs ops.
    let procs = WorkloadKind::Gups.default_config().processes as u64;
    assert_eq!(counts.retired_ops, procs * 3 * 50_000);
    // Loads + stores never exceed retired ops.
    assert!(counts.loads + counts.stores <= counts.retired_ops);
    // Miss hierarchy is monotone: L1 >= L2 >= LLC misses.
    assert!(counts.l1d_misses >= counts.l2_misses);
    assert!(counts.l2_misses >= counts.llc_misses);
    // Tier accesses partition LLC misses.
    assert_eq!(
        counts.llc_misses,
        counts.tier1_accesses + counts.tier2_accesses
    );
    // Walks can't outnumber first-level TLB misses.
    assert!(counts.ptw_walks <= counts.dtlb_l1_misses);
}

#[test]
fn profiler_observations_match_descriptor_totals() {
    let (machine, tmp, _r) = run_epochs(WorkloadKind::DataCaching, 3, 60_000);
    let desc_trace: u64 = machine
        .descs()
        .iter_owned()
        .map(|(_, d)| d.trace_total)
        .sum();
    assert_eq!(desc_trace, tmp.trace_stats().counted_samples);
    let desc_abit: u64 = machine
        .descs()
        .iter_owned()
        .map(|(_, d)| d.abit_total)
        .sum();
    assert_eq!(desc_abit, tmp.abit_stats().observations);
}

#[test]
fn detection_set_relationships_hold() {
    let (_m, tmp, _r) = run_epochs(WorkloadKind::XsBench, 3, 60_000);
    // Same-epoch coincidence can't exceed the cumulative intersection,
    // which can't exceed either cumulative set.
    let both = tmp.both_pages_total();
    let inter = tmp.both_pages_cumulative_intersection();
    assert!(both <= inter);
    assert!(inter <= tmp.abit_pages_total());
    assert!(inter <= tmp.trace_pages_total());
}

#[test]
fn ranked_pages_are_sorted_and_positive() {
    let (_m, _tmp, reports) = run_epochs(WorkloadKind::GraphAnalytics, 2, 60_000);
    let ranked = reports.last().unwrap().profile.ranked(RankSource::Combined);
    assert!(!ranked.is_empty());
    for w in ranked.windows(2) {
        assert!(w[0].rank >= w[1].rank, "ranking not sorted");
    }
    assert!(ranked.iter().all(|r| r.rank > 0));
}

#[test]
fn profiling_overhead_is_separated_and_bounded() {
    let (machine, _tmp, _r) = run_epochs(WorkloadKind::Lulesh, 3, 80_000);
    let counts = machine.aggregate_counts();
    assert!(counts.profiling_cycles > 0);
    assert!(counts.profiling_cycles < counts.cycles / 2);
}

#[test]
fn truth_is_invisible_to_profilers_but_consistent() {
    // Every page the profilers saw must exist in the lifetime ground
    // truth, the union of every closed epoch's (profilers cannot
    // hallucinate pages).
    let (_machine, _tmp, reports) = run_epochs(WorkloadKind::WebServing, 2, 60_000);
    let lifetime: KeySet<u64> = reports
        .iter()
        .flat_map(|r| r.truth.mem_accesses.iter().map(|&(page, _)| page))
        .collect();
    for report in &reports {
        for key in report.profile.trace.keys() {
            assert!(
                lifetime.contains(key),
                "trace saw page {key:#x} with no memory-level access"
            );
        }
    }
}

#[test]
fn multi_process_workloads_profile_all_pids() {
    let (machine, _tmp, reports) = run_epochs(WorkloadKind::Gups, 2, 40_000);
    let pids: std::collections::HashSet<Pid> = reports
        .iter()
        .flat_map(|r| r.profile.abit.keys().map(|&k| PageKey::unpack(k).pid))
        .collect();
    assert_eq!(
        pids.len(),
        machine.pids().count(),
        "A-bit scan must cover every busy process"
    );
}
