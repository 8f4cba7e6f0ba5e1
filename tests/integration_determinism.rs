//! Whole-pipeline determinism: the reproduction's numbers must be
//! bit-stable across runs (EXPERIMENTS.md records exact values).

use tmprof_bench::harness::{profiling_machine, run_workload, scaled_config, ProfMode, RunOptions};
use tmprof_bench::scale::Scale;
use tmprof_core::rank::RankSource;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::Machine;
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::WorkloadKind;

#[test]
fn full_harness_runs_are_bit_stable() {
    for kind in [WorkloadKind::Gups, WorkloadKind::DataAnalytics] {
        let opts = RunOptions::new(Scale::quick()).dense();
        let a = run_workload(kind, &opts);
        let b = run_workload(kind, &opts);
        assert_eq!(a.detection, b.detection, "{}", kind.name());
        assert_eq!(a.counts, b.counts, "{}", kind.name());
        assert_eq!(a.trace_stats.counted_samples, b.trace_stats.counted_samples);
        assert_eq!(a.abit_stats.observations, b.abit_stats.observations);
        // Replay logs agree epoch by epoch.
        assert_eq!(a.log.epochs.len(), b.log.epochs.len());
        for (ea, eb) in a.log.epochs.iter().zip(&b.log.epochs) {
            assert_eq!(ea.truth_mem, eb.truth_mem);
            assert_eq!(ea.profile.abit, eb.profile.abit);
            assert_eq!(ea.profile.trace, eb.profile.trace);
        }
        assert_eq!(a.log.first_touch_order, b.log.first_touch_order);
    }
}

#[test]
fn ranked_profiles_are_identical_across_runs() {
    // The policy-facing artifact is the *ranked* page list. Two runs with
    // the same seed must produce identical rank vectors, epoch by epoch,
    // under every rank source — not just identical raw count maps.
    for kind in [WorkloadKind::WebServing, WorkloadKind::Gups] {
        let opts = RunOptions::new(Scale::quick()).dense();
        let a = run_workload(kind, &opts);
        let b = run_workload(kind, &opts);
        assert_eq!(a.log.epochs.len(), b.log.epochs.len(), "{}", kind.name());
        for (i, (ea, eb)) in a.log.epochs.iter().zip(&b.log.epochs).enumerate() {
            for source in RankSource::ALL {
                assert_eq!(
                    ea.profile.ranked(source),
                    eb.profile.ranked(source),
                    "{} epoch {i} {source:?}",
                    kind.name()
                );
            }
        }
    }
}

/// Drive `kind` on a fresh machine and return the lifetime ground truth as
/// a sorted (page, accesses) vector.
fn lifetime_truth(kind: WorkloadKind) -> Vec<(u64, u64)> {
    let scale = Scale::quick();
    let cfg = scaled_config(kind, &scale);
    let mut machine: Machine = profiling_machine(&cfg, &scale, scale.base_period);
    let mut gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    let mut lifetime: KeyMap<u64, u64> = KeyMap::default();
    for _ in 0..scale.epochs {
        let streams: Vec<(Pid, &mut dyn OpStream)> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
            .collect();
        Runner::new(streams).run(&mut machine, scale.ops_per_epoch);
        for (k, c) in machine.advance_epoch().mem_accesses {
            *lifetime.entry(k).or_insert(0) += c;
        }
    }
    let mut v: Vec<(u64, u64)> = lifetime.into_iter().collect();
    v.sort_unstable();
    v
}

#[test]
fn ground_truth_is_identical_across_runs() {
    // The simulator's ground-truth accounting itself must be bit-stable:
    // same seed, same machine, same lifetime access counts.
    for kind in [WorkloadKind::DataCaching, WorkloadKind::Gups] {
        let a = lifetime_truth(kind);
        let b = lifetime_truth(kind);
        assert!(!a.is_empty(), "{} produced no truth", kind.name());
        assert_eq!(a, b, "{}", kind.name());
    }
}

#[test]
fn mode_changes_do_not_perturb_the_workload_itself() {
    // The op stream a generator produces must not depend on which
    // profilers observe it: ground truth is identical under every mode.
    let base = run_workload(
        WorkloadKind::DataCaching,
        &RunOptions::new(Scale::quick()).with_mode(ProfMode::None),
    );
    let profiled = run_workload(
        WorkloadKind::DataCaching,
        &RunOptions::new(Scale::quick()).with_mode(ProfMode::Both),
    );
    for (eb, ep) in base.log.epochs.iter().zip(&profiled.log.epochs) {
        assert_eq!(
            eb.truth_mem, ep.truth_mem,
            "profiling perturbed the access stream"
        );
    }
    assert_eq!(base.log.first_touch_order, profiled.log.first_touch_order);
}

#[test]
fn different_seeds_change_results() {
    // Sanity check against accidentally hardcoded streams: reseeding the
    // workload must change what the profiler sees for a randomized access
    // pattern like GUPS.
    let a = {
        let cfg = WorkloadKind::Gups.default_config();
        cfg.seed
    };
    // Spawn directly with a different seed and compare op streams.
    let cfg1 = WorkloadKind::Gups.default_config();
    let cfg2 = cfg1.with_seed(a ^ 0xDEAD_BEEF);
    let mut g1 = cfg1.spawn();
    let mut g2 = cfg2.spawn();
    let mut same = 0;
    for _ in 0..256 {
        if g1[0].next_op() == g2[0].next_op() {
            same += 1;
        }
    }
    assert!(same < 200, "reseeding had almost no effect ({same}/256)");
}
