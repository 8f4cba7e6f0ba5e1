//! The live epoch loop: run → profile → decide → move.
//!
//! [`EpochRunner`] drives the whole TMP-powered placement mechanism of
//! §IV on a running machine: each epoch executes a budget of workload ops,
//! closes the TMP epoch (collecting the profile), hands the profile to a
//! [`PlacementPolicy`], and applies the nomination through the
//! [`PageMover`].

use tmprof_core::profiler::Tmp;
use tmprof_sim::machine::Machine;
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::Tier;
use tmprof_sim::tlb::Pid;

use crate::mover::{MoveReport, PageMover};
use crate::policies::PlacementPolicy;

/// Per-epoch observable metrics.
#[derive(Clone, Copy, Debug)]
pub struct EpochMetrics {
    /// Epoch index.
    pub epoch: u32,
    /// Tier-1 hitrate among memory accesses during the epoch.
    pub tier1_hitrate: f64,
    /// Pages the policy nominated.
    pub nominated: usize,
    /// What the mover did.
    pub moves: MoveReport,
    /// Memory accesses observed (ground truth).
    pub mem_accesses: u64,
}

/// Drives epochs over one machine.
pub struct EpochRunner {
    /// Tier-1 capacity handed to the policy each epoch, in pages.
    capacity: usize,
    mover: PageMover,
    metrics: Vec<EpochMetrics>,
}

impl EpochRunner {
    /// Runner with an explicit tier-1 page budget for the policy.
    pub fn new(capacity: usize, mover: PageMover) -> Self {
        Self {
            capacity,
            mover,
            metrics: Vec::new(),
        }
    }

    /// Runner whose budget is the machine's whole tier-1 size.
    pub fn with_machine_capacity(machine: &Machine, mover: PageMover) -> Self {
        Self::new(machine.memory().spec(Tier::Tier1).frames as usize, mover)
    }

    /// Execute one epoch: `ops_per_stream` ops per process, then profile,
    /// decide, and move.
    pub fn run_epoch(
        &mut self,
        machine: &mut Machine,
        tmp: &mut Tmp,
        policy: &mut dyn PlacementPolicy,
        streams: &mut [(Pid, &mut dyn OpStream)],
        ops_per_stream: u64,
    ) -> EpochMetrics {
        // Counters before, to compute this epoch's hitrate delta.
        let before = machine.aggregate_counts();

        {
            let borrowed: Vec<(Pid, &mut dyn OpStream)> = streams
                .iter_mut()
                .map(|(pid, s)| (*pid, &mut **s as &mut dyn OpStream))
                .collect();
            Runner::new(borrowed).run(machine, ops_per_stream);
        }

        let report = tmp.end_epoch(machine);
        let after = machine.aggregate_counts();
        let delta = after.delta_since(&before);
        let mem_accesses = report.truth.total_mem_accesses();

        // Decide and move.
        let placement = policy.select(&report.profile, self.capacity);
        let nominated = placement.tier1_pages.len();
        let moves = self.mover.apply(machine, &placement);

        let metrics = EpochMetrics {
            epoch: report.epoch,
            tier1_hitrate: delta.tier1_hitrate(),
            nominated,
            moves,
            mem_accesses,
        };
        self.metrics.push(metrics);
        metrics
    }

    /// Run `epochs` consecutive epochs.
    pub fn run(
        &mut self,
        machine: &mut Machine,
        tmp: &mut Tmp,
        policy: &mut dyn PlacementPolicy,
        streams: &mut [(Pid, &mut dyn OpStream)],
        ops_per_stream: u64,
        epochs: u32,
    ) {
        for _ in 0..epochs {
            self.run_epoch(machine, tmp, policy, streams, ops_per_stream);
        }
    }

    /// Metrics of every epoch run so far.
    pub fn metrics(&self) -> &[EpochMetrics] {
        &self.metrics
    }

    /// Access-weighted tier-1 hitrate across all epochs after the first
    /// (the warm-up epoch has no placement decisions behind it).
    pub fn steady_state_hitrate(&self) -> f64 {
        let tail = if self.metrics.len() > 1 {
            &self.metrics[1..]
        } else {
            &self.metrics[..]
        };
        let total: u64 = tail.iter().map(|m| m.mem_accesses).sum();
        if total == 0 {
            return 0.0;
        }
        tail.iter()
            .map(|m| m.tier1_hitrate * m.mem_accesses as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mover::MoverConfig;
    use crate::policies::{FirstTouchPolicy, HistoryPolicy};
    use tmprof_core::profiler::{Tmp, TmpConfig};
    use tmprof_core::rank::RankSource;
    use tmprof_sim::prelude::*;

    /// A stream with a stable hot set that does NOT fit in tier 1 together
    /// with the cold pages that were touched first.
    struct SkewStream {
        rng: Rng,
        hot_pages: u64,
        cold_pages: u64,
        i: u64,
    }

    impl OpStream for SkewStream {
        fn next_op(&mut self) -> WorkOp {
            self.i += 1;
            // First, touch all the cold pages once (they grab tier 1 by
            // first-come-first-allocate); afterwards hammer the hot set.
            let page = if self.i <= self.cold_pages {
                self.i - 1
            } else {
                self.cold_pages + self.rng.below(self.hot_pages)
            };
            let line = (self.i * 64) % PAGE_SIZE;
            WorkOp::Mem {
                va: VirtAddr(page * PAGE_SIZE + line),
                store: false,
                site: 0,
            }
        }
    }

    fn setup(t1: u64) -> (Machine, Tmp, SkewStream) {
        let mut m = Machine::new(MachineConfig::scaled(1, t1, 4096, 64));
        m.add_process(1);
        let tmp = Tmp::new(TmpConfig::paper_defaults(64), &mut m);
        let stream = SkewStream {
            rng: Rng::new(7),
            hot_pages: 32,
            cold_pages: t1,
            i: 0,
        };
        (m, tmp, stream)
    }

    #[test]
    fn history_policy_improves_hitrate_over_first_touch() {
        // First-touch: cold pages own tier 1 forever; hot set stuck in
        // tier 2 -> low hitrate.
        let (mut m1, mut tmp1, mut s1) = setup(64);
        let mut runner1 = EpochRunner::with_machine_capacity(&m1, PageMover::default());
        let mut ft = FirstTouchPolicy;
        let mut streams1: Vec<(Pid, &mut dyn OpStream)> = vec![(1, &mut s1)];
        runner1.run(&mut m1, &mut tmp1, &mut ft, &mut streams1, 30_000, 5);
        let ft_hitrate = runner1.steady_state_hitrate();

        // History over TMP data: hot pages promoted after epoch 0.
        let (mut m2, mut tmp2, mut s2) = setup(64);
        let mut runner2 = EpochRunner::with_machine_capacity(&m2, PageMover::default());
        let mut hist = HistoryPolicy::new(RankSource::Combined);
        let mut streams2: Vec<(Pid, &mut dyn OpStream)> = vec![(1, &mut s2)];
        runner2.run(&mut m2, &mut tmp2, &mut hist, &mut streams2, 30_000, 5);
        let hist_hitrate = runner2.steady_state_hitrate();

        assert!(
            hist_hitrate > ft_hitrate + 0.2,
            "history {hist_hitrate} vs first-touch {ft_hitrate}"
        );
    }

    #[test]
    fn mover_actually_migrates_under_history() {
        let (mut m, mut tmp, mut s) = setup(64);
        let mut runner = EpochRunner::with_machine_capacity(&m, PageMover::default());
        let mut hist = HistoryPolicy::new(RankSource::Combined);
        let mut streams: Vec<(Pid, &mut dyn OpStream)> = vec![(1, &mut s)];
        runner.run(&mut m, &mut tmp, &mut hist, &mut streams, 30_000, 3);
        let promoted: u64 = runner.metrics().iter().map(|e| e.moves.promoted).sum();
        assert!(promoted > 0, "no promotions happened");
    }

    #[test]
    fn metrics_report_hitrate_in_unit_range() {
        let (mut m, mut tmp, mut s) = setup(32);
        let mut runner = EpochRunner::with_machine_capacity(&m, PageMover::default());
        let mut ft = FirstTouchPolicy;
        let mut streams: Vec<(Pid, &mut dyn OpStream)> = vec![(1, &mut s)];
        let metrics = runner.run_epoch(&mut m, &mut tmp, &mut ft, &mut streams, 5_000);
        assert!((0.0..=1.0).contains(&metrics.tier1_hitrate));
        assert_eq!(metrics.epoch, 0);
    }

    #[test]
    fn capacity_limits_nominations() {
        let (mut m, mut tmp, mut s) = setup(64);
        let mover = PageMover::new(MoverConfig::default());
        let mut runner = EpochRunner::new(8, mover);
        let mut hist = HistoryPolicy::new(RankSource::Combined);
        let mut streams: Vec<(Pid, &mut dyn OpStream)> = vec![(1, &mut s)];
        runner.run(&mut m, &mut tmp, &mut hist, &mut streams, 20_000, 3);
        for e in runner.metrics() {
            assert!(e.nominated <= 8);
        }
    }
}
