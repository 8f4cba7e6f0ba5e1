//! Property-based tests for placement policies and the replay evaluator.

use proptest::prelude::*;

use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_policy::hitrate::{
    hitrate_grid_full, hitrate_grid_serial, replay_hitrate, ReplayEpoch, ReplayLog, ReplayPolicy,
    PAPER_RATIOS,
};
use tmprof_policy::mover::{MoverConfig, PageMover};
use tmprof_policy::policies::{HistoryPolicy, Placement, PlacementPolicy};
use tmprof_sim::prelude::*;

fn arbitrary_log() -> impl Strategy<Value = ReplayLog> {
    let epoch = (
        prop::collection::hash_map(0u64..200, 1u64..50, 0..40),
        prop::collection::hash_map(0u64..200, 1u64..50, 0..40),
        prop::collection::hash_map(0u64..200, 1u64..100, 1..60),
    )
        .prop_map(
            |(abit, trace, truth): (_, _, KeyMap<u64, u64>)| ReplayEpoch {
                profile: EpochProfile { abit, trace },
                truth_mem: truth.into_iter().collect(),
            },
        );
    (
        prop::collection::vec(epoch, 1..8),
        prop::collection::btree_set(0u64..200, 1..100),
    )
        .prop_map(|(epochs, ft)| ReplayLog {
            epochs,
            first_touch_order: ft.into_iter().collect(),
        })
}

proptest! {
    #[test]
    fn hitrate_is_always_a_probability(
        log in arbitrary_log(),
        capacity in 0usize..300,
    ) {
        for policy in [ReplayPolicy::Oracle, ReplayPolicy::History, ReplayPolicy::FirstTouch] {
            for source in RankSource::ALL {
                let h = replay_hitrate(&log, policy, source, capacity);
                prop_assert!((0.0..=1.0).contains(&h), "{policy:?}/{source:?}: {h}");
            }
        }
    }

    #[test]
    fn oracle_hitrate_is_monotone_in_capacity(log in arbitrary_log()) {
        let mut prev = -1.0f64;
        for capacity in [0usize, 1, 2, 5, 10, 50, 200, 500] {
            let h = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, capacity);
            prop_assert!(h + 1e-12 >= prev, "capacity {capacity}: {h} < {prev}");
            prev = h;
        }
    }

    #[test]
    fn zero_capacity_oracle_scores_zero(log in arbitrary_log()) {
        prop_assert_eq!(
            replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, 0),
            0.0
        );
    }

    #[test]
    fn infinite_capacity_oracle_hits_everything_profiled(log in arbitrary_log()) {
        // With unbounded capacity the Oracle holds every profiled page, so
        // the only misses are pages the profiling source never saw.
        let h = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, usize::MAX);
        // Manually compute the upper bound.
        let mut hits = 0u64;
        let mut total = 0u64;
        for e in &log.epochs {
            for &(k, v) in &e.truth_mem {
                total += v;
                if e.profile.rank_of(k, RankSource::Combined) > 0 {
                    hits += v;
                }
            }
        }
        let expect = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
        prop_assert!((h - expect).abs() < 1e-12);
    }

    #[test]
    fn history_selection_is_bounded_and_sorted(
        profile in (
            prop::collection::hash_map(0u64..300, 1u64..50, 0..50),
            prop::collection::hash_map(0u64..300, 1u64..50, 0..50),
        ).prop_map(|(abit, trace)| EpochProfile { abit, trace }),
        capacity in 0usize..100,
    ) {
        let mut policy = HistoryPolicy::new(RankSource::Combined);
        let placement = policy.select(&profile, capacity);
        prop_assert!(placement.tier1_pages.len() <= capacity);
        // No duplicates.
        let set: tmprof_sim::keymap::KeySet<u64> =
            placement.tier1_pages.iter().copied().collect();
        prop_assert_eq!(set.len(), placement.tier1_pages.len());
        // Hottest-first ordering.
        let ranks: Vec<u64> = placement
            .tier1_pages
            .iter()
            .map(|&k| profile.rank_of(k, RankSource::Combined))
            .collect();
        for w in ranks.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // Nothing outside the selection ranks strictly higher than the
        // lowest-ranked selected page (top-k property).
        if placement.tier1_pages.len() == capacity && capacity > 0 {
            let cutoff = *ranks.last().unwrap();
            for k in profile.abit.keys().chain(profile.trace.keys()) {
                if !set.contains(k) {
                    prop_assert!(profile.rank_of(*k, RankSource::Combined) <= cutoff);
                }
            }
        }
    }

    #[test]
    fn first_touch_hitrate_ignores_profiles(log in arbitrary_log(), capacity in 0usize..100) {
        let a = replay_hitrate(&log, ReplayPolicy::FirstTouch, RankSource::ABit, capacity);
        let b = replay_hitrate(&log, ReplayPolicy::FirstTouch, RankSource::Combined, capacity);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn cached_parallel_grid_is_float_identical_to_serial(log in arbitrary_log()) {
        // The tentpole contract: the rank-cached, worker-pooled grid must
        // reproduce the seed's per-cell serial evaluation bit-for-bit
        // (u64 hit/total accumulation + one division ⇒ no float drift),
        // at any worker count.
        let serial = hitrate_grid_serial(&log, &PAPER_RATIOS);
        for workers in [1usize, 4] {
            let fast = hitrate_grid_full(&log, &PAPER_RATIOS, Some(workers));
            prop_assert_eq!(serial.len(), fast.len());
            for (a, b) in serial.iter().zip(&fast) {
                prop_assert_eq!(a.policy, b.policy);
                prop_assert_eq!(a.source, b.source);
                prop_assert_eq!(a.ratio_denominator, b.ratio_denominator);
                prop_assert_eq!(
                    a.hitrate.to_bits(),
                    b.hitrate.to_bits(),
                    "{:?}/{:?}/1:{} drifted at {} workers ({} vs {})",
                    a.policy, a.source, a.ratio_denominator, workers, a.hitrate, b.hitrate
                );
            }
        }
    }

    #[test]
    fn two_tier_waterfall_matches_reference(
        touches in prop::collection::vec(0u64..24, 1..48),
        nominate in prop::collection::btree_set(0u64..24, 0..12),
        t1_frames in 1u64..6,
        t2_frames in 1u64..20,
    ) {
        // The N-tier waterfall restricted to two tiers must make exactly
        // the decisions of the retained flat two-tier mover — same report
        // counters, same final page placement — on arbitrary touch
        // sequences and nomination sets, including full-slow-tier and
        // stale-nomination corners. Topology pinned explicitly so the
        // TMPROF_TOPOLOGY CI leg cannot reshape it.
        // Fold the page space onto the machine's capacity so first-touch
        // allocation never exhausts physical memory; nominations keep the
        // full range so stale (never-touched) keys stay reachable.
        let total = t1_frames + t2_frames;
        let build = || {
            let mut m = Machine::new(MachineConfig::scaled_topology(
                1,
                MemTopology::with_frames(t1_frames, t2_frames),
                1 << 20,
            ));
            m.add_process(1);
            for &p in &touches {
                m.touch(0, 1, VirtAddr((p % total) * PAGE_SIZE));
            }
            m
        };
        let placement = Placement {
            tier1_pages: nominate
                .iter()
                .map(|&v| PageKey { pid: 1, vpn: Vpn(v) }.pack())
                .collect(),
        };
        let mut m_new = build();
        let mut m_ref = build();
        let mut mover_new = PageMover::new(MoverConfig::default());
        let mut mover_ref = PageMover::new(MoverConfig::default());
        let r_new = mover_new.apply(&mut m_new, &placement);
        let r_ref = mover_ref.apply_two_tier_reference(&mut m_ref, &placement);
        prop_assert_eq!(r_new, r_ref);
        let tiers_of = |m: &Machine| {
            let mut v: Vec<(u64, Tier)> = m
                .descs()
                .iter_owned()
                .filter_map(|(pfn, d)| {
                    d.owner.map(|k| (k.pack(), m.memory().tier_of(pfn)))
                })
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(tiers_of(&m_new), tiers_of(&m_ref));
    }

    #[test]
    fn hits_never_exceed_accesses(log in arbitrary_log(), capacity in 0usize..100) {
        // Weighted-average property: the run hitrate lies within the range
        // of per-epoch hitrates.
        let h = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Trace, capacity);
        prop_assert!((0.0..=1.0).contains(&h));
    }
}
