//! Property-based tests for TMP's ranking and reporting invariants.

use proptest::prelude::*;

use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_core::report::{cdf_points, heat_concentration};

fn arbitrary_profile() -> impl Strategy<Value = EpochProfile> {
    (
        prop::collection::hash_map(0u64..500, 1u64..100, 0..60),
        prop::collection::hash_map(0u64..500, 1u64..100, 0..60),
    )
        .prop_map(|(abit, trace)| EpochProfile { abit, trace })
}

proptest! {
    #[test]
    fn combined_rank_is_sum_of_sources(profile in arbitrary_profile(), key in 0u64..500) {
        let a = profile.rank_of(key, RankSource::ABit);
        let t = profile.rank_of(key, RankSource::Trace);
        prop_assert_eq!(profile.rank_of(key, RankSource::Combined), a + t);
    }

    #[test]
    fn ranked_lists_are_sorted_and_complete(profile in arbitrary_profile()) {
        for source in RankSource::ALL {
            let ranked = profile.ranked(source);
            // Sorted descending by rank.
            for w in ranked.windows(2) {
                prop_assert!(w[0].rank >= w[1].rank);
            }
            // Every entry has positive rank equal to rank_of.
            for r in &ranked {
                prop_assert!(r.rank > 0);
                prop_assert_eq!(r.rank, profile.rank_of(r.key.pack(), source));
            }
            // Completeness: every key with positive rank appears.
            let keys: tmprof_sim::keymap::KeySet<u64> =
                ranked.iter().map(|r| r.key.pack()).collect();
            for k in profile.abit.keys().chain(profile.trace.keys()) {
                if profile.rank_of(*k, source) > 0 {
                    prop_assert!(keys.contains(k));
                }
            }
        }
    }

    #[test]
    fn top_k_is_exactly_the_ranked_prefix(profile in arbitrary_profile(), k in 0usize..80) {
        // The partial-selection fast path must agree with the reference
        // ranking element-for-element (same (rank desc, key asc) order),
        // including at k = 0, k beyond the population, and on ties.
        for source in RankSource::ALL {
            let full = profile.ranked(source);
            let top = profile.top_k(source, k);
            prop_assert_eq!(&top[..], &full[..k.min(full.len())], "{:?} k={}", source, k);
        }
    }

    #[test]
    fn combined_ranking_contains_both_sources(profile in arbitrary_profile()) {
        let combined_len = profile.ranked(RankSource::Combined).len();
        let abit_len = profile.ranked(RankSource::ABit).len();
        let trace_len = profile.ranked(RankSource::Trace).len();
        prop_assert!(combined_len >= abit_len);
        prop_assert!(combined_len >= trace_len);
        prop_assert!(combined_len <= abit_len + trace_len);
    }

    #[test]
    fn detection_counts_are_consistent(profile in arbitrary_profile()) {
        let (a, t, both) = profile.detection_counts();
        prop_assert_eq!(a, profile.abit.len());
        prop_assert_eq!(t, profile.trace.len());
        prop_assert!(both <= a.min(t));
    }

    #[test]
    fn cdf_is_a_distribution(counts in prop::collection::vec(0u64..1000, 1..200)) {
        let points = cdf_points(counts.clone());
        prop_assert!(!points.is_empty());
        // Strictly increasing in both coordinates, ending at 1.0.
        for w in points.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 < w[1].1 + 1e-12);
        }
        prop_assert!((points.last().unwrap().1 - 1.0).abs() < 1e-9);
        // The largest count appears as the last x.
        prop_assert_eq!(points.last().unwrap().0, *counts.iter().max().unwrap());
    }

    #[test]
    fn heat_concentration_bounds(
        counts in prop::collection::vec(0u64..1000, 1..200),
        frac in 0.01f64..1.0,
    ) {
        let c = heat_concentration(counts.clone(), frac);
        prop_assert!((0.0..=1.0).contains(&c));
        // Taking everything captures everything (when any heat exists).
        let all = heat_concentration(counts.clone(), 1.0);
        let total: u64 = counts.iter().sum();
        if total > 0 {
            prop_assert!((all - 1.0).abs() < 1e-9);
            // Monotone in the fraction.
            prop_assert!(c <= all + 1e-12);
        } else {
            prop_assert_eq!(all, 0.0);
        }
    }
}
