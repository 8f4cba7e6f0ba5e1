//! Per-tenant migration admission control (TierBPF-style).
//!
//! On a multi-tenant node an unthrottled mover lets one churning tenant
//! monopolize the fast tier: every epoch its freshly hot pages evict the
//! other tenants' residents, and the migration bandwidth itself crowds out
//! demand traffic. TierBPF's answer — and ours — is a token bucket per
//! tenant per direction: each epoch refills `quota` tokens up to a
//! `burst * quota` cap, every page moved on the tenant's behalf spends
//! one, and a migration with an empty bucket is *rejected* (skipped and
//! counted, never queued).
//!
//! Attribution follows who caused the move: promotions spend the
//! *nominated* page owner's promotion tokens, demotions spend the
//! *victim* owner's demotion tokens — a tenant with a stable working set
//! cannot be demoted into the ground by a neighbor's churn once its
//! demotion bucket runs dry that epoch.
//!
//! Rejections are buffered here as data (pid → pages), not journaled at
//! the rejection site: in fleet runs the mover executes on a worker
//! thread whose journal is dropped, so the coordinator drains
//! [`AdmissionControl::take_rejections`] and records the
//! `admit_rejected` events itself in deterministic shard order. The
//! `sched.admit_rejected` *metric* is a commuting counter and is bumped
//! inline (worker deltas fold back).
//!
//! The default configuration is unlimited: no bucket is ever consulted
//! and the mover's behavior is bit-identical to a build without admission
//! control — which is what keeps all 28 committed default-scale CSVs
//! byte-for-byte stable. Quotas are set in code, through the
//! `FleetConfig::admission` field.

use tmprof_obs::metrics::Metric as ObsMetric;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::tlb::Pid;

/// A per-tenant, per-direction token bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenBucket {
    /// Tokens currently available.
    tokens: u64,
    /// Tokens added at each epoch refill.
    refill: u64,
    /// Hard cap: `burst * refill`.
    cap: u64,
}

impl TokenBucket {
    /// A bucket refilling `refill` tokens per epoch, holding at most
    /// `burst` refills' worth; starts full.
    pub fn new(refill: u64, burst: u64) -> Self {
        let cap = refill.saturating_mul(burst.max(1));
        Self {
            tokens: cap,
            refill,
            cap,
        }
    }

    /// Epoch horizon: add one refill, saturating at the cap.
    pub fn refill_epoch(&mut self) {
        self.tokens = self.tokens.saturating_add(self.refill).min(self.cap);
    }

    /// Spend one token; `false` (and no change) when the bucket is empty.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }
}

/// Admission quotas. `None` in a direction disables that bucket entirely
/// (unlimited, zero-overhead — the mover never consults it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Pages a tenant may have promoted on its behalf per epoch.
    pub promo_quota: Option<u64>,
    /// Pages a tenant may have demoted on its behalf per epoch.
    pub demo_quota: Option<u64>,
    /// Bucket cap as a multiple of the per-epoch refill (≥ 1).
    pub burst: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl AdmissionConfig {
    /// No quotas: every migration admitted, nothing tracked.
    pub fn unlimited() -> Self {
        Self {
            promo_quota: None,
            demo_quota: None,
            burst: 1,
        }
    }
}

/// Per-tenant admission state for one fleet shard.
#[derive(Clone, Debug, Default)]
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    promo: KeyMap<Pid, TokenBucket>,
    demo: KeyMap<Pid, TokenBucket>,
    /// Pages rejected since the last drain, per tenant.
    rejections: KeyMap<Pid, u64>,
    total_rejected: u64,
}

impl AdmissionControl {
    /// New controller; with the default (unlimited) config every call
    /// admits and nothing is allocated.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Epoch horizon: refill every tenant's buckets.
    pub fn refill_epoch(&mut self) {
        for b in self.promo.values_mut() {
            b.refill_epoch();
        }
        for b in self.demo.values_mut() {
            b.refill_epoch();
        }
    }

    /// May one more page be promoted on `pid`'s behalf this epoch?
    /// Spends a token on admit; counts a rejection otherwise.
    pub fn admit_promotion(&mut self, pid: Pid) -> bool {
        let Some(quota) = self.cfg.promo_quota else {
            return true;
        };
        let burst = self.cfg.burst;
        let ok = self
            .promo
            .entry(pid)
            .or_insert_with(|| TokenBucket::new(quota, burst))
            .try_take();
        if !ok {
            self.reject(pid);
        }
        ok
    }

    /// May one more page be demoted on `pid`'s behalf this epoch?
    /// Spends a token on admit; counts a rejection otherwise.
    pub fn admit_demotion(&mut self, pid: Pid) -> bool {
        let Some(quota) = self.cfg.demo_quota else {
            return true;
        };
        let burst = self.cfg.burst;
        let ok = self
            .demo
            .entry(pid)
            .or_insert_with(|| TokenBucket::new(quota, burst))
            .try_take();
        if !ok {
            self.reject(pid);
        }
        ok
    }

    fn reject(&mut self, pid: Pid) {
        *self.rejections.entry(pid).or_insert(0) += 1;
        self.total_rejected += 1;
        tmprof_obs::metrics::inc(ObsMetric::SchedAdmitRejected);
    }

    /// Drain the buffered rejections as `(pid, pages)` sorted by pid —
    /// the coordinator journals these in deterministic order.
    pub fn take_rejections(&mut self) -> Vec<(Pid, u64)> {
        let mut out: Vec<(Pid, u64)> = std::mem::take(&mut self.rejections).into_iter().collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdmissionControl {
        /// Lifetime rejected-page count.
        pub(crate) fn total_rejected(&self) -> u64 {
            self.total_rejected
        }
    }

    #[test]
    fn bucket_spends_and_refills_to_cap() {
        let mut b = TokenBucket::new(3, 2);
        assert_eq!(b.tokens, 6, "starts at the burst cap");
        for _ in 0..6 {
            assert!(b.try_take());
        }
        assert!(!b.try_take(), "empty bucket rejects");
        assert_eq!(b.tokens, 0);
        b.refill_epoch();
        assert_eq!(b.tokens, 3, "one refill");
        b.refill_epoch();
        assert_eq!(b.tokens, 6);
        b.refill_epoch();
        assert_eq!(b.tokens, 6, "refill saturates at the cap");
    }

    #[test]
    fn refill_boundary_cases() {
        // Zero-refill bucket: once drained it never recovers.
        let mut b = TokenBucket::new(0, 4);
        assert!(!b.try_take());
        b.refill_epoch();
        assert!(!b.try_take());
        // Burst 0 is clamped to 1 (a cap below one refill is meaningless).
        let b = TokenBucket::new(5, 0);
        assert_eq!(b.tokens, 5);
        // Refill from one-below-cap lands exactly on the cap, not above.
        let mut b = TokenBucket::new(4, 2);
        assert!(b.try_take());
        assert_eq!(b.tokens, 7);
        b.refill_epoch();
        assert_eq!(b.tokens, 8, "cap is exact at the boundary");
        // Saturating construction: huge quota times huge burst must not wrap.
        let b = TokenBucket::new(u64::MAX, 3);
        assert_eq!(b.tokens, u64::MAX);
    }

    #[test]
    fn unlimited_config_admits_everything_and_tracks_nothing() {
        let mut adm = AdmissionControl::new(AdmissionConfig::unlimited());
        for pid in 1..100 {
            assert!(adm.admit_promotion(pid));
            assert!(adm.admit_demotion(pid));
        }
        assert_eq!(adm.total_rejected(), 0);
        assert!(adm.take_rejections().is_empty());
        assert!(adm.config().promo_quota.is_none() && adm.config().demo_quota.is_none());
    }

    #[test]
    fn per_tenant_buckets_are_independent() {
        let mut adm = AdmissionControl::new(AdmissionConfig {
            promo_quota: Some(2),
            demo_quota: Some(1),
            burst: 1,
        });
        // Tenant 1 exhausts its promotion quota; tenant 2 is untouched.
        assert!(adm.admit_promotion(1));
        assert!(adm.admit_promotion(1));
        assert!(!adm.admit_promotion(1));
        assert!(adm.admit_promotion(2));
        // Demotions draw from a separate bucket.
        assert!(adm.admit_demotion(1));
        assert!(!adm.admit_demotion(1));
        assert_eq!(adm.total_rejected(), 2);
        assert_eq!(adm.take_rejections(), vec![(1, 2)]);
        assert!(adm.take_rejections().is_empty(), "drain clears the buffer");
    }

    #[test]
    fn epoch_refill_restores_quotas() {
        let mut adm = AdmissionControl::new(AdmissionConfig {
            promo_quota: Some(1),
            demo_quota: None,
            burst: 2,
        });
        assert!(adm.admit_promotion(7)); // cap 2, spend 1
        assert!(adm.admit_promotion(7)); // spend 2
        assert!(!adm.admit_promotion(7));
        adm.refill_epoch();
        assert!(adm.admit_promotion(7), "refilled");
        assert!(!adm.admit_promotion(7), "but only by one refill");
    }
}
