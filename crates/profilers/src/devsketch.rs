//! Device-side hot-page sketch (NeoMem-style, see PAPERS.md).
//!
//! A CXL/NVM device controller sees every access that reaches it — no CPU
//! cooperation, no PTE walks, no sampling gaps. NeoMem exploits this with a
//! hot-page tracker in the device: a count-min sketch absorbing the access
//! stream plus a small Top-K candidate table of the hottest frames. This
//! module models that tracker over the simulator's slow-tier access stream
//! ([`Machine::take_device_accesses`](tmprof_sim::machine::Machine)) and
//! reports a per-epoch Top-K that the rank layer exposes as the
//! `RankSource::DevSketch` profiling source.
//!
//! Everything is deterministic: the sketch rows hash with fixed splitmix64
//! seeds, the candidate table breaks ties by (estimate, frame number), and
//! the reported Top-K is sorted (estimate descending, frame ascending) —
//! the same stream always yields the same list in the same order
//! (property-tested in `tests/devsketch_props.rs`).

use tmprof_sim::addr::Pfn;

/// Default candidate-table size ([`DevSketchConfig::default`]).
pub const DEFAULT_K: usize = 64;

/// Count-min geometry: rows of counters, each indexed by an independent
/// hash. Small on purpose — the whole point of the device tracker is a
/// few KiB of SRAM next to the controller.
const CMS_DEPTH: usize = 4;
const CMS_WIDTH: usize = 1024;

/// Fixed per-row seeds (splitmix64 of 1..=4); constants so two sketches
/// built anywhere agree.
const ROW_SEEDS: [u64; CMS_DEPTH] = [
    0x910a2dec89025cc1,
    0xbeeb8da1658eec67,
    0xf893a2eefb32555e,
    0x71c18690ee42c90b,
];

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Sketch configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DevSketchConfig {
    /// Candidate-table size: how many hot frames the device reports per
    /// epoch.
    pub k: usize,
}

impl Default for DevSketchConfig {
    fn default() -> Self {
        Self { k: DEFAULT_K }
    }
}

/// One candidate-table entry.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    pfn: Pfn,
    /// Count-min estimate when the frame last hit the table.
    estimate: u64,
}

/// Cumulative feed statistics (lifetime, not per-epoch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DevSketchStats {
    /// Accesses absorbed by the sketch.
    pub fed: u64,
    /// Epoch resets.
    pub epochs: u64,
}

/// The device-resident tracker: count-min sketch + SpaceSaving-style
/// bounded candidate table.
pub struct DevSketch {
    cfg: DevSketchConfig,
    rows: Vec<u64>,
    candidates: Vec<Candidate>,
    stats: DevSketchStats,
}

impl DevSketch {
    /// New, empty tracker.
    pub fn new(cfg: DevSketchConfig) -> Self {
        Self {
            cfg,
            rows: vec![0; CMS_DEPTH * CMS_WIDTH],
            candidates: Vec::with_capacity(cfg.k),
            stats: DevSketchStats::default(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &DevSketchConfig {
        &self.cfg
    }

    /// Lifetime stats.
    pub fn stats(&self) -> DevSketchStats {
        self.stats
    }

    #[inline]
    // tmprof-lint: allow(panic-reachability) — `row < CMS_DEPTH` at every call site indexes `ROW_SEEDS: [u64; CMS_DEPTH]`
    fn slot(row: usize, pfn: Pfn) -> usize {
        let h = splitmix64(pfn.0 ^ ROW_SEEDS[row]);
        row * CMS_WIDTH + (h as usize % CMS_WIDTH)
    }

    /// Absorb one slow-tier access and return the frame's updated
    /// count-min estimate (minimum across rows, the classic CMS bound).
    // tmprof-lint: allow(panic-reachability) — `slot` returns `row * CMS_WIDTH + (h % CMS_WIDTH) < CMS_DEPTH * CMS_WIDTH`, the fixed length of `rows`
    pub fn feed(&mut self, pfn: Pfn) -> u64 {
        self.stats.fed += 1;
        let mut estimate = u64::MAX;
        for row in 0..CMS_DEPTH {
            let s = Self::slot(row, pfn);
            self.rows[s] += 1;
            estimate = estimate.min(self.rows[s]);
        }
        self.offer(pfn, estimate);
        estimate
    }

    /// Absorb a drained access stream in order.
    pub fn feed_stream(&mut self, stream: &[Pfn]) {
        for &pfn in stream {
            self.feed(pfn);
        }
    }

    /// SpaceSaving-style admission: a frame enters the bounded table if
    /// there is room or if its estimate strictly beats the current minimum
    /// (deterministic victim: smallest estimate, largest frame number).
    // tmprof-lint: allow(panic-reachability) — `mi` comes from `enumerate()` over `candidates`, so it is always in bounds
    fn offer(&mut self, pfn: Pfn, estimate: u64) {
        if let Some(c) = self.candidates.iter_mut().find(|c| c.pfn == pfn) {
            c.estimate = c.estimate.max(estimate);
            return;
        }
        if self.candidates.len() < self.cfg.k {
            self.candidates.push(Candidate { pfn, estimate });
            return;
        }
        let victim = self
            .candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.estimate.cmp(&b.estimate).then(b.pfn.0.cmp(&a.pfn.0)))
            .map(|(i, c)| (i, c.estimate));
        if let Some((mi, min_estimate)) = victim {
            if estimate > min_estimate {
                self.candidates[mi] = Candidate { pfn, estimate };
            }
        }
    }

    /// The hottest frames this epoch: `(frame, estimate)`, estimate
    /// descending, frame ascending on ties. Order-stable: the same fed
    /// stream produces the same vector.
    pub fn top_k(&self) -> Vec<(Pfn, u64)> {
        let mut out: Vec<(Pfn, u64)> = self
            .candidates
            .iter()
            .map(|c| (c.pfn, c.estimate))
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }

    /// Clear the sketch and candidate table for the next epoch (the
    /// device's per-epoch counter reset, mirroring the page descriptors'
    /// `reset_epoch`).
    pub fn reset_epoch(&mut self) {
        self.rows.iter_mut().for_each(|c| *c = 0);
        self.candidates.clear();
        self.stats.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(k: usize) -> DevSketch {
        DevSketch::new(DevSketchConfig { k })
    }

    #[test]
    fn counts_are_exact_without_collisions() {
        let mut s = sketch(8);
        for _ in 0..5 {
            s.feed(Pfn(7));
        }
        s.feed(Pfn(9));
        let top = s.top_k();
        assert_eq!(top[0], (Pfn(7), 5));
        assert_eq!(top[1], (Pfn(9), 1));
        assert_eq!(s.stats().fed, 6);
    }

    #[test]
    fn table_is_bounded_and_keeps_the_hottest() {
        let mut s = sketch(2);
        for pfn in 0..10u64 {
            for _ in 0..=pfn {
                s.feed(Pfn(pfn));
            }
        }
        let top = s.top_k();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, Pfn(9));
        assert_eq!(top[1].0, Pfn(8));
    }

    #[test]
    fn ties_order_by_frame_number() {
        let mut s = sketch(8);
        for pfn in [5u64, 3, 4] {
            s.feed(Pfn(pfn));
        }
        let top = s.top_k();
        assert_eq!(
            top.iter().map(|t| t.0 .0).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = sketch(4);
        s.feed(Pfn(1));
        s.reset_epoch();
        assert!(s.top_k().is_empty());
        assert_eq!(s.feed(Pfn(1)), 1, "counters cleared");
        assert_eq!(s.stats().epochs, 1);
        assert_eq!(s.stats().fed, 2, "lifetime stats survive the reset");
    }

    #[test]
    fn same_stream_same_topk() {
        let stream: Vec<Pfn> = (0..500u64).map(|i| Pfn(splitmix64(i) % 64)).collect();
        let mut a = sketch(16);
        let mut b = sketch(16);
        a.feed_stream(&stream);
        b.feed_stream(&stream);
        assert_eq!(a.top_k(), b.top_k());
    }
}
