//! Web-Serving (CloudSuite, Elgg + Faban clients), paper Table III:
//! Faban workload generator, 3 servers, 100 clients.
//!
//! A social-web stack serving page requests: session state, templates and
//! opcode caches form a small, extremely hot working set re-read on every
//! request, while user objects and media metadata form a long uniform tail
//! touched once per request. Most requests hit only warm structures — so
//! LLC misses (IBS food) are rare, but the breadth of lightly-touched pages
//! keeps A-bit counts high. This is the workload where the paper's Table IV
//! shows A-bit detecting ~8x more pages than IBS — the reverse of
//! GUPS/XSBench — and why TMP needs *both* sources.

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const SESSION_READ: u32 = 0x8001;
    pub const SESSION_WRITE: u32 = 0x8002;
    pub const TEMPLATE_READ: u32 = 0x8003;
    pub const OBJECT_READ: u32 = 0x8004;
    pub const LOG_APPEND: u32 = 0x8005;
}

/// Hot-structure accesses per request.
const HOT_TOUCHES: usize = 12;

/// Tail-object accesses per request.
const TAIL_TOUCHES: usize = 2;

/// Generator state for one web-server instance.
pub struct WebServing {
    /// Sessions + templates + opcode caches: the hot set.
    hot: Region,
    /// User objects / media metadata: the long tail.
    objects: Region,
    /// Append-only access log.
    log: Region,
    hot_zipf: Zipf,
    rng: Rng,
    mixer: ComputeMixer,
    queue: OpQueue,
    log_cursor: u64,
    requests: u64,
}

impl WebServing {
    /// One server with a `pages`-page footprint.
    pub fn new(pages: u64, _rank: usize, mut rng: Rng) -> Self {
        // 1/16 hot set, small log, rest tail objects.
        let hot_pages = (pages / 16).max(2);
        let log_pages = (pages / 64).max(1);
        let object_pages = (pages - hot_pages - log_pages).max(4);
        let hot_zipf = Zipf::new(hot_pages * PAGE_SIZE / 64, 0.8);
        let rng2 = rng.fork();
        Self {
            hot: Region::new(0, hot_pages),
            objects: Region::new(1, object_pages),
            log: Region::new(2, log_pages),
            hot_zipf,
            rng: rng2,
            // Request handling is branch/ALU heavy between accesses.
            mixer: ComputeMixer::new(5),
            queue: OpQueue::new(),
            log_cursor: 0,
            requests: 0,
        }
    }

    fn step(&mut self) {
        self.requests += 1;
        // Session lookup + template renders: skewed over the hot set.
        for t in 0..HOT_TOUCHES {
            let e = self.hot_zipf.sample(&mut self.rng);
            let sitet = if t == 0 {
                site::SESSION_READ
            } else {
                site::TEMPLATE_READ
            };
            self.queue.load(self.hot.elem(e, 64), sitet);
        }
        // Session state update.
        let s = self.hot_zipf.sample(&mut self.rng);
        self.queue.store(self.hot.elem(s, 64), site::SESSION_WRITE);
        // Tail objects: uniform, touched once.
        let obj_elems = self.objects.capacity(256);
        for _ in 0..TAIL_TOUCHES {
            let o = self.rng.below(obj_elems);
            self.queue
                .load(self.objects.elem(o, 256), site::OBJECT_READ);
        }
        // Append to the access log (pure sequential stores).
        let log_bytes = self.log.bytes();
        self.queue
            .store(self.log.at(self.log_cursor % log_bytes), site::LOG_APPEND);
        self.log_cursor += 64;
    }
}

crate::common::impl_mixed_stream!(WebServing);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeySet;

    #[test]
    fn hot_set_absorbs_most_traffic() {
        let mut ws = WebServing::new(4096, 0, Rng::new(1));
        let hot = ws.hot.vpn_range();
        let (mut hot_hits, mut total) = (0u64, 0u64);
        for _ in 0..50_000 {
            if let WorkOp::Mem { va, .. } = ws.next_op() {
                total += 1;
                if hot.contains(&va.vpn().0) {
                    hot_hits += 1;
                }
            }
        }
        assert!(
            hot_hits as f64 > total as f64 * 0.7,
            "hot set took {hot_hits}/{total}"
        );
    }

    #[test]
    fn tail_breadth_exceeds_hot_breadth() {
        let mut ws = WebServing::new(4096, 0, Rng::new(2));
        let hot = ws.hot.vpn_range();
        let obj = ws.objects.vpn_range();
        let mut hot_pages = KeySet::default();
        let mut obj_pages = KeySet::default();
        for _ in 0..200_000 {
            if let WorkOp::Mem { va, .. } = ws.next_op() {
                let p = va.vpn().0;
                if hot.contains(&p) {
                    hot_pages.insert(p);
                } else if obj.contains(&p) {
                    obj_pages.insert(p);
                }
            }
        }
        assert!(
            obj_pages.len() > hot_pages.len() * 4,
            "tail {} vs hot {}",
            obj_pages.len(),
            hot_pages.len()
        );
    }

    #[test]
    fn log_is_written_sequentially() {
        let mut ws = WebServing::new(1024, 0, Rng::new(3));
        let log = ws.log.vpn_range();
        let mut last: Option<u64> = None;
        for _ in 0..100_000 {
            if let WorkOp::Mem {
                va, store: true, ..
            } = ws.next_op()
            {
                if log.contains(&va.vpn().0) {
                    if let Some(prev) = last {
                        // Allow wraparound to the log base.
                        assert!(va.0 == prev + 64 || va.0 < prev, "non-sequential log");
                    }
                    last = Some(va.0);
                }
            }
        }
        assert!(last.is_some());
    }

    #[test]
    fn requests_are_counted() {
        let mut ws = WebServing::new(256, 0, Rng::new(4));
        for _ in 0..10_000 {
            let _ = ws.next_op();
        }
        assert!(ws.requests > 100);
    }
}
