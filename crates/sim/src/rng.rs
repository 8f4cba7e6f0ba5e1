//! Small deterministic PRNGs used throughout the simulator.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms
//! (experiments are compared against recorded numbers), so we carry our own
//! tiny generators instead of depending on an external crate whose stream
//! might change across versions: SplitMix64 for seeding and Xoshiro256++ for
//! the bulk stream, both public-domain algorithms by Blackman & Vigna.

/// SplitMix64: used to expand a single `u64` seed into generator state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256++: fast, high-quality, 256-bit-state PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 so that similar seeds yield unrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is the one invalid state; SplitMix64 cannot produce
        // four consecutive zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction.
    ///
    /// The tiny modulo bias (< 2^-64 per draw) is irrelevant for workload
    /// generation and avoids a rejection loop on the hot path.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fork an independent stream (for per-core / per-structure generators).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Draws from a Zipf(θ) distribution over `{0, .., n-1}` using the
/// rejection-inversion method of Hörmann & Derflinger, the standard O(1)
/// sampler for large `n` (memcached-style key popularity in the paper's
/// Data-Caching workload).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    h_x1: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl Zipf {
    /// Create a sampler over `n` items with skew `theta` (> 0, != 1 handled).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta > 0.0, "Zipf skew must be positive");
        let h_integral = |x: f64| -> f64 {
            let log_x = x.ln();
            helper1((1.0 - theta) * log_x) * log_x
        };
        let h = |x: f64| -> f64 { (-theta * x.ln()).exp() };
        let h_integral_x1 = h_integral(1.5) - 1.0;
        let h_integral_n = h_integral(n as f64 + 0.5);
        let s = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0), theta);
        Self {
            n,
            theta,
            h_x1: h_integral_x1,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let _ = self.h_x1;
        loop {
            let u = self.h_integral_n + rng.f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inverse(u, self.theta);
            let k64 = x.clamp(1.0, self.n as f64);
            let k = (k64 + 0.5) as u64;
            let k = k.clamp(1, self.n);
            if (k64 - k as f64).abs() <= self.s
                || u >= h_integral_at(k as f64 + 0.5, self.theta) - h_at(k as f64, self.theta)
            {
                return k - 1;
            }
        }
    }
}

fn h_at(x: f64, theta: f64) -> f64 {
    (-theta * x.ln()).exp()
}

fn h_integral_at(x: f64, theta: f64) -> f64 {
    let log_x = x.ln();
    helper1((1.0 - theta) * log_x) * log_x
}

fn h_integral_inverse(x: f64, theta: f64) -> f64 {
    let mut t = x * (1.0 - theta);
    if t < -1.0 {
        t = -1.0;
    }
    (helper2(t) * x).exp()
}

/// `(exp(x) - 1) / x` computed stably near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// `ln(1 + x) / x` computed stably near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::new(1234);
        let mut buckets = [0u32; 10];
        let draws = 100_000;
        for _ in 0..draws {
            buckets[rng.below(10) as usize] += 1;
        }
        let expect = draws as f64 / 10.0;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (b as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} off by {dev:.3}");
        }
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // Head must dominate the tail by a wide margin.
        assert!(
            counts[0] > counts[100] * 5,
            "{} vs {}",
            counts[0],
            counts[100]
        );
        assert!(counts[0] > counts[999] * 20);
    }

    #[test]
    fn zipf_covers_domain_bounds() {
        let zipf = Zipf::new(10, 1.2);
        let mut rng = Rng::new(11);
        let mut seen_max = 0;
        for _ in 0..50_000 {
            let s = zipf.sample(&mut rng);
            assert!(s < 10);
            seen_max = seen_max.max(s);
        }
        assert_eq!(seen_max, 9, "tail item never drawn");
    }

    #[test]
    fn zipf_theta_near_one_is_stable() {
        // theta == 1 hits the log-series branch of the helpers.
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng::new(77);
        let mut b = a.fork();
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }
}
