//! Seeded, forkable randomness for reproducible simulations.
//!
//! Every stochastic decision in an experiment flows from one root seed.
//! [`SimRng`] wraps a [`rand::rngs::StdRng`] seeded through a SplitMix64
//! expansion (the recommended way to turn a small seed into full-width
//! generator state), and supports deterministic *forking*: independent
//! streams derived from the same root seed so that, e.g., topology
//! generation and query scheduling do not perturb each other when one of
//! them changes how many samples it draws.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
///
/// This is the standard constant set from Steele et al.'s SplitMix64,
/// used here only for seed expansion, never as the simulation generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random generator for simulations.
///
/// Implements [`rand::RngCore`], so it can be used with any `rand`
/// distribution or sampling adapter.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Create a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        }
        SimRng {
            inner: StdRng::from_seed(key),
            seed,
        }
    }

    /// Derive an independent stream identified by `stream`.
    ///
    /// Forks with distinct stream ids from the same parent are
    /// statistically independent and stable: adding draws to one stream
    /// never changes another. The fork depends only on the *root seed* and
    /// the stream id, not on how much the parent has already been used.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix seed and stream through two SplitMix64 rounds so that
        // (seed, stream) pairs with small hamming distance diverge.
        let mut s = self.seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(stream | 1);
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        SimRng::new(a ^ b.rotate_left(17) ^ stream)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, len)` for slice indexing.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Sample from an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse-CDF; 1 - f64() is in (0, 1] so ln never sees zero.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Choose `k` distinct indices out of `n` (reservoir sampling, output
    /// in ascending order of selection position for determinism).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn forks_are_independent_of_parent_usage() {
        let parent1 = SimRng::new(42);
        let mut parent2 = SimRng::new(42);
        // Burn some draws on parent2; forks must still match.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        for _ in 0..50 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn distinct_streams_diverge() {
        let root = SimRng::new(42);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let same = (0..100).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(1);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut r = SimRng::new(2);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(3);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| r.exponential(150.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 150.0).abs() < 3.0, "mean was {mean}");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::new(4);
        let picks = r.sample_indices(100, 10);
        assert_eq!(picks.len(), 10);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sorted.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 paper's test vector seed 0.
        let mut s = 0u64;
        let first = splitmix64(&mut s);
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }
}
