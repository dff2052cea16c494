//! Wide-area latency model.
//!
//! The paper draws pairwise latencies from the **King dataset** — measured
//! round-trip times between 1740 DNS servers, with an average RTT of
//! 180 ms. That dataset is not redistributable here, so
//! [`Topology::king_like`] synthesizes a matrix with the same gross
//! statistics: hosts are embedded in a low-dimensional Euclidean space
//! (geography), per-pair lognormal jitter roughens the embedding (routing
//! inefficiency / access links), and the whole matrix is rescaled so the
//! mean RTT matches a target (180 ms by default). The result keeps the
//! properties the experiments actually exploit: rough triangle-inequality
//! geography for proximity neighbor selection, and a realistic RTT scale
//! and spread for latency metrics.
//!
//! # Two representations
//!
//! The dense matrix is exact and fast but quadratic. It stores one RTT
//! per unordered pair — the triangle above the diagonal, `n(n-1)/2`
//! slots, which the generator fills in place — yet at 100k hosts that
//! would still be 40 GB. [`Topology::king_like_scalable`] therefore
//! stores only the per-host embedding (40 bytes/host) and computes each
//! RTT **on demand**: base propagation from the coordinates plus a
//! pair-keyed deterministic jitter, rescaled by a factor calibrated once
//! at construction from a bounded pair sample. Same gross statistics,
//! same determinism (the RTT of a pair depends only on `(seed, i, j)`),
//! O(n) memory. The dense `king_like` path is kept bit-for-bit unchanged
//! so every existing golden stays byte-identical.

use crate::rng::{splitmix64, SimRng};
use crate::time::SimDuration;

/// Default mean round-trip time, matching the paper's reported King average.
pub const DEFAULT_MEAN_RTT_MS: f64 = 180.0;

/// Embedding dimensionality: enough that pairwise distances have a
/// realistic unimodal spread rather than the degenerate shape a 1-D or
/// 2-D embedding would give at this scale.
const DIMS: usize = 5;

/// Lognormal jitter sigma (median 1.0×, long right tail).
const JITTER_SIGMA: f64 = 0.45;

/// Constant last-mile floor added to the embedding distance, in the
/// pre-rescale unit.
const LAST_MILE: f64 = 0.08;

/// Pair-sample budget for calibrating the coordinate representation's
/// scale factor and for its statistics queries. 2^17 pairs keeps the
/// sampled mean within a fraction of a percent of the true mean while
/// bounding construction at scale.
const STAT_SAMPLE_PAIRS: usize = 1 << 17;

/// How pairwise RTTs are stored.
#[derive(Clone)]
enum Repr {
    /// The RTT in nanoseconds of every pair `i < j`, row after row (see
    /// [`pair_slot`]); the diagonal is zero and `(j, i)` is `(i, j)`.
    /// Exact, O(n²) memory.
    Dense { rtt_ns: Box<[u64]> },
    /// Per-host embedding; RTTs computed on demand. O(n) memory.
    Coords {
        coords: Box<[[f64; DIMS]]>,
        /// Multiplies raw (embedding + jitter) latencies into ms.
        scale: f64,
        /// Keys the per-pair jitter stream.
        seed: u64,
    },
}

/// A symmetric pairwise round-trip-time model over `n` hosts.
#[derive(Clone)]
pub struct Topology {
    n: usize,
    repr: Repr,
}

impl Topology {
    /// A matrix where every distinct pair has the same RTT. Useful for
    /// unit tests where latency variation would be noise.
    pub fn uniform(n: usize, rtt: crate::time::SimTime) -> Topology {
        let rtt_ns = vec![rtt.0; pairs(n)].into_boxed_slice();
        Topology {
            n,
            repr: Repr::Dense { rtt_ns },
        }
    }

    /// Synthesize a King-like matrix (see module docs).
    ///
    /// * `n` — number of hosts.
    /// * `seed` — generation is fully deterministic in this seed.
    /// * `mean_rtt_ms` — target mean RTT over distinct pairs.
    pub fn king_like(n: usize, seed: u64, mean_rtt_ms: f64) -> Topology {
        assert!(n >= 1, "a topology needs at least one host");
        assert!(mean_rtt_ms > 0.0);
        if n == 1 {
            // Degenerate single-host world: no pairs to model.
            return Topology {
                n,
                repr: Repr::Dense {
                    rtt_ns: Box::default(),
                },
            };
        }
        let mut rng = SimRng::new(seed).fork(0x7090);

        let coords: Vec<[f64; DIMS]> = (0..n)
            .map(|_| {
                let mut c = [0.0; DIMS];
                for v in &mut c {
                    *v = rng.f64();
                }
                c
            })
            .collect();

        // Raw latencies: base propagation from the embedding plus a small
        // constant floor (last-mile) and multiplicative lognormal jitter.
        // Each pair's slot holds its raw latency's bits until the rescale
        // below overwrites them with its RTT, in pair order.
        let mut rtt_ns = vec![0u64; pairs(n)].into_boxed_slice();
        let mut slots = rtt_ns.iter_mut();
        let mut sum = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let mut d2 = 0.0;
                for (a, b) in coords[i].iter().zip(&coords[j]) {
                    let d = a - b;
                    d2 += d * d;
                }
                let base = d2.sqrt();
                // Lognormal(mu=0, sigma=0.45): median 1.0x, long right tail.
                let z = normal_sample(&mut rng);
                let jitter = (JITTER_SIGMA * z).exp();
                let lat = (LAST_MILE + base) * jitter;
                *slots.next().expect("one slot per pair") = lat.to_bits();
                sum += lat;
            }
        }

        // Rescale to the requested mean.
        let scale = mean_rtt_ms / (sum / rtt_ns.len() as f64);
        for slot in rtt_ns.iter_mut() {
            let ms = f64::from_bits(*slot) * scale;
            *slot = (ms * 1e6).round() as u64;
        }
        Topology {
            n,
            repr: Repr::Dense { rtt_ns },
        }
    }

    /// King-like statistics in O(n) memory: stores only the embedding and
    /// computes RTTs on demand (see module docs). Use this above a few
    /// thousand hosts, where the dense matrix stops fitting.
    ///
    /// The distribution matches [`Topology::king_like`]'s family — same
    /// embedding, same lognormal-jitter shape, same target mean — but the
    /// two are *different draws*: the dense path consumes one shared RNG
    /// stream while this one keys jitter per pair, so individual entries
    /// differ even at equal `(n, seed)`.
    pub fn king_like_scalable(n: usize, seed: u64, mean_rtt_ms: f64) -> Topology {
        assert!(n >= 1, "a topology needs at least one host");
        assert!(mean_rtt_ms > 0.0);
        let mut rng = SimRng::new(seed).fork(0x7090);
        let coords: Box<[[f64; DIMS]]> = (0..n)
            .map(|_| {
                let mut c = [0.0; DIMS];
                for v in &mut c {
                    *v = rng.f64();
                }
                c
            })
            .collect();
        if n == 1 {
            return Topology {
                n,
                repr: Repr::Coords {
                    coords,
                    scale: 1.0,
                    seed,
                },
            };
        }

        // Calibrate the scale from a bounded deterministic pair sample so
        // the (sampled) mean hits the target.
        let mut sum = 0.0;
        let mut count = 0u64;
        for_each_stat_pair(n, seed, |i, j| {
            sum += raw_latency(&coords, seed, i, j);
            count += 1;
        });
        let scale = mean_rtt_ms / (sum / count as f64);
        Topology {
            n,
            repr: Repr::Coords {
                coords,
                scale,
                seed,
            },
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the topology has no hosts.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Round-trip time between hosts `a` and `b`.
    #[inline]
    pub fn rtt(&self, a: usize, b: usize) -> SimDuration {
        SimDuration(self.rtt_ns(a, b))
    }

    /// One-way propagation delay, i.e. half the RTT.
    #[inline]
    pub fn one_way(&self, a: usize, b: usize) -> SimDuration {
        SimDuration(self.rtt_ns(a, b) / 2)
    }

    #[inline]
    fn rtt_ns(&self, a: usize, b: usize) -> u64 {
        match &self.repr {
            Repr::Dense { rtt_ns } => {
                if a == b {
                    0
                } else {
                    rtt_ns[pair_slot(self.n, a.min(b), a.max(b))]
                }
            }
            Repr::Coords {
                coords,
                scale,
                seed,
            } => {
                if a == b {
                    0
                } else {
                    (raw_latency(coords, *seed, a, b) * scale * 1e6).round() as u64
                }
            }
        }
    }

    /// Mean RTT over distinct pairs, in milliseconds. Exact for the dense
    /// representation; for the coordinate representation, computed over
    /// the same bounded pair sample used at calibration (so it lands on
    /// the configured target by construction).
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut sum = 0u128;
        let mut count = 0u64;
        self.for_each_sampled_pair(|rtt_ns| {
            sum += rtt_ns as u128;
            count += 1;
        });
        sum as f64 / count as f64 / 1e6
    }

    /// The given percentile (0–100) of distinct-pair RTTs, in
    /// milliseconds. Exact for the dense representation, sampled for the
    /// coordinate representation.
    pub fn percentile_rtt_ms(&self, pct: f64) -> f64 {
        assert!((0.0..=100.0).contains(&pct));
        let mut all: Vec<u64> = Vec::new();
        self.for_each_sampled_pair(|rtt_ns| all.push(rtt_ns));
        all.sort_unstable();
        if all.is_empty() {
            return 0.0;
        }
        let idx = ((pct / 100.0) * (all.len() - 1) as f64).round() as usize;
        all[idx] as f64 / 1e6
    }

    /// Visit the RTT of every distinct pair (dense) or of the bounded
    /// deterministic pair sample (coords).
    fn for_each_sampled_pair(&self, mut f: impl FnMut(u64)) {
        if self.n < 2 {
            return;
        }
        match &self.repr {
            Repr::Dense { rtt_ns } => rtt_ns.iter().for_each(|&rtt| f(rtt)),
            Repr::Coords { seed, .. } => {
                let seed = *seed;
                for_each_stat_pair(self.n, seed, |i, j| f(self.rtt_ns(i, j)));
            }
        }
    }
}

/// Number of distinct pairs among `n` hosts: the dense triangle's size.
fn pairs(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// The dense triangle's slot of pair `i < j`: rows `0..i` hold
/// `n-1, n-2, …, n-i` pairs before it.
#[inline]
fn pair_slot(n: usize, i: usize, j: usize) -> usize {
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Visit a deterministic set of distinct pairs for statistics: all
/// `n(n-1)/2` pairs when that fits the sample budget, otherwise
/// [`STAT_SAMPLE_PAIRS`] pairs drawn from a seed-keyed stream.
fn for_each_stat_pair(n: usize, seed: u64, mut f: impl FnMut(usize, usize)) {
    let total = n * (n - 1) / 2;
    if total <= STAT_SAMPLE_PAIRS {
        for i in 0..n {
            for j in (i + 1)..n {
                f(i, j);
            }
        }
    } else {
        let mut s = seed ^ 0xCA11_B8A7_E57A_7500;
        for _ in 0..STAT_SAMPLE_PAIRS {
            let i = (splitmix64(&mut s) % n as u64) as usize;
            let mut j = (splitmix64(&mut s) % (n as u64 - 1)) as usize;
            if j >= i {
                j += 1;
            }
            f(i, j);
        }
    }
}

/// Raw (pre-rescale) latency of pair `(i, j)` in the coordinate
/// representation: embedding distance + last-mile floor, times a
/// pair-keyed lognormal-ish jitter. Symmetric and deterministic in
/// `(seed, i, j)` — the jitter stream is keyed on the unordered pair, so
/// `raw(i, j) == raw(j, i)` by construction.
fn raw_latency(coords: &[[f64; DIMS]], seed: u64, i: usize, j: usize) -> f64 {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    let mut d2 = 0.0;
    for (x, y) in coords[a].iter().zip(&coords[b]) {
        let d = x - y;
        d2 += d * d;
    }
    let base = LAST_MILE + d2.sqrt();
    // Pair-keyed standard normal via Irwin–Hall: the sum of 4 uniforms
    // has mean 2 and variance 1/3; centering and scaling by sqrt(3)
    // approximates N(0,1) well within the ±3.5σ the jitter cares about,
    // at a quarter the cost of Box–Muller (no ln/cos on the hot path).
    let mut s = seed
        ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut sum = 0.0;
    for _ in 0..4 {
        sum += (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    }
    let z = (sum - 2.0) * 1.732_050_807_568_877_2; // sqrt(3)
    base * (JITTER_SIGMA * z).exp()
}

/// Standard normal via Box–Muller (polar form avoided to keep the draw
/// count per sample fixed, which preserves stream stability).
fn normal_sample(rng: &mut SimRng) -> f64 {
    let u1 = 1.0 - rng.f64(); // (0, 1]
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn uniform_matrix() {
        let t = Topology::uniform(4, SimTime::from_millis(100));
        assert_eq!(t.len(), 4);
        assert_eq!(t.rtt(0, 0), SimDuration::ZERO);
        assert_eq!(t.rtt(1, 3), SimDuration::from_millis(100));
        assert_eq!(t.one_way(1, 3), SimDuration::from_millis(50));
        assert!((t.mean_rtt_ms() - 100.0).abs() < 1e-9);
    }

    /// The dense builder before it stored a triangle: an `n × n` matrix
    /// of raw latencies, then one of RTTs.
    fn king_like_square(n: usize, seed: u64, mean_rtt_ms: f64) -> Vec<u64> {
        if n == 1 {
            return vec![0];
        }
        let mut rng = SimRng::new(seed).fork(0x7090);
        let coords: Vec<[f64; DIMS]> = (0..n)
            .map(|_| {
                let mut c = [0.0; DIMS];
                for v in &mut c {
                    *v = rng.f64();
                }
                c
            })
            .collect();
        let mut raw = vec![0.0f64; n * n];
        let mut sum = 0.0f64;
        let mut pairs = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                let mut d2 = 0.0;
                for (a, b) in coords[i].iter().zip(&coords[j]) {
                    let d = a - b;
                    d2 += d * d;
                }
                let z = normal_sample(&mut rng);
                let lat = (LAST_MILE + d2.sqrt()) * (JITTER_SIGMA * z).exp();
                raw[i * n + j] = lat;
                raw[j * n + i] = lat;
                sum += lat;
                pairs += 1;
            }
        }
        let scale = mean_rtt_ms / (sum / pairs as f64);
        let mut rtt_ns = vec![0u64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    rtt_ns[i * n + j] = (raw[i * n + j] * scale * 1e6).round() as u64;
                }
            }
        }
        rtt_ns
    }

    #[test]
    fn the_triangle_equals_the_square_matrix_bit_for_bit() {
        for n in [1, 2, 3, 64, 1024] {
            let square = king_like_square(n, 42, DEFAULT_MEAN_RTT_MS);
            let t = Topology::king_like(n, 42, DEFAULT_MEAN_RTT_MS);
            let flat = Topology::uniform(n, SimTime::from_millis(7));
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(t.rtt(i, j).0, square[i * n + j], "n={n} ({i}, {j})");
                    let want = if i == j { 0 } else { 7_000_000 };
                    assert_eq!(flat.rtt(i, j).0, want, "uniform n={n} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn king_like_hits_target_mean() {
        let t = Topology::king_like(200, 42, DEFAULT_MEAN_RTT_MS);
        let mean = t.mean_rtt_ms();
        assert!(
            (mean - DEFAULT_MEAN_RTT_MS).abs() < 1.0,
            "mean RTT {mean} not within 1ms of target"
        );
    }

    #[test]
    fn king_like_is_symmetric_with_zero_diagonal() {
        let t = Topology::king_like(64, 7, 180.0);
        for i in 0..64 {
            assert_eq!(t.rtt(i, i), SimDuration::ZERO);
            for j in 0..64 {
                assert_eq!(t.rtt(i, j), t.rtt(j, i));
            }
        }
    }

    #[test]
    fn king_like_deterministic_in_seed() {
        let a = Topology::king_like(32, 99, 180.0);
        let b = Topology::king_like(32, 99, 180.0);
        for i in 0..32 {
            for j in 0..32 {
                assert_eq!(a.rtt(i, j), b.rtt(i, j));
            }
        }
        let c = Topology::king_like(32, 100, 180.0);
        let diffs = (0..32)
            .flat_map(|i| (0..32).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && a.rtt(i, j) != c.rtt(i, j))
            .count();
        assert!(
            diffs > 900,
            "different seeds should give different matrices"
        );
    }

    #[test]
    fn king_like_has_dispersion() {
        let t = Topology::king_like(200, 42, 180.0);
        let p5 = t.percentile_rtt_ms(5.0);
        let p95 = t.percentile_rtt_ms(95.0);
        // King latencies spread over roughly an order of magnitude.
        assert!(p5 < 100.0, "p5 was {p5}");
        assert!(p95 > 280.0, "p95 was {p95}");
        assert!(t.percentile_rtt_ms(100.0) > p95);
        assert!(t.percentile_rtt_ms(0.0) < p5);
    }

    #[test]
    fn king_like_positive_off_diagonal() {
        let t = Topology::king_like(50, 3, 180.0);
        for i in 0..50 {
            for j in 0..50 {
                if i != j {
                    assert!(t.rtt(i, j).0 > 0);
                }
            }
        }
    }

    #[test]
    fn scalable_hits_target_mean() {
        // Small n: calibration is exhaustive, so the mean is exact up to
        // rounding. Large n: sampled, still tight.
        for &n in &[200usize, 2000] {
            let t = Topology::king_like_scalable(n, 42, DEFAULT_MEAN_RTT_MS);
            let mean = t.mean_rtt_ms();
            assert!(
                (mean - DEFAULT_MEAN_RTT_MS).abs() < 1.0,
                "n={n}: mean RTT {mean} not within 1ms of target"
            );
        }
    }

    #[test]
    fn scalable_is_symmetric_with_zero_diagonal() {
        let t = Topology::king_like_scalable(64, 7, 180.0);
        for i in 0..64 {
            assert_eq!(t.rtt(i, i), SimDuration::ZERO);
            for j in 0..64 {
                assert_eq!(t.rtt(i, j), t.rtt(j, i));
                if i != j {
                    assert!(t.rtt(i, j).0 > 0);
                }
            }
        }
    }

    #[test]
    fn scalable_deterministic_in_seed() {
        let a = Topology::king_like_scalable(64, 99, 180.0);
        let b = Topology::king_like_scalable(64, 99, 180.0);
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(a.rtt(i, j), b.rtt(i, j));
            }
        }
        let c = Topology::king_like_scalable(64, 100, 180.0);
        let diffs = (0..64)
            .flat_map(|i| (0..64).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && a.rtt(i, j) != c.rtt(i, j))
            .count();
        assert!(diffs > 3600, "different seeds should differ");
    }

    #[test]
    fn scalable_has_dispersion_like_dense() {
        let t = Topology::king_like_scalable(200, 42, 180.0);
        let p5 = t.percentile_rtt_ms(5.0);
        let p95 = t.percentile_rtt_ms(95.0);
        assert!(p5 < 100.0, "p5 was {p5}");
        assert!(p95 > 280.0, "p95 was {p95}");
    }

    /// The scalable representation must stay O(n) in memory, which this
    /// can't assert directly — but it can assert construction at a size
    /// whose dense matrix (8 × 50k² bytes = 20 GB) would be infeasible.
    #[test]
    fn scalable_constructs_at_large_n() {
        let t = Topology::king_like_scalable(50_000, 1, 180.0);
        assert_eq!(t.len(), 50_000);
        assert!(t.rtt(0, 49_999).0 > 0);
        assert_eq!(t.rtt(123, 45_678), t.rtt(45_678, 123));
    }
}
