//! Deterministic, forkable random streams.
//!
//! Every stochastic component of the simulator draws from its own named
//! stream forked off a single root seed. Adding a new component therefore
//! never perturbs the draws of existing ones, and every experiment is
//! reproducible bit-for-bit from `(seed, stream name)`.

use crate::digest::fnv1a;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// A named, seedable random stream.
///
/// `StreamRng` wraps a [`SmallRng`] (xoshiro-based, fast, not
/// cryptographically secure — simulation only) and adds *forking*: deriving
/// an independent child stream from a string label.
#[derive(Debug, Clone)]
pub struct StreamRng {
    seed: u64,
    inner: SmallRng,
}

impl StreamRng {
    /// Creates the root stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream named `label`.
    ///
    /// Forking is pure: it depends only on the parent seed and the label,
    /// never on how much the parent has been consumed.
    #[must_use]
    pub fn fork(&self, label: &str) -> StreamRng {
        let child_seed = splitmix(self.seed ^ fnv1a([label]));
        StreamRng {
            seed: child_seed,
            inner: SmallRng::seed_from_u64(child_seed),
        }
    }

    /// Derives an independent child stream from an integer index, for
    /// per-entity streams (e.g. one per machine).
    #[must_use]
    pub fn fork_index(&self, label: &str, index: u64) -> StreamRng {
        let child_seed = splitmix(self.seed ^ fnv1a([label]) ^ splitmix(index));
        StreamRng {
            seed: child_seed,
            inner: SmallRng::seed_from_u64(child_seed),
        }
    }

    /// The seed identifying this stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Fills `out` with consecutive [`Self::uniform`] draws — the batched
    /// form of a per-element `uniform()` loop, producing the bit-identical
    /// draw sequence (hot per-machine stages draw a buffer at a time
    /// instead of one value per call site).
    pub fn uniform_fill(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.uniform();
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        index_below(self.uniform(), n)
    }

    /// Draws an index according to `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted() needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Standard normal draw (Box–Muller, one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indexes from `[0, n)` (floyd's algorithm order is
    /// not needed; simple shuffle prefix).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indexes(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Maps a uniform draw `u` in `[0, 1)` to `[0, n)`: rejection-free
/// multiply-shift, with bias < 2^-53 for practical `n`.
///
/// The product can reach `n` only by rounding up, so the wrap-around modulo
/// runs only then; a result below `n` is its own remainder, so this equals
/// `(u * n as f64) as usize % n` for every `n`.
#[inline]
fn index_below(u: f64, n: usize) -> usize {
    let i = (u * n as f64) as usize;
    if i < n {
        i
    } else {
        i % n
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> std::result::Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The formula `below` used to compute, modulo on every draw.
    fn modulo_every_draw(u: f64, n: usize) -> usize {
        (u * n as f64) as usize % n
    }

    /// A uniform draw as `uniform` makes it from 64 random bits.
    fn draw(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    proptest! {
        /// Taking the modulo only when the product reaches `n` is
        /// bit-identical to taking it always, for any draw and any `n`.
        fn index_below_matches_modulo_every_draw(
            bits in any::<u64>(),
            n in 1usize..usize::MAX,
            small in 1usize..64,
        ) {
            let u = draw(bits);
            for n in [n, small, n >> 11 | 1] {
                prop_assert_eq!(index_below(u, n), modulo_every_draw(u, n));
            }
        }
    }

    #[test]
    fn index_below_at_the_largest_draw_and_n_near_two_to_the_53() {
        let largest = draw(u64::MAX);
        assert!(largest < 1.0 && largest + f64::EPSILON / 2.0 >= 1.0);
        let two53 = 1usize << 53;
        for n in [
            1,
            2,
            3,
            two53 - 1,
            two53,
            two53 + 1,
            two53 + 2,
            3 << 52,
            usize::MAX - 1,
            usize::MAX,
        ] {
            for u in [0.0, draw(1 << 11), 0.5, largest] {
                let got = index_below(u, n);
                assert_eq!(got, modulo_every_draw(u, n), "u {u}, n {n}");
                assert!(got < n, "u {u}, n {n}");
            }
        }
        // While n is exact in f64 the largest draw lands on the top index.
        for n in [1, 3, 1000, two53 - 1, two53] {
            assert_eq!(index_below(largest, n), n - 1, "n {n}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamRng::new(7);
        let mut b = StreamRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let mut parent1 = StreamRng::new(7);
        let parent2 = StreamRng::new(7);
        let _ = parent1.next_u64(); // consume parent1
        let mut c1 = parent1.fork("child");
        let mut c2 = parent2.fork("child");
        for _ in 0..50 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn different_labels_give_different_streams() {
        let root = StreamRng::new(7);
        let mut a = root.fork("a");
        let mut b = root.fork("b");
        let same = (0..50).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn fork_index_distinguishes_entities() {
        let root = StreamRng::new(7);
        let mut a = root.fork_index("machine", 1);
        let mut b = root.fork_index("machine", 2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut a2 = root.fork_index("machine", 1);
        assert_eq!(
            StreamRng::next_u64(&mut a2),
            root.fork_index("machine", 1).next_u64()
        );
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = StreamRng::new(3);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = StreamRng::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
    }

    #[test]
    fn bernoulli_respects_probability() {
        let mut rng = StreamRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = StreamRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let i = rng.below(10);
            assert!(i < 10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = StreamRng::new(5);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[rng.weighted(&[1.0, 2.0, 3.0])] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        let f2 = counts[2] as f64 / n as f64;
        assert!((f0 - 1.0 / 6.0).abs() < 0.01);
        assert!((f2 - 0.5).abs() < 0.01);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StreamRng::new(17);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StreamRng::new(9);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indexes_are_distinct() {
        let mut rng = StreamRng::new(9);
        let idx = rng.sample_indexes(50, 20);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn uniform_fill_matches_single_draws() {
        let mut batched = StreamRng::new(42).fork("x");
        let mut single = StreamRng::new(42).fork("x");
        let mut buf = [0.0; 17];
        batched.uniform_fill(&mut buf);
        for &v in &buf {
            assert_eq!(v, single.uniform());
        }
        // The streams stay aligned after the batch.
        assert_eq!(batched.uniform(), single.uniform());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_rejected() {
        let mut rng = StreamRng::new(1);
        let _ = rng.sample_indexes(3, 4);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_rejected() {
        let mut rng = StreamRng::new(1);
        let _ = rng.below(0);
    }
}
