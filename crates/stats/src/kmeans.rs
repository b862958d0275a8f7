//! K-means clustering (k-means++ initialization, Lloyd iterations,
//! best-of-restarts), used by the ticket-classification pipeline.

use crate::rng::StreamRng;
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Configuration for a k-means run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Independent restarts; the lowest-inertia run wins.
    pub restarts: usize,
    /// Convergence threshold on relative inertia improvement.
    pub tol: f64,
}

impl KMeansConfig {
    /// A reasonable default for `k` clusters: 50 iterations, 4 restarts.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iter: 50,
            restarts: 4,
            tol: 1e-6,
        }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    centroids: Vec<Vec<f32>>,
    assignments: Vec<usize>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Fits k-means to `points` (all of equal dimension).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] if there are fewer points than
    /// clusters, [`StatsError::InvalidParameter`] if `k == 0`, and
    /// [`StatsError::DimensionMismatch`] if the points differ in dimension.
    pub fn fit(points: &[Vec<f32>], config: KMeansConfig, rng: &mut StreamRng) -> Result<Self> {
        if config.k == 0 {
            return Err(StatsError::InvalidParameter {
                name: "k",
                value: 0.0,
            });
        }
        if points.len() < config.k {
            return Err(StatsError::NotEnoughData {
                what: "k-means",
                needed: config.k,
                got: points.len(),
            });
        }
        let dim = points[0].len();
        if let Some(p) = points.iter().find(|p| p.len() != dim) {
            return Err(StatsError::DimensionMismatch {
                what: "k-means",
                expected: dim,
                got: p.len(),
            });
        }
        let reps = Reps::of(points, dim);
        let mut work = FitWork::default();
        let mut best: Option<KMeans> = None;
        for _ in 0..config.restarts.max(1) {
            let run = Self::fit_once(points, &reps, config, rng, &mut work);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        dcfail_obs::add("kmeans.iterations", work.iterations);
        dcfail_obs::add("kmeans.distance_evals", work.distance_evals);
        dcfail_obs::add("kmeans.rows", work.rows);
        Ok(best.expect("at least one restart ran"))
    }

    fn fit_once(
        points: &[Vec<f32>],
        reps: &Reps,
        config: KMeansConfig,
        rng: &mut StreamRng,
        work: &mut FitWork,
    ) -> KMeans {
        let mut centroids = {
            let _span = dcfail_obs::span("kmeans.seed");
            kmeans_plus_plus(points, reps, config.k, rng, work)
        };
        // One distance per representative for each centroid seeded.
        work.distance_evals += (reps.len() * centroids.len()) as u64;
        let mut assignments = vec![0usize; points.len()];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;
        for iter in 0..config.max_iter {
            iterations = iter + 1;
            work.iterations += 1;
            work.distance_evals += (reps.len() * centroids.len()) as u64;
            // Assignment step: one lane-kernel search per distinct vector,
            // scattered to every point; the inertia sum is folded in point
            // order to keep float addition exact.
            let mut new_inertia = 0.0;
            {
                let _span = dcfail_obs::span("kmeans.assign");
                for (i, (c, d2)) in reps.nearest(&centroids, work).into_iter().enumerate() {
                    assignments[i] = c;
                    new_inertia += d2 as f64;
                }
            }
            {
                let _span = dcfail_obs::span("kmeans.update");
                update_centroids(points, reps, &assignments, &mut centroids, rng);
            }
            let improved = inertia.is_infinite()
                || (inertia - new_inertia) > config.tol * inertia.abs().max(1.0);
            inertia = new_inertia;
            if !improved {
                break;
            }
        }
        KMeans {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    /// Per-point cluster assignments, parallel to the training input.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Predicts the cluster of a new point.
    #[cfg(test)]
    fn predict(&self, point: &[f32]) -> usize {
        oracle::nearest(&self.centroids, point).0
    }
}

/// The work of one [`KMeans::fit`]: plain integers, added to obs once per
/// call.
#[derive(Debug, Default)]
struct FitWork {
    /// Lloyd iterations over every restart.
    iterations: u64,
    /// Representative-to-centroid distances: every representative against
    /// each seeded centroid, and against every centroid per assignment step.
    distance_evals: u64,
    /// Dimension rows the lane kernel read, summed over block–centroid
    /// pairs; a dense kernel reads `dim` per pair.
    rows: u64,
}

/// Update step: each centroid moves to its members' mean, summed in f64 in
/// point order; an empty cluster is re-seeded at a random point.
///
/// Only a point's nonzero coordinates are added. That gives the dense sum's
/// bits: each sum starts at +0.0, and under round-to-nearest an f64 sum that
/// starts there never becomes -0.0, so adding ±0.0 never changes it. NaN
/// coordinates are nonzero and kept.
fn update_centroids(
    points: &[Vec<f32>],
    reps: &Reps,
    assignments: &[usize],
    centroids: &mut [Vec<f32>],
    rng: &mut StreamRng,
) {
    let mut sums = vec![vec![0.0f64; reps.dim]; centroids.len()];
    let mut counts = vec![0usize; centroids.len()];
    for (&r, &a) in reps.rep_of.iter().zip(assignments) {
        counts[a] += 1;
        let sum = &mut sums[a];
        for &(d, x) in reps.nonzeros(r) {
            sum[d] += f64::from(x);
        }
    }
    for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
        if count > 0 {
            for (cc, &s) in c.iter_mut().zip(sum) {
                *cc = (s / count as f64) as f32;
            }
        } else {
            // Re-seed an empty cluster at a random point.
            c.clone_from(&points[rng.below(points.len())]);
        }
    }
}

/// Vectors per block of the lane kernel: one independent f32 add chain per
/// lane, so a distance search is bound by add throughput, not latency.
const LANES: usize = 16;

/// Bit `d % 64` of word `d / 64` is set when `v[d]` is nonzero (NaN
/// included): the rows a distance to `v` must read.
fn support(v: &[f32]) -> Vec<u64> {
    let mut mask = vec![0u64; v.len().div_ceil(64)];
    for (d, &x) in v.iter().enumerate() {
        if x != 0.0 {
            mask[d / 64] |= 1 << (d % 64);
        }
    }
    mask
}

/// A fit's points, prepared once for every restart: each distinct point
/// once, laid out for the lane kernel. Points are equal here when their
/// nonzero `(dimension, bits)` lists are: a ±0.0 coordinate adds
/// `(±0 − c)² = c²` to a distance whatever its sign, and nothing to a
/// centroid sum. So the assignment step and the k-means++ D² update measure
/// each representative once and scatter the result.
struct Reps {
    /// Per point: the index of its representative.
    rep_of: Vec<usize>,
    dim: usize,
    /// Each representative's nonzero `(dimension, value)` pairs, in
    /// dimension order: representative `r`'s are
    /// `nonzeros[nonzero_start[r]..nonzero_start[r + 1]]`.
    nonzeros: Vec<(usize, f32)>,
    nonzero_start: Vec<usize>,
    /// Blocks of [`LANES`] representatives, the last one zero-padded.
    blocks: usize,
    /// Row `b * dim + d` holds dimension `d` of representatives
    /// `b * LANES ..`: dimension-major, one lane per representative, `+0.0`
    /// where a representative is zero.
    rows: Vec<[f32; LANES]>,
    /// Words `b * ⌈dim / 64⌉ ..` are block `b`'s [`support`]: the union of
    /// its representatives' supports.
    masks: Vec<u64>,
}

impl Reps {
    fn of(points: &[Vec<f32>], dim: usize) -> Self {
        let mut keys: Vec<(u32, u32)> = Vec::new();
        let mut key_start = Vec::with_capacity(points.len() + 1);
        key_start.push(0);
        for p in points {
            let nonzero = p.iter().enumerate().filter(|&(_, &x)| x != 0.0);
            keys.extend(nonzero.map(|(d, x)| (d as u32, x.to_bits())));
            key_start.push(keys.len());
        }
        let key = |i: usize| &keys[key_start[i]..key_start[i + 1]];
        let dims = |i: usize| key(i).iter().map(|&(d, _)| d);
        let mut order: Vec<usize> = (0..points.len()).collect();
        // Support first, so that a block's representatives share rows;
        // index breaks ties, so the key is total and each run of equal
        // points starts at its first one.
        order.sort_unstable_by(|&a, &b| {
            (dims(a).cmp(dims(b)))
                .then_with(|| key(a).cmp(key(b)))
                .then(a.cmp(&b))
        });
        let mut reps: Vec<usize> = Vec::new();
        let mut rep_of = vec![0; points.len()];
        for (pos, &i) in order.iter().enumerate() {
            if pos == 0 || key(order[pos - 1]) != key(i) {
                reps.push(i);
            }
            rep_of[i] = reps.len() - 1;
        }
        let blocks = reps.len().div_ceil(LANES);
        let words = dim.div_ceil(64);
        let mut rows = vec![[0.0; LANES]; blocks * dim];
        let mut masks = vec![0u64; blocks * words];
        let mut nonzeros = Vec::new();
        let mut nonzero_start = vec![0];
        for (r, &i) in reps.iter().enumerate() {
            let b = r / LANES;
            for &(d, bits) in key(i) {
                let (d, x) = (d as usize, f32::from_bits(bits));
                rows[b * dim + d][r % LANES] = x;
                masks[b * words + d / 64] |= 1 << (d % 64);
                nonzeros.push((d, x));
            }
            nonzero_start.push(nonzeros.len());
        }
        Reps {
            rep_of,
            dim,
            nonzeros,
            nonzero_start,
            blocks,
            rows,
            masks,
        }
    }

    /// Number of representatives.
    fn len(&self) -> usize {
        self.nonzero_start.len() - 1
    }

    /// Representative `r`'s nonzero `(dimension, value)` pairs.
    fn nonzeros(&self, r: usize) -> &[(usize, f32)] {
        &self.nonzeros[self.nonzero_start[r]..self.nonzero_start[r + 1]]
    }

    /// Every point's [`nearest`] centroid and squared distance.
    fn nearest(&self, centroids: &[Vec<f32>], work: &mut FitWork) -> Vec<(usize, f32)> {
        let masks: Vec<Vec<u64>> = centroids.iter().map(|c| support(c)).collect();
        work.rows += (0..self.blocks)
            .flat_map(|b| masks.iter().map(move |m| self.rows_read(b, m)))
            .sum::<u64>();
        let per_rep: Vec<(usize, f32)> = (0..self.blocks)
            .flat_map(|b| self.nearest_in_block(b, centroids, &masks))
            .collect();
        self.rep_of.iter().map(|&r| per_rep[r]).collect()
    }

    /// Every point's squared distance to `c`.
    fn sq_dists(&self, c: &[f32], work: &mut FitWork) -> Vec<f32> {
        let mask = support(c);
        work.rows += (0..self.blocks)
            .map(|b| self.rows_read(b, &mask))
            .sum::<u64>();
        let per_rep: Vec<f32> = (0..self.blocks)
            .flat_map(|b| self.block_sq_dists(b, c, &mask))
            .collect();
        self.rep_of.iter().map(|&r| per_rep[r]).collect()
    }

    /// Block `b`'s support words.
    fn mask(&self, b: usize) -> &[u64] {
        let words = self.dim.div_ceil(64);
        &self.masks[b * words..][..words]
    }

    /// Rows [`Reps::block_sq_dists`] reads for block `b` against a vector
    /// whose [`support`] is `q_mask`.
    fn rows_read(&self, b: usize, q_mask: &[u64]) -> u64 {
        let words = self.mask(b).iter().zip(q_mask);
        words
            .map(|(&own, &q)| u64::from((own | q).count_ones()))
            .sum()
    }

    /// `sq_dist` of each of block `b`'s representatives to `q`, whose
    /// [`support`] is `q_mask`, bit for bit. Each lane adds `sq_dist`'s
    /// terms in dimension order, reading only the rows where a
    /// representative of the block or `q` is nonzero, and `(x − q)²` equals
    /// `(q − x)²` exactly. A skipped row's term is `(±0 − ±0)² = +0.0`,
    /// which leaves a sum that starts at `+0.0` unchanged: such a sum is
    /// `+0.0`, positive or NaN. `sq_dist` starts at the f32 `Sum` identity
    /// `-0.0`, which its first term turns into `+0.0`, so lanes start at
    /// `+0.0` when `dim ≥ 1` and at `-0.0` when there is no term. Padding
    /// lanes measure the zero vector; callers drop them.
    fn block_sq_dists(&self, b: usize, q: &[f32], q_mask: &[u64]) -> [f32; LANES] {
        let mut sums = [if self.dim == 0 { -0.0f32 } else { 0.0 }; LANES];
        let rows = &self.rows[b * self.dim..][..self.dim];
        for (w, (&own, &other)) in self.mask(b).iter().zip(q_mask).enumerate() {
            let mut bits = own | other;
            while bits != 0 {
                let d = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let y = q[d];
                for (s, &x) in sums.iter_mut().zip(&rows[d]) {
                    let t = x - y;
                    *s += t * t;
                }
            }
        }
        sums
    }

    /// [`nearest`] for each of block `b`'s representatives: centroids are
    /// scanned in order with a strict `<`, so ties go to the lowest index.
    /// `masks` are the centroids' supports.
    fn nearest_in_block(
        &self,
        b: usize,
        centroids: &[Vec<f32>],
        masks: &[Vec<u64>],
    ) -> [(usize, f32); LANES] {
        let mut best = [(0usize, f32::INFINITY); LANES];
        for (c, (centroid, mask)) in centroids.iter().zip(masks).enumerate() {
            for (slot, d) in best.iter_mut().zip(self.block_sq_dists(b, centroid, mask)) {
                if d < slot.1 {
                    *slot = (c, d);
                }
            }
        }
        best
    }
}

/// K-means++ seeding: first centroid uniform, subsequent ones D²-weighted.
fn kmeans_plus_plus(
    points: &[Vec<f32>],
    reps: &Reps,
    k: usize,
    rng: &mut StreamRng,
    work: &mut FitWork,
) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.below(points.len())].clone());
    let mut d2: Vec<f64> = reps
        .sq_dists(&centroids[0], work)
        .into_iter()
        .map(f64::from)
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            points[rng.below(points.len())].clone()
        } else {
            let mut x = rng.uniform() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                x -= d;
                if x < 0.0 {
                    chosen = i;
                    break;
                }
            }
            points[chosen].clone()
        };
        for (d, nd) in d2.iter_mut().zip(reps.sq_dists(&next, work)) {
            *d = d.min(nd as f64);
        }
        centroids.push(next);
    }
    centroids
}

/// The scalar fit, the oracle for the lane kernel, the distinct-vector
/// scatter and the sparse update: one `nearest` per point per iteration,
/// and every coordinate of every point summed.
#[cfg(test)]
mod oracle {
    use super::{KMeans, KMeansConfig};
    use crate::rng::StreamRng;

    pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
    }

    /// The index of the centroid nearest `p`, the lowest on a tie, and its
    /// squared distance.
    pub fn nearest(centroids: &[Vec<f32>], p: &[f32]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (i, c) in centroids.iter().enumerate() {
            let d = sq_dist(c, p);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    /// The dense update step: each centroid moves to its members' mean,
    /// every coordinate summed in f64 in point order; an empty cluster is
    /// re-seeded at a random point.
    pub fn update_centroids(
        points: &[Vec<f32>],
        assignments: &[usize],
        centroids: &mut [Vec<f32>],
        rng: &mut StreamRng,
    ) {
        let dim = points[0].len();
        let mut sums = vec![vec![0.0f64; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (p, &a) in points.iter().zip(assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x as f64;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count > 0 {
                for (cc, &s) in c.iter_mut().zip(sum) {
                    *cc = (s / count as f64) as f32;
                }
            } else {
                c.clone_from(&points[rng.below(points.len())]);
            }
        }
    }

    pub fn fit(points: &[Vec<f32>], config: KMeansConfig, rng: &mut StreamRng) -> KMeans {
        let mut best: Option<KMeans> = None;
        for _ in 0..config.restarts.max(1) {
            let run = fit_once(points, config, rng);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        best.expect("at least one restart ran")
    }

    fn fit_once(points: &[Vec<f32>], config: KMeansConfig, rng: &mut StreamRng) -> KMeans {
        let mut centroids = kmeans_plus_plus(points, config.k, rng);
        let mut assignments = vec![0usize; points.len()];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;
        for iter in 0..config.max_iter {
            iterations = iter + 1;
            let mut new_inertia = 0.0;
            for (i, p) in points.iter().enumerate() {
                let (c, d2) = nearest(&centroids, p);
                assignments[i] = c;
                new_inertia += d2 as f64;
            }
            update_centroids(points, &assignments, &mut centroids, rng);
            let improved = inertia.is_infinite()
                || (inertia - new_inertia) > config.tol * inertia.abs().max(1.0);
            inertia = new_inertia;
            if !improved {
                break;
            }
        }
        KMeans {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    fn kmeans_plus_plus(points: &[Vec<f32>], k: usize, rng: &mut StreamRng) -> Vec<Vec<f32>> {
        let mut centroids = Vec::with_capacity(k);
        centroids.push(points[rng.below(points.len())].clone());
        let mut d2: Vec<f64> = points
            .iter()
            .map(|p| sq_dist(p, &centroids[0]) as f64)
            .collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                points[rng.below(points.len())].clone()
            } else {
                let mut x = rng.uniform() * total;
                let mut chosen = points.len() - 1;
                for (i, &d) in d2.iter().enumerate() {
                    x -= d;
                    if x < 0.0 {
                        chosen = i;
                        break;
                    }
                }
                points[chosen].clone()
            };
            for (d, p) in d2.iter_mut().zip(points) {
                *d = d.min(sq_dist(p, &next) as f64);
            }
            centroids.push(next);
        }
        centroids
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{nearest, sq_dist};
    use super::*;
    use proptest::prelude::*;

    /// A value from a small palette (exact ties, signed zeros) or a normal.
    fn coordinate(rng: &mut StreamRng) -> f32 {
        const PALETTE: [f32; 6] = [0.0, -0.0, 0.5, 1.0, -1.0, 0.1];
        match rng.below(PALETTE.len() + 1) {
            i if i < PALETTE.len() => PALETTE[i],
            _ => rng.standard_normal() as f32,
        }
    }

    fn vectors(n: usize, dim: usize, rng: &mut StreamRng) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| (0..dim).map(|_| coordinate(rng)).collect())
            .collect()
    }

    /// Sparse TF-IDF-like vectors drawn from `templates` distinct ones, so
    /// most points duplicate another.
    fn templated(n: usize, templates: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StreamRng::new(seed);
        let distinct: Vec<Vec<f32>> = (0..templates)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            rng.uniform() as f32
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        (0..n)
            .map(|_| distinct[rng.below(templates)].clone())
            .collect()
    }

    /// Bit-level equality: `KMeans`' `PartialEq` would equate 0.0 and -0.0.
    fn assert_same_fit(got: &KMeans, want: &KMeans) {
        let bits = |km: &KMeans| -> Vec<Vec<u32>> {
            km.centroids
                .iter()
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(got), bits(want));
        assert_eq!(got.assignments(), want.assignments());
        assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
        assert_eq!(got.iterations, want.iterations);
    }

    /// `fit` equals the scalar oracle on every point, RNG state included.
    fn assert_fit_matches_oracle(points: &[Vec<f32>], config: KMeansConfig, seed: u64) {
        let (mut rng, mut oracle_rng) = (StreamRng::new(seed), StreamRng::new(seed));
        let got = KMeans::fit(points, config, &mut rng).unwrap();
        assert_same_fit(&got, &oracle::fit(points, config, &mut oracle_rng));
        assert_eq!(rng.uniform().to_bits(), oracle_rng.uniform().to_bits());
    }

    /// Sets about 3 of every 4 coordinates to ±0.0, as TF-IDF gives, and
    /// a few to NaN.
    fn thin_out(vectors: &mut [Vec<f32>], rng: &mut StreamRng) {
        for v in vectors {
            for x in v.iter_mut() {
                match rng.below(16) {
                    0..=11 => *x = if rng.below(2) == 0 { 0.0 } else { -0.0 },
                    12 if rng.below(8) == 0 => *x = f32::NAN,
                    _ => {}
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The lane kernel returns `nearest`'s index and distance bits for
        /// every point, across the 16-lane block edge in both the point and
        /// the centroid count and across mask words in the dimension, with
        /// tied centroids, repeated points, zero-heavy points and centroids
        /// carrying ±0.0 and NaN, and an all-zero point against an all-zero
        /// centroid.
        fn lane_kernel_matches_scalar_nearest(
            seed in 0u64..1_000_000,
            k in 1usize..=40,
            n in 1usize..=40,
            dim in 0usize..=200,
        ) {
            let mut rng = StreamRng::new(seed);
            let mut centroids = vectors(k, dim, &mut rng);
            let mut points = vectors(n, dim, &mut rng);
            if rng.below(4) != 0 {
                thin_out(&mut centroids, &mut rng);
                thin_out(&mut points, &mut rng);
            }
            // Duplicate a few centroids: ties must go to the lowest index.
            for _ in 0..k / 3 {
                let (from, to) = (rng.below(k), rng.below(k));
                centroids[to] = centroids[from].clone();
            }
            let signed_zeros = |rng: &mut StreamRng| -> Vec<f32> {
                (0..dim).map(|_| if rng.below(2) == 0 { 0.0 } else { -0.0 }).collect()
            };
            centroids[k - 1] = signed_zeros(&mut rng);
            let zero = signed_zeros(&mut rng);
            points.push(zero.clone());
            points.extend(centroids.iter().take(3).cloned());
            points.push(points[0].clone());
            // The all-zero point alone fills a block that reads no row of
            // the all-zero centroid.
            for points in [points, vec![zero]] {
                let reps = Reps::of(&points, dim);
                let mut work = FitWork::default();
                let nearest_per_point = reps.nearest(&centroids, &mut work);
                for q in [&centroids[0], &centroids[k - 1]] {
                    let per_point = nearest_per_point.iter().zip(reps.sq_dists(q, &mut work));
                    for (p, (&(gi, gd), gq)) in points.iter().zip(per_point) {
                        let (wi, wd) = nearest(&centroids, p);
                        prop_assert_eq!((gi, gd.to_bits()), (wi, wd.to_bits()));
                        prop_assert_eq!(gq.to_bits(), sq_dist(p, q).to_bits());
                    }
                }
                // A dense kernel reads every row of every block per centroid.
                let pairs = (reps.blocks * (k + 2)) as u64;
                prop_assert!(work.rows <= pairs * dim as u64);
            }
        }
    }

    proptest! {
        /// Every point is assigned to its nearest centroid, and inertia is
        /// nonnegative and reproducible.
        fn kmeans_invariants(seed in 0u64..200, k in 1usize..5) {
            let mut data_rng = StreamRng::new(seed);
            let points: Vec<Vec<f32>> = (0..40)
                .map(|_| (0..3).map(|_| data_rng.standard_normal() as f32).collect())
                .collect();
            let km = KMeans::fit(&points, KMeansConfig::new(k), &mut StreamRng::new(seed)).unwrap();
            prop_assert!(km.inertia >= 0.0);
            prop_assert_eq!(km.assignments().len(), points.len());
            for (p, &a) in points.iter().zip(km.assignments()) {
                prop_assert_eq!(km.predict(p), a);
            }
            let km2 = KMeans::fit(&points, KMeansConfig::new(k), &mut StreamRng::new(seed)).unwrap();
            prop_assert_eq!(km.assignments(), km2.assignments());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The sparse update gives the dense update's centroid bits and
        /// RNG state, with ±0.0 and NaN coordinates, repeated points and
        /// an empty cluster that is re-seeded.
        fn sparse_update_matches_the_dense_one(
            seed in 0u64..1_000_000,
            k in 2usize..=12,
            n in 1usize..=40,
            dim in 1usize..=48,
        ) {
            let mut rng = StreamRng::new(seed);
            let mut points = vectors(n, dim, &mut rng);
            // Zero-heavy points, as TF-IDF gives, and a NaN now and then.
            for p in &mut points {
                for x in p.iter_mut() {
                    match rng.below(16) {
                        0..=9 => *x = if rng.below(2) == 0 { 0.0 } else { -0.0 },
                        10 if rng.below(8) == 0 => *x = f32::NAN,
                        _ => {}
                    }
                }
            }
            points.push(points[0].clone());
            // Cluster k - 1 gets no member, so both updates re-seed it.
            let assignments: Vec<usize> =
                (0..points.len()).map(|_| rng.below(k - 1)).collect();
            let centroids = vectors(k, dim, &mut rng);
            let reps = Reps::of(&points, dim);
            let (mut sparse, mut dense) = (centroids.clone(), centroids);
            let (mut sparse_rng, mut dense_rng) = (StreamRng::new(seed), StreamRng::new(seed));
            update_centroids(&points, &reps, &assignments, &mut sparse, &mut sparse_rng);
            oracle::update_centroids(&points, &assignments, &mut dense, &mut dense_rng);
            let bits = |cs: &[Vec<f32>]| -> Vec<Vec<u32>> {
                cs.iter().map(|c| c.iter().map(|x| x.to_bits()).collect()).collect()
            };
            prop_assert_eq!(bits(&sparse), bits(&dense));
            prop_assert_eq!(sparse_rng.uniform().to_bits(), dense_rng.uniform().to_bits());
        }
    }

    #[test]
    fn fit_matches_scalar_oracle_with_and_without_duplicates() {
        let config = KMeansConfig::new(10);
        // Mostly duplicates, as templated ticket text gives.
        assert_fit_matches_oracle(&templated(400, 60, 48, 11), config, 1);
        // No duplicates at all.
        let mut rng = StreamRng::new(12);
        assert_fit_matches_oracle(&vectors(300, 20, &mut rng), config, 2);
        assert_fit_matches_oracle(&blobs(), KMeansConfig::new(3), 3);
        // Coinciding points take the uniform-pick and empty-cluster reseeds.
        assert_fit_matches_oracle(&vec![vec![1.0f32, 1.0]; 10], KMeansConfig::new(3), 4);
    }

    #[test]
    fn reps_group_equal_bit_patterns() {
        let pts = vec![
            vec![1.0f32, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, -0.0],
            vec![0.0, 1.0],
            vec![-0.0, 1.0],
            vec![f32::NAN, 0.0],
        ];
        let reps = Reps::of(&pts, 2);
        assert_eq!(reps.rep_of[0], reps.rep_of[2]);
        assert_eq!(reps.rep_of[1], reps.rep_of[4]);
        // -0.0 and 0.0 differ in bits but not in any distance or sum.
        assert_eq!(reps.rep_of[0], reps.rep_of[3]);
        assert_eq!(reps.rep_of[1], reps.rep_of[5]);
        let mut distinct = reps.rep_of.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, [0, 1, 2], "NaN is nonzero");
        // Representatives are ordered by support: dimension 0 first.
        assert_eq!(reps.rep_of[1], 2);
        assert_eq!(reps.masks, [0b11]);
        // The scattered distances are every point's own.
        for q in [[0.5f32, 0.25], [-0.0, 0.0], [0.0, -0.0]] {
            for (p, d) in pts.iter().zip(reps.sq_dists(&q, &mut FitWork::default())) {
                assert_eq!(d.to_bits(), sq_dist(p, &q).to_bits());
            }
        }
    }

    #[test]
    fn rejects_ragged_input() {
        let pts = vec![vec![1.0f32, 0.0], vec![0.0, 1.0, 5.0]];
        let mut rng = StreamRng::new(8);
        assert_eq!(
            KMeans::fit(&pts, KMeansConfig::new(2), &mut rng),
            Err(StatsError::DimensionMismatch {
                what: "k-means",
                expected: 2,
                got: 3,
            })
        );
    }

    fn blobs() -> Vec<Vec<f32>> {
        // Three well-separated 2-D blobs, 30 points each.
        let mut rng = StreamRng::new(10);
        let centers = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)];
        let mut pts = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..30 {
                pts.push(vec![
                    cx + rng.standard_normal() as f32 * 0.5,
                    cy + rng.standard_normal() as f32 * 0.5,
                ]);
            }
        }
        pts
    }

    #[test]
    fn recovers_separated_blobs() {
        let pts = blobs();
        let mut rng = StreamRng::new(1);
        let km = KMeans::fit(&pts, KMeansConfig::new(3), &mut rng).unwrap();
        assert_eq!(km.centroids.len(), 3);
        assert_eq!(km.assignments().len(), 90);
        // Each blob should map to exactly one cluster.
        for blob in 0..3 {
            let slice = &km.assignments()[blob * 30..(blob + 1) * 30];
            assert!(slice.iter().all(|&a| a == slice[0]), "blob {blob} split");
        }
        // And the three clusters are distinct.
        let mut firsts: Vec<usize> = (0..3).map(|b| km.assignments()[b * 30]).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 3);
        assert!(km.inertia < 150.0, "inertia {}", km.inertia);
        assert!(km.iterations >= 1);
    }

    #[test]
    fn predict_matches_assignment() {
        let pts = blobs();
        let mut rng = StreamRng::new(2);
        let km = KMeans::fit(&pts, KMeansConfig::new(3), &mut rng).unwrap();
        for (p, &a) in pts.iter().zip(km.assignments()) {
            assert_eq!(km.predict(p), a);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blobs();
        let km1 = KMeans::fit(&pts, KMeansConfig::new(3), &mut StreamRng::new(3)).unwrap();
        let km2 = KMeans::fit(&pts, KMeansConfig::new(3), &mut StreamRng::new(3)).unwrap();
        assert_eq!(km1, km2);
    }

    #[test]
    fn assignment_minimizes_distance_to_centroids() {
        let pts = blobs();
        let mut rng = StreamRng::new(4);
        let km = KMeans::fit(&pts, KMeansConfig::new(3), &mut rng).unwrap();
        for (p, &a) in pts.iter().zip(km.assignments()) {
            let assigned = sq_dist(p, &km.centroids[a]);
            for c in &km.centroids {
                assert!(assigned <= sq_dist(p, c) + 1e-4);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_fit() {
        let pts = blobs();
        dcfail_par::set_thread_override(Some(1));
        let seq = KMeans::fit(&pts, KMeansConfig::new(3), &mut StreamRng::new(8)).unwrap();
        dcfail_par::set_thread_override(Some(8));
        let par = KMeans::fit(&pts, KMeansConfig::new(3), &mut StreamRng::new(8)).unwrap();
        dcfail_par::set_thread_override(None);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_k_equal_points() {
        let pts = vec![vec![1.0f32, 0.0], vec![0.0, 1.0]];
        let mut rng = StreamRng::new(5);
        let km = KMeans::fit(&pts, KMeansConfig::new(2), &mut rng).unwrap();
        assert_eq!(km.centroids.len(), 2);
        assert!(km.inertia < 1e-9);
    }

    #[test]
    fn duplicate_points_dont_crash() {
        let pts = vec![vec![1.0f32, 1.0]; 10];
        let mut rng = StreamRng::new(6);
        let km = KMeans::fit(&pts, KMeansConfig::new(3), &mut rng).unwrap();
        assert!(km.inertia < 1e-9);
    }

    #[test]
    fn rejects_bad_input() {
        let pts = vec![vec![0.0f32]];
        let mut rng = StreamRng::new(7);
        assert!(KMeans::fit(&pts, KMeansConfig::new(2), &mut rng).is_err());
        assert!(KMeans::fit(&pts, KMeansConfig::new(0), &mut rng).is_err());
    }
}
