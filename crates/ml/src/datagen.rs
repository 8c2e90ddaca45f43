//! Deterministic synthetic datasets in the style of the paper's spark-perf generator,
//! which the paper uses to generate its 100 GB / 55.6 M-element input.
//!
//! We run the *math* on a scaled-down sample (the shapes of convergence
//! curves do not need 100 GB) while the *cost model*
//! ([`crate::cost`]) charges virtual time as if each partition held its
//! paper-scale share. Partitions are generated reproducibly from
//! `(seed, partition index)`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::codec::Wire;

/// Dimensionality used throughout the paper's ML experiments.
pub const PAPER_DIMS: usize = 100;

/// A k-means partition: dense points.
#[derive(Clone, Debug, PartialEq, Wire)]
pub struct PointsPartition {
    /// Points, each of `dims` coordinates.
    pub points: Vec<Vec<f64>>,
}

/// A logistic-regression partition: labelled points (`label` ∈ {0, 1}).
#[derive(Clone, Debug, PartialEq, Wire)]
pub struct LabeledPartition {
    /// Feature vectors.
    pub points: Vec<Vec<f64>>,
    /// Labels, same length as `points`.
    pub labels: Vec<f64>,
}

fn part_rng(seed: u64, partition: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (partition as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The "true" cluster centers points are drawn around (shared by every
/// partition so the global structure is coherent).
pub fn true_centers(seed: u64, k: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    (0..k).map(|_| (0..dims).map(|_| rng.random_range(-10.0..10.0)).collect()).collect()
}

/// Generates one k-means partition: `n` points around `k` shared centers
/// with unit noise.
pub fn kmeans_partition(
    seed: u64,
    partition: usize,
    n: usize,
    dims: usize,
    k: usize,
) -> PointsPartition {
    let centers = true_centers(seed, k, dims);
    let mut rng = part_rng(seed, partition);
    let points = (0..n)
        .map(|_| {
            let c = &centers[rng.random_range(0..k)];
            c.iter().map(|&x| x + gaussian(&mut rng)).collect()
        })
        .collect();
    PointsPartition { points }
}

/// The "true" weight vector behind the logistic-regression labels.
pub fn true_weights(seed: u64, dims: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17).wrapping_add(3));
    (0..dims).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Generates one labelled partition: features ~ N(0,1); labels from a
/// logistic model with 10 % flip noise.
pub fn logreg_partition(seed: u64, partition: usize, n: usize, dims: usize) -> LabeledPartition {
    let w = true_weights(seed, dims);
    let mut rng = part_rng(seed, partition);
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..dims).map(|_| gaussian(&mut rng)).collect();
        let z: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        let p = 1.0 / (1.0 + (-z).exp());
        let mut y = if p > 0.5 { 1.0 } else { 0.0 };
        if rng.random_range(0.0..1.0) < 0.1 {
            y = 1.0 - y;
        }
        points.push(x);
        labels.push(y);
    }
    LabeledPartition { points, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_deterministic_and_distinct() {
        let a = kmeans_partition(1, 0, 50, 10, 3);
        let b = kmeans_partition(1, 0, 50, 10, 3);
        let c = kmeans_partition(1, 1, 50, 10, 3);
        let d = kmeans_partition(2, 0, 50, 10, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.points.len(), 50);
        assert_eq!(a.points[0].len(), 10);
    }

    #[test]
    fn kmeans_points_cluster_around_true_centers() {
        let k = 4;
        let dims = 8;
        let part = kmeans_partition(7, 0, 400, dims, k);
        let centers = true_centers(7, k, dims);
        // Every point should be near (within a few sigma of) some center.
        for p in &part.points {
            let min_d2: f64 = centers
                .iter()
                .map(|c| c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            assert!(min_d2 < (6.0 * 6.0) * dims as f64, "point far from all centers: {min_d2}");
        }
    }

    #[test]
    fn logreg_labels_follow_true_weights() {
        let dims = 12;
        let part = logreg_partition(9, 0, 500, dims);
        let w = true_weights(9, dims);
        let mut agree = 0;
        for (x, y) in part.points.iter().zip(&part.labels) {
            let z: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            let pred = if z > 0.0 { 1.0 } else { 0.0 };
            if (pred - y).abs() < 0.5 {
                agree += 1;
            }
        }
        // 10% label noise => ~90% agreement.
        assert!(agree > 400, "only {agree}/500 labels agree with the generator");
    }

    #[test]
    fn gaussian_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn partitions_round_trip_through_codec() {
        let part = kmeans_partition(3, 2, 20, 5, 2);
        let bytes = crucial::codec::to_bytes(&part).expect("encode");
        let back: PointsPartition = crucial::codec::from_bytes(&bytes).expect("decode");
        assert_eq!(part, back);
        let part = logreg_partition(3, 2, 20, 5);
        let bytes = crucial::codec::to_bytes(&part).expect("encode");
        let back: LabeledPartition = crucial::codec::from_bytes(&bytes).expect("decode");
        assert_eq!(part, back);
    }
}
