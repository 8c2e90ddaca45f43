//! The compute-cost model that maps paper-scale workloads onto virtual
//! time.
//!
//! The evaluation's dataset is 100 GB / 55.6 M points of 100 dimensions,
//! split over 80 workers (§6.2.2). We run the actual math on a scaled-down
//! sample but charge each worker the CPU time its paper-scale share would
//! take on one vCPU. The constants are fitted from the paper's own
//! numbers (see EXPERIMENTS.md §"calibration"):
//!
//! * k-means iterations cost ≈ `0.088 × k` seconds at 80 workers, which
//!   pins the per point-centroid-coordinate cost;
//! * logistic regression iterations cost ≈ 0.55 s of compute, pinning the
//!   per point-coordinate gradient cost.

use std::time::Duration;

use simcore::codec::Wire;

/// Paper-scale dataset shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Wire)]
pub struct DatasetScale {
    /// Total elements (55.6 M in the paper).
    pub total_points: u64,
    /// Dimensions per element.
    pub dims: u32,
    /// Partitions / workers (80 in the paper).
    pub partitions: u32,
}

impl Default for DatasetScale {
    fn default() -> Self {
        DatasetScale { total_points: 55_600_000, dims: 100, partitions: 80 }
    }
}

impl DatasetScale {
    /// Points per partition.
    pub fn points_per_partition(&self) -> u64 {
        self.total_points / self.partitions as u64
    }

    /// Serialized bytes of one partition (doubles plus label overhead).
    pub fn partition_bytes(&self) -> u64 {
        self.points_per_partition() * (self.dims as u64 + 1) * 8
    }
}

/// JVM cost of one point×centroid distance accumulation, per coordinate,
/// in nanoseconds.
pub const KMEANS_PER_POINT_CENTROID_DIM_NS: f64 = 1.27;

/// JVM cost of one gradient accumulation, per point coordinate, in
/// nanoseconds.
pub const LOGREG_PER_POINT_DIM_NS: f64 = 8.0;

/// Sustained S3 read bandwidth per Lambda reader (ENI-bound).
pub const S3_READ_BW: f64 = 85.0 * 1024.0 * 1024.0;

/// Parse rate of the CSV-ish input (bytes per second per vCPU).
pub const PARSE_BW: f64 = 45.0 * 1024.0 * 1024.0;

/// Monte Carlo sampling rate (points per second per vCPU): two
/// `Random.nextDouble()` calls plus arithmetic, Java speed. Pins Fig. 2b's
/// absolute throughput (8.4 G points/s at 800 threads).
pub const MONTE_CARLO_POINTS_PER_SEC: f64 = 11.0e6;

/// One k-means assignment pass over a partition: distance to `k` centroids
/// for every point.
pub fn kmeans_assign_cost(scale: &DatasetScale, k: u32) -> Duration {
    let ops = scale.points_per_partition() as f64 * k as f64 * scale.dims as f64;
    Duration::from_secs_f64(ops * KMEANS_PER_POINT_CENTROID_DIM_NS * 1e-9)
}

/// One logistic-regression gradient pass over a partition.
pub fn logreg_grad_cost(scale: &DatasetScale) -> Duration {
    let ops = scale.points_per_partition() as f64 * scale.dims as f64;
    Duration::from_secs_f64(ops * LOGREG_PER_POINT_DIM_NS * 1e-9)
}

/// Time to fetch and parse one partition from the object store.
pub fn partition_load_cost(scale: &DatasetScale) -> Duration {
    let bytes = scale.partition_bytes() as f64;
    Duration::from_secs_f64(bytes / S3_READ_BW + bytes / PARSE_BW)
}

/// Virtual time to draw `points` Monte Carlo samples on one vCPU.
pub fn monte_carlo_cost(points: u64) -> Duration {
    Duration::from_secs_f64(points as f64 / MONTE_CARLO_POINTS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_defaults() {
        let s = DatasetScale::default();
        assert_eq!(s.points_per_partition(), 695_000);
        // ~100 GB / 80 ≈ 1.3 GB per partition within a factor.
        let gb = s.partition_bytes() as f64 / 1e9;
        assert!(gb > 0.4 && gb < 1.5, "partition ≈ {gb} GB");
    }

    #[test]
    fn kmeans_cost_matches_fitted_slope() {
        // Fit: iteration ≈ 0.088 × k seconds (EXPERIMENTS.md).
        let s = DatasetScale::default();
        for k in [25u32, 100, 200] {
            let per_iter = kmeans_assign_cost(&s, k).as_secs_f64();
            let expected = 0.088 * k as f64;
            assert!(
                (per_iter - expected).abs() / expected < 0.30,
                "k={k}: {per_iter}s vs fitted {expected}s"
            );
        }
    }

    #[test]
    fn logreg_cost_near_half_second() {
        let s = DatasetScale::default();
        let c = logreg_grad_cost(&s).as_secs_f64();
        assert!((0.4..0.7).contains(&c), "logreg pass = {c}s");
    }

    #[test]
    fn load_cost_tens_of_seconds() {
        // Table 3: total minus iterations leaves ~60 s for load+parse at
        // k=25; our model should be in that ballpark.
        let c = partition_load_cost(&DatasetScale::default()).as_secs_f64();
        assert!((10.0..40.0).contains(&c), "load+parse = {c}s");
    }

    #[test]
    fn monte_carlo_rate_pins_fig2b() {
        // 800 threads at this rate ≈ 8.8 G points/s (paper: 8.4 G).
        let total = 800.0 * MONTE_CARLO_POINTS_PER_SEC;
        assert!((7.0e9..10.0e9).contains(&total));
        assert_eq!(monte_carlo_cost(11_000_000), Duration::from_secs(1));
    }
}
