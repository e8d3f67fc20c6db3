//! Theorem 1: the neighbourhood probability `g(z)` and its lookup table.
//!
//! `g(z)` is the probability that a sensor of group `G_i` (whose resident
//! point is an isotropic Gaussian with deviation σ around the deployment
//! point) lands within transmission range `R` of a point located `z` metres
//! from that deployment point:
//!
//! ```text
//! g(z) = 1{z < R}·(1 − e^{−(R−z)²/(2σ²)})
//!        + ∫_{|z−R|}^{z+R} f_R(ℓ) · 2ℓ·cos⁻¹((ℓ² + z² − R²)/(2ℓz)) dℓ
//! f_R(ℓ) = 1/(2πσ²)·e^{−ℓ²/(2σ²)}
//! ```
//!
//! The first term is the Rayleigh probability mass of the circles that lie
//! entirely inside the neighbourhood disk; the integral accumulates, over the
//! partially overlapping circles of radius ℓ, the planar Gaussian density
//! times the arc length inside the disk.
//!
//! The exact evaluation ([`gz_exact`]) uses adaptive Simpson quadrature and is
//! too expensive for sensor-side use, so §3.3 of the paper prescribes a
//! precomputed ω-entry lookup table with linear interpolation — that is
//! [`GzTable`].

use lad_geometry::Circle;
use lad_stats::integrate::adaptive_simpson;
use lad_stats::LookupTable;

/// Exact evaluation of Theorem 1's `g(z)` for distance `z`, transmission
/// range `range` and placement deviation `sigma`.
///
/// Handles the degenerate `z ≈ 0` case (the observer sits on the deployment
/// point) with the closed-form Rayleigh CDF.
pub fn gz_exact(z: f64, range: f64, sigma: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(sigma > 0.0, "sigma must be positive");
    let z = z.abs();

    // Degenerate case: the query point coincides with the deployment point.
    if z < 1e-9 {
        return 1.0 - (-(range * range) / (2.0 * sigma * sigma)).exp();
    }

    let two_sigma_sq = 2.0 * sigma * sigma;
    let norm = 1.0 / (std::f64::consts::PI * two_sigma_sq); // 1/(2πσ²)

    // Closed-form part: circles of radius ℓ < R − z lie entirely inside the
    // neighbourhood disk (only possible when z < R).
    let inside = if z < range {
        1.0 - (-((range - z) * (range - z)) / two_sigma_sq).exp()
    } else {
        0.0
    };

    // Integral part over the partially overlapping circles.
    let lo = (z - range).abs();
    let hi = z + range;
    let integrand = |ell: f64| -> f64 {
        if ell <= 0.0 {
            return 0.0;
        }
        let density = norm * (-(ell * ell) / two_sigma_sq).exp();
        let half_angle = Circle::arc_half_angle(ell, z, range);
        // Arc length inside the disk is ℓ·2·half_angle; for ℓ in the open
        // interval (|z−R|, z+R) the half-angle is the arccos term of the paper.
        density * 2.0 * ell * half_angle
    };
    let integral = adaptive_simpson(integrand, lo, hi, 1e-10, 24);

    (inside + integral).clamp(0.0, 1.0)
}

/// The §3.3 lookup table: `g(z)` pre-evaluated at `ω + 1` equally spaced
/// distances, evaluated at query time with linear interpolation in O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct GzTable {
    range: f64,
    sigma: f64,
    z_max: f64,
    table: LookupTable,
}

impl GzTable {
    /// Number of standard deviations beyond which `g(z)` is treated as 0 when
    /// sizing the table domain.
    const TAIL_SIGMAS: f64 = 6.0;

    /// Builds the table for transmission range `range`, placement deviation
    /// `sigma` and `omega` sub-ranges.
    ///
    /// The tabulated domain is `[0, R + 6σ]`; beyond it the true value is
    /// below 10⁻⁸ and the table clamps to its last entry (≈ 0).
    pub fn build(range: f64, sigma: f64, omega: usize) -> Self {
        assert!(omega >= 2, "omega must be at least 2");
        let z_max = range + Self::TAIL_SIGMAS * sigma;
        let table = LookupTable::build(0.0, z_max, omega, |z| gz_exact(z, range, sigma));
        Self {
            range,
            sigma,
            z_max,
            table,
        }
    }

    /// The transmission range the table was built for.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The placement deviation the table was built for.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of sub-ranges ω.
    pub fn omega(&self) -> usize {
        self.table.omega()
    }

    /// Upper end of the tabulated domain.
    pub fn z_max(&self) -> f64 {
        self.z_max
    }

    /// Interpolated `g(z)` (clamped to `[0, 1]`; 0 beyond the tabulated tail).
    #[inline]
    pub fn eval(&self, z: f64) -> f64 {
        self.prepared().eval(z)
    }

    /// A borrowed evaluator with the table invariants hoisted for hot loops
    /// (bit-identical to [`Self::eval`]).
    #[inline]
    pub fn prepared(&self) -> PreparedGz<'_> {
        PreparedGz {
            z_max: self.z_max,
            table: self.table.prepared(),
        }
    }

    /// Maximum absolute interpolation error against the exact quadrature,
    /// probed `probes_per_cell` times per sub-range (the ω ablation of
    /// DESIGN.md experiment E9).
    pub fn max_interpolation_error(&self, probes_per_cell: usize) -> f64 {
        self.table
            .max_error_against(|z| gz_exact(z, self.range, self.sigma), probes_per_cell)
    }
}

/// The hoisted-invariant `g(z)` evaluator returned by [`GzTable::prepared`].
#[derive(Debug, Clone, Copy)]
pub struct PreparedGz<'a> {
    z_max: f64,
    table: lad_stats::PreparedLookup<'a>,
}

impl PreparedGz<'_> {
    /// Interpolated `g(z)`; bit-identical to [`GzTable::eval`].
    #[inline(always)]
    pub fn eval(&self, z: f64) -> f64 {
        let z = z.abs();
        if z >= self.z_max {
            return 0.0;
        }
        self.table.eval(z).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_geometry::{sampling, Point2};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const R: f64 = 40.0;
    const SIGMA: f64 = 50.0;

    #[test]
    fn gz_at_zero_is_rayleigh_cdf_of_range() {
        let expected = 1.0 - (-(R * R) / (2.0 * SIGMA * SIGMA)).exp();
        assert!((gz_exact(0.0, R, SIGMA) - expected).abs() < 1e-9);
    }

    #[test]
    fn gz_decreases_with_distance() {
        let mut prev = gz_exact(0.0, R, SIGMA);
        for i in 1..60 {
            let z = i as f64 * 10.0;
            let g = gz_exact(z, R, SIGMA);
            assert!(g <= prev + 1e-9, "g not monotone at z = {z}");
            prev = g;
        }
    }

    #[test]
    fn gz_far_away_is_negligible() {
        assert!(gz_exact(500.0, R, SIGMA) < 1e-8);
        assert!(gz_exact(1000.0, R, SIGMA) < 1e-12);
    }

    #[test]
    fn gz_is_continuous_across_z_equals_r() {
        let eps = 1e-4;
        let below = gz_exact(R - eps, R, SIGMA);
        let above = gz_exact(R + eps, R, SIGMA);
        assert!(
            (below - above).abs() < 1e-3,
            "discontinuity at z = R: {below} vs {above}"
        );
    }

    #[test]
    fn gz_matches_monte_carlo() {
        // Empirical check of Theorem 1: sample resident points from the
        // Gaussian placement and count how many fall within R of a point at
        // distance z from the deployment point.
        let deployment_point = Point2::new(0.0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let n = 200_000;
        for &z in &[0.0, 20.0, 40.0, 60.0, 90.0, 130.0, 180.0] {
            let query = Point2::new(z, 0.0);
            let mut hits = 0usize;
            for _ in 0..n {
                let p = sampling::gaussian_around(&mut rng, deployment_point, SIGMA);
                if p.distance(query) <= R {
                    hits += 1;
                }
            }
            let empirical = hits as f64 / n as f64;
            let analytic = gz_exact(z, R, SIGMA);
            assert!(
                (empirical - analytic).abs() < 0.004,
                "z={z}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn table_matches_exact_values_closely() {
        let table = GzTable::build(R, SIGMA, 256);
        for i in 0..200 {
            let z = i as f64 * 2.0;
            assert!(
                (table.eval(z) - gz_exact(z, R, SIGMA)).abs() < 1e-4,
                "table error too large at z = {z}"
            );
        }
        assert_eq!(table.range(), R);
        assert_eq!(table.sigma(), SIGMA);
        assert_eq!(table.omega(), 256);
    }

    #[test]
    fn table_error_shrinks_with_omega() {
        let coarse = GzTable::build(R, SIGMA, 16);
        let fine = GzTable::build(R, SIGMA, 512);
        let e_coarse = coarse.max_interpolation_error(4);
        let e_fine = fine.max_interpolation_error(4);
        assert!(e_fine < e_coarse);
        assert!(e_fine < 1e-5, "fine table error {e_fine}");
    }

    #[test]
    fn table_tail_is_zero() {
        let table = GzTable::build(R, SIGMA, 64);
        assert_eq!(table.eval(table.z_max() + 1.0), 0.0);
        assert_eq!(table.eval(1e6), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_gz_is_a_probability(z in 0.0f64..800.0, r in 5.0f64..120.0, s in 5.0f64..150.0) {
            let g = gz_exact(z, r, s);
            prop_assert!((0.0..=1.0).contains(&g));
        }

        #[test]
        fn prop_gz_increases_with_range(z in 0.0f64..300.0, s in 10.0f64..100.0, r in 10.0f64..80.0) {
            // A larger transmission range can only increase the neighbourhood probability.
            prop_assert!(gz_exact(z, r + 20.0, s) + 1e-9 >= gz_exact(z, r, s));
        }

        #[test]
        fn prop_table_close_to_exact(z in 0.0f64..400.0) {
            let table = GzTable::build(R, SIGMA, 256);
            prop_assert!((table.eval(z) - gz_exact(z, R, SIGMA)).abs() < 5e-4);
        }
    }
}
