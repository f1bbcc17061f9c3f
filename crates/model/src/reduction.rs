//! The Eq. 1 subgroup-reduction cost model.
//!
//! ```text
//! T_sg_add(r, s) = p₃(log₂ s)³ + p₂(log₂ s)² + p₁ log₂ s + p₀
//!          pᵢ    = αᵢ · log₂ r + βᵢ
//! ```
//!
//! The cubic term captures the multi-level shifting/alignment/accumulation
//! of hierarchical reductions; the coefficients drift with the group size
//! `r` because group-boundary masking deepens with `log₂ r`. The
//! coefficients (αᵢ, βᵢ) are experimentally determined: here they are
//! fitted by ordinary least squares against the simulator's emergent
//! staged-reduction cost ([`gvml::reduce::sg_add_cycles`]) over the full
//! (r, s) power-of-two grid.

use apu_sim::DeviceTiming;

/// Grid of group sizes used for fitting (powers of two up to 4096, the
/// range exercised by the paper's workloads).
const FIT_LOG_R: std::ops::RangeInclusive<u32> = 1..=15;

/// Solves the normal equations `AᵀA x = Aᵀb` for a small dense system by
/// Gaussian elimination with partial pivoting. `a` is row-major with
/// `cols` columns.
fn least_squares(a: &[f64], b: &[f64], cols: usize) -> Vec<f64> {
    let rows = b.len();
    assert_eq!(a.len(), rows * cols, "design matrix shape mismatch");
    // Normal matrix and RHS.
    let mut m = vec![0.0f64; cols * (cols + 1)];
    for r in 0..rows {
        for i in 0..cols {
            for j in 0..cols {
                m[i * (cols + 1) + j] += a[r * cols + i] * a[r * cols + j];
            }
            m[i * (cols + 1) + cols] += a[r * cols + i] * b[r];
        }
    }
    // Gaussian elimination.
    for col in 0..cols {
        // pivot
        let mut piv = col;
        for r in col + 1..cols {
            if m[r * (cols + 1) + col].abs() > m[piv * (cols + 1) + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for j in 0..=cols {
                m.swap(col * (cols + 1) + j, piv * (cols + 1) + j);
            }
        }
        let d = m[col * (cols + 1) + col];
        assert!(d.abs() > 1e-12, "singular normal matrix");
        for j in 0..=cols {
            m[col * (cols + 1) + j] /= d;
        }
        for r in 0..cols {
            if r != col {
                let f = m[r * (cols + 1) + col];
                for j in 0..=cols {
                    m[r * (cols + 1) + j] -= f * m[col * (cols + 1) + j];
                }
            }
        }
    }
    (0..cols).map(|i| m[i * (cols + 1) + cols]).collect()
}

/// Fitted Eq. 1 coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct SgAddModel {
    /// αᵢ for i = 0..4: slope of pᵢ in `log₂ r`.
    pub alpha: [f64; 4],
    /// βᵢ for i = 0..4: intercept of pᵢ.
    pub beta: [f64; 4],
    /// Coefficient of determination of the fit over the training grid.
    pub r_squared: f64,
}

impl SgAddModel {
    /// Fits the model against the device's staged-reduction cost over the
    /// power-of-two `(r, s)` grid.
    pub fn fit(timing: &DeviceTiming) -> SgAddModel {
        Self::fit_cost(timing, gvml::reduce::sg_add_cycles)
    }

    /// Fits the Eq. 1 form against the staged min/max-reduction cost
    /// (compare + masked select per stage instead of an add).
    pub fn fit_minmax(timing: &DeviceTiming) -> SgAddModel {
        Self::fit_cost(timing, gvml::reduce::sg_minmax_cycles)
    }

    /// Fits the Eq. 1 polynomial form against an arbitrary staged cost
    /// function over the power-of-two `(r, s)` grid.
    pub fn fit_cost(
        timing: &DeviceTiming,
        cost: fn(&DeviceTiming, usize, usize) -> u64,
    ) -> SgAddModel {
        // Build one joint least-squares problem over both log2 s and
        // log2 r: T = Σᵢ (αᵢ·log r + βᵢ)·(log s)ⁱ, 8 unknowns.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for log_r in FIT_LOG_R {
            let r = 1usize << log_r;
            for log_s in 1..=log_r {
                let s = 1usize << log_s;
                let t = cost(timing, r, s) as f64;
                let ls = log_s as f64;
                let lr = log_r as f64;
                // columns: [lr·ls³, ls³, lr·ls², ls², lr·ls, ls, lr, 1]
                a.extend_from_slice(&[
                    lr * ls * ls * ls,
                    ls * ls * ls,
                    lr * ls * ls,
                    ls * ls,
                    lr * ls,
                    ls,
                    lr,
                    1.0,
                ]);
                b.push(t);
            }
        }
        let x = least_squares(&a, &b, 8);
        let model = SgAddModel {
            alpha: [x[6], x[4], x[2], x[0]],
            beta: [x[7], x[5], x[3], x[1]],
            r_squared: 0.0,
        };
        let r2 = model.r_squared_against_cost(timing, cost);
        SgAddModel {
            r_squared: r2,
            ..model
        }
    }

    /// Predicted cycles for group size `r`, subgroup size `s`.
    ///
    /// Non-power-of-two sizes are handled with real-valued logarithms (the
    /// model is a smooth surface).
    pub fn predict(&self, r: usize, s: usize) -> f64 {
        if s <= 1 {
            // Degenerate subgroup is a plain copy; stay consistent with
            // the device behaviour.
            return 0.0;
        }
        let lr = (r.max(2) as f64).log2();
        let ls = (s as f64).log2();
        let p = |i: usize| self.alpha[i] * lr + self.beta[i];
        p(3) * ls * ls * ls + p(2) * ls * ls + p(1) * ls + p(0)
    }

    /// R² of the model against the staged-add ground-truth grid.
    pub fn r_squared_against(&self, timing: &DeviceTiming) -> f64 {
        self.r_squared_against_cost(timing, gvml::reduce::sg_add_cycles)
    }

    /// R² against an arbitrary staged cost function.
    pub fn r_squared_against_cost(
        &self,
        timing: &DeviceTiming,
        cost: fn(&DeviceTiming, usize, usize) -> u64,
    ) -> f64 {
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for log_r in FIT_LOG_R {
            let r = 1usize << log_r;
            for log_s in 1..=log_r {
                let s = 1usize << log_s;
                truths.push(cost(timing, r, s) as f64);
                preds.push(self.predict(r, s));
            }
        }
        let mean = truths.iter().sum::<f64>() / truths.len() as f64;
        let ss_tot: f64 = truths.iter().map(|t| (t - mean).powi(2)).sum();
        let ss_res: f64 = truths
            .iter()
            .zip(&preds)
            .map(|(t, p)| (t - p).powi(2))
            .sum();
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_exact_line() {
        // y = 3x + 1
        let a = [1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0];
        let b = [4.0, 7.0, 10.0, 13.0];
        let x = least_squares(&a, &b, 2);
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_is_accurate_on_training_grid() {
        let t = DeviceTiming::leda_e();
        let m = SgAddModel::fit(&t);
        assert!(
            m.r_squared > 0.95,
            "Eq.1 fit explains the staged cost poorly: R² = {}",
            m.r_squared
        );
    }

    #[test]
    fn predictions_track_ground_truth_within_tolerance() {
        let t = DeviceTiming::leda_e();
        let m = SgAddModel::fit(&t);
        for (r, s) in [(64, 64), (1024, 256), (4096, 4096), (256, 2)] {
            let truth = gvml::reduce::sg_add_cycles(&t, r, s) as f64;
            let pred = m.predict(r, s);
            let err = (pred - truth).abs() / truth;
            assert!(
                err < 0.35,
                "sg_add({r},{s}): predicted {pred:.0}, truth {truth:.0} (err {err:.2})"
            );
        }
    }

    #[test]
    fn cost_monotone_in_subgroup_size() {
        let t = DeviceTiming::leda_e();
        let m = SgAddModel::fit(&t);
        assert!(m.predict(1024, 1024) > m.predict(1024, 16));
    }

    #[test]
    fn degenerate_subgroup_is_free() {
        let t = DeviceTiming::leda_e();
        let m = SgAddModel::fit(&t);
        assert_eq!(m.predict(1024, 1), 0.0);
    }
}
