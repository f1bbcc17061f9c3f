//! Closed-form cost and operational-intensity model for the binary
//! matrix-multiplication motivating example (paper §4.1–§4.4,
//! Eqs. 2–14).
//!
//! Matrices are bit-packed along the reduction axis: `A (M × K_w)` and
//! `B (K_w × N)` hold `u16` words, each packing 16 binary values, and the
//! output `C (M × N)` is `i16`. Throughout, `K` denotes the *packed*
//! word count (`K_w`), matching the paper's use of the equations with
//! 16-bit elements.
//!
//! Variants follow the evaluation's convention (Figs. 12–13): the
//! baseline, each optimization applied **alone**, and all three together.
//! The per-stage expressions follow Eqs. 2–14, with the `M` outer-loop
//! factor included where the printed per-pass expressions elide it
//! (Eq. 6), and `T_sg_add(K, 1)` — "reduce groups of K to scalars" —
//! evaluated as the reduction model's `t_sg_add(r = K, s = K)`.
//!
//! With the Leda-E calibration, the modeled 1024³ baseline lands near the
//! paper's measured 226.3 ms (dominated by the PIO result write-back) and
//! the all-opts variant in the low milliseconds (paper: 12.0 ms).

use apu_sim::VecOp;
use cis_model::ModelParams;

/// Problem shape for the binary matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulShape {
    /// Rows of A / C.
    pub m: usize,
    /// Columns of B / C.
    pub n: usize,
    /// Packed reduction length in u16 words (bits / 16).
    pub k_words: usize,
    /// Logical + arithmetic operations per packed word pair (`α`); each
    /// u16 word carries 16 binary MACs, so 32 is the natural default.
    pub alpha: usize,
}

impl MatmulShape {
    /// The paper's 1024 × 1024 microbenchmark (1024 binary values packed
    /// into 64 words).
    pub fn paper_1024() -> Self {
        MatmulShape {
            m: 1024,
            n: 1024,
            k_words: 64,
            alpha: 32,
        }
    }

    /// Total modeled operations (for roofline placement).
    pub fn total_ops(&self) -> f64 {
        (self.m * self.n * self.k_words * self.alpha) as f64
    }
}

/// The optimization configuration being modeled (Fig. 12/13 convention:
/// each optimization standalone, plus all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatmulVariant {
    /// Inner-product algorithm with spatial reduction (Fig. 7).
    Baseline,
    /// Only communication-aware reduction mapping (temporal SVP, §4.2):
    /// contiguous outputs return via DMA, LHS scalars broadcast via PIO.
    Opt1,
    /// Only DMA coalescing (§4.3): the LHS duplication traffic collapses
    /// into full-vector loads plus on-chip subgroup copies; the
    /// inner-product structure (and its PIO write-back) stays.
    Opt2,
    /// Only the broadcast-friendly layout (§4.4): standalone it merely
    /// improves the contiguity of the duplication DMA — the paper notes
    /// its opportunities "often emerge only after other optimizations".
    Opt3,
    /// All three, plus the §5.1 extras (k-axis RHS packing and the tuned
    /// `[(32,32):…]` broadcast window).
    AllOpts,
}

impl MatmulVariant {
    /// All variants in Fig. 12 order.
    pub const ALL: [MatmulVariant; 5] = [
        MatmulVariant::Baseline,
        MatmulVariant::Opt1,
        MatmulVariant::Opt2,
        MatmulVariant::Opt3,
        MatmulVariant::AllOpts,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MatmulVariant::Baseline => "baseline",
            MatmulVariant::Opt1 => "opt1",
            MatmulVariant::Opt2 => "opt2",
            MatmulVariant::Opt3 => "opt3",
            MatmulVariant::AllOpts => "all opts",
        }
    }
}

/// Per-stage cost breakdown in cycles, matching the Fig. 12 stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatmulCost {
    /// LHS (A) load cycles.
    pub t_a: f64,
    /// RHS (B) load cycles.
    pub t_b: f64,
    /// Result (C) store cycles.
    pub t_c: f64,
    /// On-VR compute cycles (including subgroup-copy duplication work).
    pub t_mac: f64,
    /// Operational intensity (ops per off-chip byte).
    pub oi: f64,
}

impl MatmulCost {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.t_a + self.t_b + self.t_c + self.t_mac
    }

    /// Total milliseconds under the given clock.
    pub fn total_ms(&self, params: &ModelParams) -> f64 {
        params.cycles_to_us(self.total()) / 1e3
    }

    /// Achieved throughput in GOPS for a shape.
    pub fn achieved_gops(&self, shape: &MatmulShape, params: &ModelParams) -> f64 {
        shape.total_ops() / (self.total() / params.clock.hz()) / 1e9
    }
}

/// Evaluates the cost model for one variant.
pub fn cost(params: &ModelParams, shape: &MatmulShape, variant: MatmulVariant) -> MatmulCost {
    let l = params.vr_len as f64;
    let m = shape.m as f64;
    let n = shape.n as f64;
    let k = shape.k_words as f64;
    let sf = 2.0; // size_of(u16)
    let bw = params.l4_bytes_per_cycle();
    let init = params.timing.dma_l4_l2_init;
    let t = |op: VecOp| params.t_op(op);
    let mac_elem = t(VecOp::Xor16) + t(VecOp::Popcnt16) + t(VecOp::AShift) + t(VecOp::SubS16);

    // ---- baseline building blocks (inner product, Eqs. 2–6) ----
    let dup_k = (l / k).floor().max(1.0); // A duplication factor ⌊l/K⌋
    let base_oi = shape.total_ops() / ((m * k * dup_k + k * n + m * n) * sf);
    // Eq. 3: per row, the duplicated copies form one chunked DMA
    // transaction (programmed 512-byte chunk addresses), then L2→L1.
    let base_t_a = m * ((k * sf * dup_k) / bw + init + params.t_dma_l2_l1());
    // Eq. 4: B column-major, ⌊l/K⌋ columns per full-vector load.
    let base_t_b = (n / dup_k).ceil() * params.t_dma_l4_l1();
    // Eq. 5: scattered results leave one at a time via PIO.
    let base_t_c = params.t_pio_st(shape.m * shape.n);
    // Eq. 6 (× M outer loop): each pass computes ⌊l/K⌋ outputs.
    let base_t_mac =
        m * (n / dup_k).ceil() * (mac_elem + params.t_sg_add(shape.k_words, shape.k_words));

    // ---- temporal (SVP) building blocks (Eqs. 7–11) ----
    let dup_n = (l / n).floor().max(1.0); // C rows per VR pass ⌊l/N⌋
    let passes = (m / dup_n).ceil();
    let svp_t_mac = (mac_elem + t(VecOp::AddS16)) * passes * k;
    let svp_t_c = passes * params.t_dma_l1_l4(); // Eq. 8, via DMA

    match variant {
        MatmulVariant::Baseline => MatmulCost {
            t_a: base_t_a,
            t_b: base_t_b,
            t_c: base_t_c,
            t_mac: base_t_mac,
            oi: base_oi,
        },
        MatmulVariant::Opt1 => {
            // Eq. 9.
            let oi = shape.total_ops() / ((m * k + n * k * dup_n + m * n) * sf);
            // Standalone opt1 broadcasts each A scalar with a PIO read
            // plus a masked immediate copy (no coalescing, no layout
            // help): ⌊l/N⌋ scalars per (pass, k) iteration.
            let t_a = passes * k * dup_n * (params.t_pio_ld(1) + t(VecOp::CpyImm));
            // Eq. 11: B rows duplicated ⌊l/N⌋ times by separate DMAs.
            let t_b = ((n * sf) / bw + init) * dup_n * k + k * params.t_dma_l2_l1();
            MatmulCost {
                t_a,
                t_b,
                t_c: svp_t_c,
                t_mac: svp_t_mac,
                oi,
            }
        }
        MatmulVariant::Opt2 => {
            // Coalescing alone: the A duplication traffic becomes
            // ⌈M·K/l⌉ full-vector loads plus one subgroup copy per row
            // (on-chip duplication from the reuse VR); the algorithm is
            // still the inner product.
            let t_a = (m * k / l).ceil() * params.t_dma_l4_l1();
            let t_mac = base_t_mac + m * t(VecOp::CpySubgrp);
            let oi = shape.total_ops() / ((m * k + k * n + m * n) * sf);
            MatmulCost {
                t_a,
                t_b: base_t_b,
                t_c: base_t_c,
                t_mac,
                oi,
            }
        }
        MatmulVariant::Opt3 => {
            // Layout alone: duplication chunks of adjacent rows become
            // contiguous, so two rows share one transaction's init.
            let t_a = (m / 2.0) * ((k * sf * dup_k * 2.0) / bw + init) + m * params.t_dma_l2_l1();
            MatmulCost {
                t_a,
                t_b: base_t_b,
                t_c: base_t_c,
                t_mac: base_t_mac,
                oi: base_oi,
            }
        }
        MatmulVariant::AllOpts => {
            // Eq. 13.
            let oi = shape.total_ops() / ((m * k + n * k + m * n) * sf);
            // LHS: streamed once by DMA, broadcast by lookup over the
            // tuned window (⌊l/N⌋ entries instead of K·N — §5.1).
            let window = (dup_n as usize).min(shape.n).max(1);
            let t_a = (m * k * sf) / bw + init + params.t_lookup(window) * passes * k;
            // Eq. 12 with k-axis packing halving the staging passes.
            let t_b = ((k * n / l) / 2.0).ceil() * params.t_dma_l4_l1() + k * t(VecOp::CpySubgrp);
            // Subgroup copies for the RHS reuse VR show up as VR ops.
            let t_mac = svp_t_mac + passes * k * t(VecOp::CpySubgrp);
            MatmulCost {
                t_a,
                t_b,
                t_c: svp_t_c,
                t_mac,
                oi,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> (ModelParams, MatmulShape) {
        (ModelParams::leda_e(), MatmulShape::paper_1024())
    }

    #[test]
    fn baseline_total_near_paper_measurement() {
        let (p, s) = paper();
        let ms = cost(&p, &s, MatmulVariant::Baseline).total_ms(&p);
        // Paper: 226.3 ms on the device.
        assert!((150.0..320.0).contains(&ms), "baseline modeled at {ms} ms");
    }

    #[test]
    fn all_opts_total_near_paper_measurement() {
        let (p, s) = paper();
        let ms = cost(&p, &s, MatmulVariant::AllOpts).total_ms(&p);
        // Paper: 12.0 ms.
        assert!((3.0..25.0).contains(&ms), "all-opts modeled at {ms} ms");
    }

    #[test]
    fn overall_speedup_matches_headline_factor() {
        let (p, s) = paper();
        let base = cost(&p, &s, MatmulVariant::Baseline).total();
        let all = cost(&p, &s, MatmulVariant::AllOpts).total();
        let speedup = base / all;
        // Paper: 18.9×.
        assert!((8.0..60.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn baseline_is_bottlenecked_by_result_writeback() {
        let (p, s) = paper();
        let c = cost(&p, &s, MatmulVariant::Baseline);
        assert!(c.t_c > c.t_a && c.t_c > c.t_b && c.t_c > c.t_mac);
    }

    #[test]
    fn opt1_kills_the_pio_store_but_inflates_rhs() {
        let (p, s) = paper();
        let base = cost(&p, &s, MatmulVariant::Baseline);
        let o1 = cost(&p, &s, MatmulVariant::Opt1);
        assert!(o1.t_c < base.t_c / 10.0);
        // RHS loading gets worse due to duplication (§5.1).
        assert!(o1.t_b > base.t_b);
        // ... but overall opt1 is the big standalone win.
        assert!(o1.total() < base.total() / 3.0);
    }

    #[test]
    fn opt2_and_opt3_standalone_gains_are_modest() {
        let (p, s) = paper();
        let base = cost(&p, &s, MatmulVariant::Baseline).total();
        let o2 = cost(&p, &s, MatmulVariant::Opt2).total();
        let o3 = cost(&p, &s, MatmulVariant::Opt3).total();
        // Both help, neither changes the order of magnitude: the PIO
        // write-back still dominates.
        assert!(o2 < base && o3 < base);
        assert!(o2 > base / 3.0 && o3 > base / 3.0);
    }

    #[test]
    fn all_opts_beats_every_standalone_variant() {
        let (p, s) = paper();
        let all = cost(&p, &s, MatmulVariant::AllOpts).total();
        for v in [
            MatmulVariant::Opt1,
            MatmulVariant::Opt2,
            MatmulVariant::Opt3,
        ] {
            assert!(all < cost(&p, &s, v).total(), "{} beat all-opts", v.label());
        }
    }

    #[test]
    fn oi_improves_with_all_opts() {
        let (p, s) = paper();
        let base = cost(&p, &s, MatmulVariant::Baseline);
        let all = cost(&p, &s, MatmulVariant::AllOpts);
        assert!(all.oi > base.oi);
    }

    #[test]
    fn gops_rise_toward_the_roofline() {
        let (p, s) = paper();
        let base = cost(&p, &s, MatmulVariant::Baseline).achieved_gops(&s, &p);
        let all = cost(&p, &s, MatmulVariant::AllOpts).achieved_gops(&s, &p);
        assert!(all > 5.0 * base);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = MatmulVariant::ALL.iter().map(|v| v.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
