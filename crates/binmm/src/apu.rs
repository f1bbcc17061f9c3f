//! Device kernels for binary matmul: baseline inner product and the
//! Fig. 12 optimization variants.
//!
//! All kernels compute `C = A × B` over ±1 matrices with `A (M × K)` and
//! `B` supplied transposed (`N × K`), and validate bit-exactly against
//! [`crate::cpu_matmul`] in functional mode. Device-friendly shape
//! constraints (checked, not assumed):
//!
//! * the packed reduction width `K_w` is a power of two with
//!   `4 ≤ K_w ≤ l`;
//! * for the temporal variants (`opt1`, `all_opts`): `N` divides the VR
//!   length `l` and `M` is a multiple of `⌊l/N⌋`;
//! * the RHS column tiles (baseline) / LHS vectors (`opt2`) / RHS reuse
//!   vectors (`all_opts`) must fit the 48-register L1 file.

use apu_sim::dma::ChunkCopy;
use apu_sim::{ApuContext, ApuDevice, Cycles, Error, MemHandle, TaskReport, Vmr, Vr};
use cis_core::MatmulVariant;
use gvml::prelude::*;

use crate::pack::BinMatrix;
use crate::Result;

const VR_A: Vr = Vr::new(0);
const VR_B: Vr = Vr::new(1);
const VR_T: Vr = Vr::new(2);
const VR_T2: Vr = Vr::new(3);
const VR_ACC: Vr = Vr::new(4);
const VR_IDX: Vr = Vr::new(5);
const VR_STAGE: Vr = Vr::new(6);

/// L1 register used for DMA staging.
const VMR_STAGE: Vmr = Vmr::new(47);
/// L1 register holding the duplicated RHS row (temporal variants).
const VMR_B: Vmr = Vmr::new(46);
/// First L1 register for resident tiles / reuse vectors.
const VMR_POOL: u8 = 40;

/// Per-stage latency split, matching the Fig. 12 legend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Loading the LHS matrix (DMA/PIO/lookup + duplication).
    pub ld_lhs: Cycles,
    /// Loading the RHS matrix.
    pub ld_rhs: Cycles,
    /// On-register compute (XOR/popcount/reductions/accumulation).
    pub vr_ops: Cycles,
    /// Storing results (PIO or DMA).
    pub st: Cycles,
}

impl StageBreakdown {
    /// Sum of all stages.
    pub fn total(&self) -> Cycles {
        self.ld_lhs + self.ld_rhs + self.vr_ops + self.st
    }
}

/// Result of one device matmul run.
#[derive(Debug, Clone)]
pub struct MatmulRun {
    /// The output matrix (`M × N`, row-major). Empty in timing-only mode.
    pub c: Vec<i16>,
    /// Latency and command statistics.
    pub report: TaskReport,
    /// Per-stage latency split.
    pub breakdown: StageBreakdown,
}

/// Cycle stopwatch for attributing interleaved work to stages.
struct Laps {
    last: Cycles,
}

impl Laps {
    fn new(ctx: &ApuContext<'_>) -> Self {
        Laps {
            last: ctx.core().cycles(),
        }
    }

    fn lap(&mut self, ctx: &ApuContext<'_>, bucket: &mut Cycles) {
        let now = ctx.core().cycles();
        *bucket += now - self.last;
        self.last = now;
    }
}

/// A binary matmul problem prepared for the device.
#[derive(Debug, Clone)]
pub struct ApuMatmul {
    a: BinMatrix,
    b_t: BinMatrix,
}

impl ApuMatmul {
    /// Prepares a problem. `b_t` is B transposed (`N × K`), the same
    /// convention as [`crate::cpu_matmul`].
    ///
    /// # Errors
    ///
    /// Fails if the reduction widths differ or `K_w` is not a power of
    /// two ≥ 4.
    pub fn new(a: BinMatrix, b_t: BinMatrix) -> Result<Self> {
        if a.cols_bits() != b_t.cols_bits() {
            return Err(Error::InvalidArg(format!(
                "reduction width mismatch: {} vs {}",
                a.cols_bits(),
                b_t.cols_bits()
            )));
        }
        let kw = a.words_per_row();
        if !kw.is_power_of_two() || kw < 4 {
            return Err(Error::InvalidArg(format!(
                "packed width {kw} must be a power of two >= 4"
            )));
        }
        Ok(ApuMatmul { a, b_t })
    }

    /// Rows of C.
    pub fn m(&self) -> usize {
        self.a.rows()
    }

    /// Columns of C.
    pub fn n(&self) -> usize {
        self.b_t.rows()
    }

    /// Packed reduction width.
    pub fn k_words(&self) -> usize {
        self.a.words_per_row()
    }

    /// Runs one variant on the device.
    ///
    /// # Errors
    ///
    /// Fails on shape constraints (documented at module level) or device
    /// memory exhaustion.
    pub fn run(&self, dev: &mut ApuDevice, variant: MatmulVariant) -> Result<MatmulRun> {
        match variant {
            MatmulVariant::Baseline => self.run_inner_product(dev, InnerLhs::PerRowDma),
            MatmulVariant::Opt1 => self.run_temporal(dev, TemporalLhs::PioBroadcast, false),
            MatmulVariant::Opt2 => self.run_inner_product(dev, InnerLhs::CoalescedReuse),
            MatmulVariant::Opt3 => self.run_inner_product(dev, InnerLhs::PairedRowDma),
            MatmulVariant::AllOpts => self.run_temporal(dev, TemporalLhs::Lookup, true),
        }
    }

    // ---------------- inner-product family (baseline / opt2 / opt3) ----

    fn run_inner_product(&self, dev: &mut ApuDevice, lhs: InnerLhs) -> Result<MatmulRun> {
        let l = dev.config().vr_len;
        let (m, n, kw) = (self.m(), self.n(), self.k_words());
        let kbits = self.a.cols_bits() as u16;
        let cols_per_tile = l / kw;
        let n_tiles = n.div_ceil(cols_per_tile);
        let n_avecs = (m * kw).div_ceil(l);
        if n_tiles > VMR_POOL as usize {
            return Err(Error::InvalidArg(format!(
                "{n_tiles} RHS tiles exceed the {VMR_POOL}-register resident pool"
            )));
        }
        if lhs == InnerLhs::CoalescedReuse && n_avecs > 6 {
            return Err(Error::InvalidArg(format!(
                "LHS reuse needs {n_avecs} resident vectors; at most 6 supported"
            )));
        }
        // Resident tiles start at VMR 0; the opt2 LHS reuse vectors at
        // VMR_POOL.
        let ha = dev.alloc_u16(m * kw)?;
        dev.copy_to_device(ha, self.a.words())?;
        let mut bcols = self.b_t.words().to_vec();
        bcols.resize(n_tiles * l, 0);
        let hb = dev.alloc_u16(bcols.len())?;
        dev.copy_to_device(hb, &bcols)?;
        let hc = dev.alloc_u16(m * n)?;

        let mut breakdown = StageBreakdown::default();
        let report = dev.run_task(|ctx| {
            let mut laps = Laps::new(ctx);
            // LD RHS: all column tiles resident in L1.
            for t in 0..n_tiles {
                ctx.dma_l4_to_l1(Vmr::new(t as u8), hb.offset_by(t * l * 2)?)?;
            }
            laps.lap(ctx, &mut breakdown.ld_rhs);

            // Opt2: the whole LHS staged by a few coalesced full-vector
            // loads into the reuse pool.
            if lhs == InnerLhs::CoalescedReuse {
                for v in 0..n_avecs {
                    let take = ((m * kw) - v * l).min(l);
                    // Stage through L2 so partial final vectors work.
                    ctx.dma_l4_to_l2(0, ha.offset_by(v * l * 2)?, take * 2)?;
                    ctx.dma_l2_to_l1(Vmr::new(VMR_POOL + v as u8))?;
                }
                laps.lap(ctx, &mut breakdown.ld_lhs);
            }

            // Incremental staging state for the reuse path: rows are
            // visited in order, so each one is a cheap kw-element shift
            // away from the last.
            let mut stage_vec: Option<usize> = None;
            let mut stage_off = 0usize;
            let mut i = 0usize;
            while i < m {
                // How many rows this staging step covers.
                let rows_here = match lhs {
                    InnerLhs::PairedRowDma => 2.min(m - i),
                    _ => 1,
                };
                // ---- LD LHS ----
                match lhs {
                    InnerLhs::PerRowDma => {
                        ctx.dma_l4_to_l2(0, ha.offset_by(i * kw * 2)?, kw * 2)?;
                        ctx.dma_l2_to_l1(VMR_STAGE)?;
                    }
                    InnerLhs::PairedRowDma => {
                        let chunks: Vec<ChunkCopy> = (0..rows_here)
                            .map(|r| ChunkCopy::new(r * kw * 2, r * kw * 2, kw * 2))
                            .collect();
                        ctx.dma_l4_to_l2_chunks(ha.offset_by(i * kw * 2)?, &chunks)?;
                        ctx.dma_l2_to_l1(VMR_STAGE)?;
                    }
                    InnerLhs::CoalescedReuse => {}
                }
                laps.lap(ctx, &mut breakdown.ld_lhs);

                for r in 0..rows_here {
                    let row = i + r;
                    // Duplicate the row across the VR.
                    match lhs {
                        InnerLhs::PerRowDma | InnerLhs::PairedRowDma => {
                            ctx.load(VR_STAGE, VMR_STAGE)?;
                            if r > 0 {
                                ctx.core_mut().shift_elements(
                                    VR_STAGE,
                                    r * kw,
                                    gvml::shift::ShiftDir::TowardHead,
                                )?;
                            }
                        }
                        InnerLhs::CoalescedReuse => {
                            let v = (row * kw) / l;
                            let off = (row * kw) % l;
                            if stage_vec != Some(v) {
                                ctx.load(VR_STAGE, Vmr::new(VMR_POOL + v as u8))?;
                                stage_vec = Some(v);
                                stage_off = 0;
                            }
                            if off < stage_off {
                                // out-of-order row (not reached in-order
                                // traversal, kept for correctness)
                                ctx.load(VR_STAGE, Vmr::new(VMR_POOL + v as u8))?;
                                stage_off = 0;
                            }
                            if off > stage_off {
                                ctx.core_mut().shift_elements(
                                    VR_STAGE,
                                    off - stage_off,
                                    gvml::shift::ShiftDir::TowardHead,
                                )?;
                                stage_off = off;
                            }
                        }
                    }
                    ctx.core_mut().cpy_subgrp_16(VR_A, VR_STAGE, kw, l)?;
                    laps.lap(ctx, &mut breakdown.ld_lhs);

                    for t in 0..n_tiles {
                        let cols_here = (n - t * cols_per_tile).min(cols_per_tile);
                        // ---- VR ops ----
                        ctx.load(VR_B, Vmr::new(t as u8))?;
                        {
                            let core = ctx.core_mut();
                            core.xor_16(VR_T, VR_A, VR_B)?;
                            core.popcnt_16(VR_T, VR_T)?;
                            core.add_subgrp_s16(VR_T, VR_T, kw, kw)?;
                            core.sl_imm_16(VR_T, VR_T, 1)?;
                            core.cpy_imm_16(VR_T2, kbits)?;
                            core.sub_s16(VR_T, VR_T2, VR_T)?;
                        }
                        laps.lap(ctx, &mut breakdown.vr_ops);

                        // ---- ST: scattered results leave via PIO ----
                        let pairs: Vec<(usize, usize)> = (0..cols_here)
                            .map(|c| (row * n + t * cols_per_tile + c, c * kw))
                            .collect();
                        ctx.pio_store(hc, VR_T, &pairs)?;
                        laps.lap(ctx, &mut breakdown.st);
                    }
                }
                i += rows_here;
            }
            Ok(())
        })?;

        let c = self.read_back(dev, hc, m * n)?;
        for h in [ha, hb, hc] {
            dev.free(h)?;
        }
        Ok(MatmulRun {
            c,
            report,
            breakdown,
        })
    }

    // ---------------- temporal family (opt1 / all_opts) ----------------

    fn run_temporal(
        &self,
        dev: &mut ApuDevice,
        lhs: TemporalLhs,
        coalesce_rhs: bool,
    ) -> Result<MatmulRun> {
        let l = dev.config().vr_len;
        let (m, n, kw) = (self.m(), self.n(), self.k_words());
        let kbits = self.a.cols_bits() as u16;
        if n == 0 || !l.is_multiple_of(n) {
            return Err(Error::InvalidArg(format!(
                "temporal mapping requires N ({n}) to divide the VR length ({l})"
            )));
        }
        let dup = l / n;
        if m % dup != 0 {
            return Err(Error::InvalidArg(format!(
                "temporal mapping requires M ({m}) to be a multiple of l/N ({dup})"
            )));
        }
        let passes = m / dup;
        if passes > 44 {
            return Err(Error::InvalidArg(format!(
                "{passes} accumulator passes exceed the L1 register budget"
            )));
        }
        // With coalescing, B streams through one reuse register: vector v
        // is loaded once, when the k cursor first enters it (⌈K·N/l⌉
        // loads total, as in Eq. 12).
        let n_bvecs = (kw * n).div_ceil(l);

        // Host-side layout prep.
        let ha = dev.alloc_u16(m * kw)?;
        dev.copy_to_device(ha, self.a.words())?;
        // B in row-of-words layout: (kw × n).
        let mut brows = vec![0u16; (kw * n).max(n_bvecs * l)];
        for j in 0..n {
            for k in 0..kw {
                brows[k * n + j] = self.b_t.row(j)[k];
            }
        }
        brows.resize(n_bvecs.max(1) * l, 0);
        let hb = dev.alloc_u16(brows.len())?;
        dev.copy_to_device(hb, &brows)?;
        // A transposed for the lookup path.
        let hat = if lhs == TemporalLhs::Lookup {
            let at = self.a.transposed_words();
            let h = dev.alloc_u16(at.len())?;
            dev.copy_to_device(h, &at)?;
            Some(h)
        } else {
            None
        };
        let hc = dev.alloc_u16(passes * l)?;

        let mut breakdown = StageBreakdown::default();
        let l3_bytes = dev.config().l3_bytes;
        let report = dev.run_task(|ctx| {
            let mut laps = Laps::new(ctx);

            // One-time staging.
            if let Some(hat) = hat {
                let bytes = m * kw * 2;
                if bytes > l3_bytes {
                    return Err(Error::InvalidArg(format!(
                        "transposed LHS ({bytes} B) exceeds the {l3_bytes} B L3 cache"
                    )));
                }
                ctx.dma_l4_to_l3(0, hat, bytes)?;
                ctx.core_mut().create_grp_num_u16(VR_IDX, n)?;
            }
            laps.lap(ctx, &mut breakdown.ld_lhs);
            let mut b_vec_loaded: Option<usize> = None;
            let mut b_stage_off = 0usize;
            laps.lap(ctx, &mut breakdown.ld_rhs);

            // Zero the accumulators.
            ctx.core_mut().cpy_imm_16(VR_ACC, 0)?;
            for p in 0..passes {
                ctx.store(Vmr::new(p as u8), VR_ACC)?;
            }
            laps.lap(ctx, &mut breakdown.vr_ops);

            for k in 0..kw {
                // ---- LD RHS: row k duplicated across the VR ----
                if coalesce_rhs {
                    let v = (k * n) / l;
                    let off = (k * n) % l;
                    if b_vec_loaded != Some(v) || off < b_stage_off {
                        ctx.dma_l4_to_l1(Vmr::new(VMR_POOL), hb.offset_by(v * l * 2)?)?;
                        ctx.load(VR_STAGE, Vmr::new(VMR_POOL))?;
                        b_vec_loaded = Some(v);
                        b_stage_off = 0;
                    }
                    // consecutive k: one cheap incremental n-element shift
                    if off > b_stage_off {
                        ctx.core_mut().shift_elements(
                            VR_STAGE,
                            off - b_stage_off,
                            gvml::shift::ShiftDir::TowardHead,
                        )?;
                        b_stage_off = off;
                    }
                    ctx.core_mut().cpy_subgrp_16(VR_B, VR_STAGE, n, l)?;
                } else {
                    // One duplicating chunked DMA transaction per k.
                    let chunks: Vec<ChunkCopy> = (0..dup)
                        .map(|r| ChunkCopy::new(0, r * n * 2, n * 2))
                        .collect();
                    ctx.dma_l4_to_l2_chunks(hb.offset_by(k * n * 2)?, &chunks)?;
                    ctx.dma_l2_to_l1(VMR_B)?;
                    ctx.load(VR_B, VMR_B)?;
                }
                laps.lap(ctx, &mut breakdown.ld_rhs);

                for p in 0..passes {
                    ctx.load(VR_ACC, Vmr::new(p as u8))?;
                    laps.lap(ctx, &mut breakdown.vr_ops);

                    // ---- LD LHS: broadcast the pass's scalars ----
                    match lhs {
                        TemporalLhs::PioBroadcast => {
                            for r in 0..dup {
                                let row = p * dup + r;
                                broadcast_span(ctx, VR_A, ha, row * kw + k, r * n, n)?;
                            }
                        }
                        TemporalLhs::Lookup => {
                            let off = (k * m + p * dup) * 2;
                            ctx.lookup(VR_A, VR_IDX, off, dup)?;
                        }
                    }
                    laps.lap(ctx, &mut breakdown.ld_lhs);

                    // ---- VR ops: MAC ----
                    {
                        let core = ctx.core_mut();
                        core.xor_16(VR_T, VR_A, VR_B)?;
                        core.popcnt_16(VR_T, VR_T)?;
                        core.add_s16(VR_ACC, VR_ACC, VR_T)?;
                    }
                    ctx.store(Vmr::new(p as u8), VR_ACC)?;
                    laps.lap(ctx, &mut breakdown.vr_ops);
                }
            }

            // Finalize and store contiguously by DMA.
            for p in 0..passes {
                ctx.load(VR_ACC, Vmr::new(p as u8))?;
                {
                    let core = ctx.core_mut();
                    core.sl_imm_16(VR_ACC, VR_ACC, 1)?;
                    core.cpy_imm_16(VR_T2, kbits)?;
                    core.sub_s16(VR_ACC, VR_T2, VR_ACC)?;
                }
                ctx.store(Vmr::new(p as u8), VR_ACC)?;
                laps.lap(ctx, &mut breakdown.vr_ops);
                ctx.dma_l1_to_l4(hc.offset_by(p * l * 2)?, Vmr::new(p as u8))?;
                laps.lap(ctx, &mut breakdown.st);
            }
            Ok(())
        })?;

        let c = self.read_back(dev, hc, m * n)?;
        dev.free(ha)?;
        dev.free(hb)?;
        dev.free(hc)?;
        if let Some(h) = hat {
            dev.free(h)?;
        }
        Ok(MatmulRun {
            c,
            report,
            breakdown,
        })
    }

    fn read_back(&self, dev: &ApuDevice, hc: MemHandle, len: usize) -> Result<Vec<i16>> {
        if !dev.config().exec_mode.is_functional() {
            return Ok(Vec::new());
        }
        let mut raw = vec![0u16; len];
        dev.copy_from_device(hc.truncated(len * 2)?, &mut raw)?;
        Ok(raw.into_iter().map(|v| v as i16).collect())
    }
}

/// LHS staging strategy for the inner-product family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerLhs {
    /// One DMA transaction per row (baseline).
    PerRowDma,
    /// All rows pre-staged with coalesced full-vector loads (opt2).
    CoalescedReuse,
    /// Broadcast-friendly layout: two rows share one transaction (opt3).
    PairedRowDma,
}

/// LHS scalar-broadcast strategy for the temporal family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TemporalLhs {
    /// CP fetches each scalar over PIO and issues a masked immediate
    /// copy (opt1 standalone).
    PioBroadcast,
    /// Indexed lookup from the L3-resident transposed LHS with a
    /// broadcast-friendly window (all-opts).
    Lookup,
}

/// Broadcasts one LHS scalar to a span of the VR: a PIO fetch by the
/// control processor followed by a masked immediate copy.
fn broadcast_span(
    ctx: &mut ApuContext<'_>,
    vr: Vr,
    src: MemHandle,
    elem_idx: usize,
    start: usize,
    len: usize,
) -> Result<()> {
    let t = ctx.timing();
    let cost = t.pio_ld(1);
    ctx.core_mut()
        .charge_cycles(apu_sim::core::CycleClass::Pio, cost);
    ctx.core_mut().charge(apu_sim::VecOp::CpyImm);
    if ctx.core().is_functional() {
        let mut b = [0u8; 2];
        ctx.l4()
            .read(src.offset_by(elem_idx * 2)?.truncated(2)?, &mut b)?;
        let val = u16::from_le_bytes(b);
        let reg = ctx.core_mut().vr_mut(vr)?;
        reg[start..start + len].fill(val);
    } else {
        ctx.core().vr(vr)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::{ExecMode, SimConfig};
    use cis_core::MatmulVariant;

    fn device() -> ApuDevice {
        ApuDevice::new(SimConfig::default().with_l4_bytes(64 << 20))
    }

    fn problem(m: usize, n: usize, kbits: usize) -> ApuMatmul {
        ApuMatmul::new(
            BinMatrix::random(m, kbits, 42),
            BinMatrix::random(n, kbits, 43),
        )
        .unwrap()
    }

    fn check_against_cpu(variant: MatmulVariant) {
        let p = problem(32, 2048, 128);
        let expected = crate::cpu_matmul(
            &BinMatrix::random(32, 128, 42),
            &BinMatrix::random(2048, 128, 43),
        );
        let mut dev = device();
        let run = p.run(&mut dev, variant).unwrap();
        assert_eq!(run.c, expected, "{} mismatch", variant.label());
        assert!(run.report.cycles.get() > 0);
    }

    #[test]
    fn baseline_matches_cpu() {
        check_against_cpu(MatmulVariant::Baseline);
    }

    #[test]
    fn opt1_matches_cpu() {
        check_against_cpu(MatmulVariant::Opt1);
    }

    #[test]
    fn opt2_matches_cpu() {
        check_against_cpu(MatmulVariant::Opt2);
    }

    #[test]
    fn opt3_matches_cpu() {
        check_against_cpu(MatmulVariant::Opt3);
    }

    #[test]
    fn all_opts_matches_cpu() {
        check_against_cpu(MatmulVariant::AllOpts);
    }

    #[test]
    fn all_opts_is_fastest_and_baseline_slowest() {
        let p = problem(64, 2048, 128);
        let mut dev = device();
        let mut cycles = std::collections::BTreeMap::new();
        for v in MatmulVariant::ALL {
            let run = p.run(&mut dev, v).unwrap();
            cycles.insert(v.label(), run.report.cycles.get());
        }
        let base = cycles["baseline"];
        let all = cycles["all opts"];
        for (label, c) in &cycles {
            assert!(*c <= base, "{label} slower than baseline");
            assert!(*c >= all, "{label} faster than all-opts");
        }
        // Communication-aware mapping is the big standalone win.
        assert!(cycles["opt1"] < base / 2);
    }

    #[test]
    fn baseline_breakdown_dominated_by_store() {
        let p = problem(32, 2048, 128);
        let mut dev = device();
        let run = p.run(&mut dev, MatmulVariant::Baseline).unwrap();
        let b = run.breakdown;
        assert!(b.st > b.ld_lhs && b.st > b.ld_rhs && b.st > b.vr_ops);
        // breakdown covers the whole run
        let covered = b.total().get() as f64 / run.report.cycles.get() as f64;
        assert!(covered > 0.99, "breakdown covers {covered}");
    }

    #[test]
    fn all_opts_store_is_dma_not_pio() {
        let p = problem(32, 2048, 128);
        let mut dev = device();
        let base = p.run(&mut dev, MatmulVariant::Baseline).unwrap();
        let all = p.run(&mut dev, MatmulVariant::AllOpts).unwrap();
        assert!(all.breakdown.st.get() * 10 < base.breakdown.st.get());
        // PIO element count collapses.
        assert!(all.report.stats.pio_elems * 10 < base.report.stats.pio_elems);
    }

    #[test]
    fn timing_only_mode_charges_identical_cycles() {
        let p = problem(32, 2048, 128);
        let mut f_dev = device();
        let functional = p.run(&mut f_dev, MatmulVariant::AllOpts).unwrap();
        let mut t_dev = ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(64 << 20)
                .with_exec_mode(ExecMode::TimingOnly),
        );
        let timing = p.run(&mut t_dev, MatmulVariant::AllOpts).unwrap();
        assert_eq!(functional.report.cycles, timing.report.cycles);
        assert!(timing.c.is_empty());
    }

    #[test]
    fn shape_constraints_are_validated() {
        // N not dividing l.
        let p = problem(32, 1000, 128);
        assert!(p.run(&mut device(), MatmulVariant::Opt1).is_err());
        // kw too small.
        assert!(ApuMatmul::new(BinMatrix::random(4, 32, 0), BinMatrix::random(4, 32, 1)).is_err());
        // M not a multiple of l/N.
        let p = problem(33, 2048, 128);
        assert!(p.run(&mut device(), MatmulVariant::AllOpts).is_err());
    }

    #[test]
    fn odd_m_works_for_inner_product_variants() {
        let m = 5;
        let p = problem(m, 2048, 128);
        let expected = crate::cpu_matmul(
            &BinMatrix::random(m, 128, 42),
            &BinMatrix::random(2048, 128, 43),
        );
        let mut dev = device();
        for v in [
            MatmulVariant::Baseline,
            MatmulVariant::Opt2,
            MatmulVariant::Opt3,
        ] {
            let run = p.run(&mut dev, v).unwrap();
            assert_eq!(run.c, expected, "{}", v.label());
        }
    }
}
