//! Phoenix **Linear Regression**: least-squares fit over (x, y) points by
//! accumulating Σx, Σy, Σx², Σy², Σxy.
//!
//! Coordinates are small integers (0..8) so products fit the device's
//! 16-bit lanes; wide totals are obtained by periodically *flushing*
//! per-lane accumulators — a subgroup reduction bounds each partial at
//! 16 bits, the partial vector returns to device DRAM by DMA, and the
//! host folds the partials in 64-bit (Phoenix's map-on-device /
//! reduce-on-host split).
//!
//! Optimization mapping:
//!
//! * **opt1** (reduction mapping): the baseline reduces *every tile*
//!   spatially before accumulating; opt1 accumulates raw lanes with
//!   element-wise adds and reduces only at flush boundaries.
//! * **opt2** (coalesced DMA / packing): the baseline ports the original
//!   interleaved 16-bit layout (4 B/point) and must realign y under x
//!   with an intra-VR shift; opt2 packs a whole point into one byte
//!   (x | y≪4), quadrupling points per tile and eliminating the shift.
//! * **opt3**: no broadcast tables — no effect (as the paper observes,
//!   layout wins for linreg come through packing, i.e. opt2).

use apu_sim::{ApuDevice, TaskReport, Vmr, Vr};
use gvml::prelude::*;
use gvml::shift::ShiftDir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{map_reduce, parallel_tiles, OptConfig};
use crate::Result;

/// Subgroup size used by the on-device reductions.
const SG: usize = 16;
/// Tiles accumulated between flushes (unpacked): per-lane partials stay
/// ≤ 49·41 = 2009, so a 16-lane subgroup sum ≤ 32,144 < i16::MAX.
const FLUSH_UNPACKED: usize = 41;
/// Packed tiles carry two points per lane: flush twice as often.
const FLUSH_PACKED: usize = 20;
/// Number of accumulated statistics.
const NSTATS: usize = 5;

/// Accumulated sums (exact, 64-bit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinRegStats {
    /// Number of points.
    pub n: u64,
    /// Σx.
    pub sx: u64,
    /// Σy.
    pub sy: u64,
    /// Σx².
    pub sxx: u64,
    /// Σy².
    pub syy: u64,
    /// Σxy.
    pub sxy: u64,
}

impl LinRegStats {
    fn merge(mut self, o: LinRegStats) -> LinRegStats {
        self.n += o.n;
        self.sx += o.sx;
        self.sy += o.sy;
        self.sxx += o.sxx;
        self.syy += o.syy;
        self.sxy += o.sxy;
        self
    }

    /// Least-squares slope and intercept.
    pub fn fit(&self) -> (f64, f64) {
        let n = self.n as f64;
        let denom = n * self.sxx as f64 - (self.sx as f64).powi(2);
        if denom == 0.0 {
            return (0.0, 0.0);
        }
        let slope = (n * self.sxy as f64 - self.sx as f64 * self.sy as f64) / denom;
        let intercept = (self.sy as f64 - slope * self.sx as f64) / n;
        (slope, intercept)
    }
}

/// Generates points with a known linear trend plus noise; coordinates in
/// 0..8.
pub fn generate(n_points: usize, seed: u64) -> Vec<(u8, u8)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_points)
        .map(|_| {
            let x: u8 = rng.gen_range(0..8);
            let noise: i16 = rng.gen_range(-1..=1);
            let y = ((x as i16) / 2 + 2 + noise).clamp(0, 7) as u8;
            (x, y)
        })
        .collect()
}

/// Single-threaded CPU reference.
pub fn cpu(points: &[(u8, u8)]) -> LinRegStats {
    let mut s = LinRegStats::default();
    for &(x, y) in points {
        let (x, y) = (x as u64, y as u64);
        s.n += 1;
        s.sx += x;
        s.sy += y;
        s.sxx += x * x;
        s.syy += y * y;
        s.sxy += x * y;
    }
    s
}

/// Multi-threaded CPU implementation.
pub fn cpu_mt(points: &[(u8, u8)], threads: usize) -> LinRegStats {
    map_reduce(points, threads, cpu, LinRegStats::merge)
}

/// Estimated retired CPU instructions for Table 6 (paper: 3.8 G for
/// 512 MB of point data ≈ 7.4 per input byte ≈ 29.7 per point).
pub fn cpu_inst_estimate(n_points: usize) -> u64 {
    (n_points as f64 * 29.7) as u64
}

const VR_DATA: Vr = Vr::new(0);
const VR_SH: Vr = Vr::new(1);
const VR_T: Vr = Vr::new(2);
const VR_T2: Vr = Vr::new(3);
const VR_MASK: Vr = Vr::new(4);
const VR_IDX: Vr = Vr::new(5);
// Accumulators for the five statistics.
const VR_ACC0: u8 = 8;
const M0: Marker = Marker::new(0);

/// Device implementation.
///
/// # Errors
///
/// Fails on device-memory exhaustion or internal kernel errors.
pub fn apu(
    dev: &mut ApuDevice,
    points: &[(u8, u8)],
    opts: OptConfig,
) -> Result<(LinRegStats, TaskReport)> {
    let l = dev.config().vr_len;
    let packed = opts.coalesced_dma;
    let points_per_tile = if packed { 2 * l } else { l / 2 };
    let flush_every = if packed { FLUSH_PACKED } else { FLUSH_UNPACKED };
    let n_tiles = points.len().div_ceil(points_per_tile).max(1);

    // Host → device layout.
    let h_in = if packed {
        let mut bytes: Vec<u8> = points.iter().map(|&(x, y)| x | (y << 4)).collect();
        bytes.resize(n_tiles * points_per_tile, 0);
        let h = dev.alloc(bytes.len())?;
        dev.copy_to_device(h, &bytes)?;
        h
    } else {
        let mut words: Vec<u16> = Vec::with_capacity(points.len() * 2);
        for &(x, y) in points {
            words.push(x as u16);
            words.push(y as u16);
        }
        words.resize(n_tiles * l, 0);
        let h = dev.alloc_u16(words.len())?;
        dev.copy_to_device(h, &words)?;
        h
    };

    // Flush output buffers: per core, per flush, NSTATS vectors.
    let cores = dev.config().cores;
    let tiles_per_core = n_tiles.div_ceil(cores);
    let flushes_per_core = tiles_per_core.div_ceil(flush_every) + 1;
    let h_flush = dev.alloc_u16(cores * flushes_per_core * NSTATS * l)?;
    let flush_stride = flushes_per_core * NSTATS * l; // u16 elements per core

    let (flush_counts, report) = parallel_tiles(dev, n_tiles, |ctx, start, end| {
        let core_id = ctx.core().id();
        let mut flushes = 0usize;

        // Per-core constants.
        if packed {
            ctx.core_mut().cpy_imm_16(VR_MASK, 0x000F)?;
        } else {
            ctx.core_mut().create_grp_index_u16(VR_IDX, 2)?;
            ctx.core_mut().cpy_imm_16(VR_T, 0)?;
            ctx.core_mut().eq_16(M0, VR_IDX, VR_T)?; // mark even lanes
        }
        for s in 0..NSTATS {
            ctx.core_mut().cpy_imm_16(Vr::new(VR_ACC0 + s as u8), 0)?;
        }

        let mut since_flush = 0usize;
        for tile in start..end {
            let tile_bytes = 2 * l;
            // ---- load ----
            ctx.dma_l4_to_l2(0, h_in.offset_by(tile * tile_bytes)?, tile_bytes)?;
            ctx.dma_l2_to_l1(Vmr::new(47))?;
            ctx.load(VR_DATA, Vmr::new(47))?;

            // ---- per-tile statistics into VR_T per stat ----
            if packed {
                // two point sets per lane: (x1,y1) low byte, (x2,y2) high
                for set in 0..2 {
                    let (xs, ys) = (VR_SH, VR_T2);
                    {
                        let core = ctx.core_mut();
                        if set == 0 {
                            core.and_16(xs, VR_DATA, VR_MASK)?;
                            core.sr_imm_u16(ys, VR_DATA, 4)?;
                            core.and_16(ys, ys, VR_MASK)?;
                        } else {
                            core.sr_imm_u16(xs, VR_DATA, 8)?;
                            core.and_16(xs, xs, VR_MASK)?;
                            core.sr_imm_u16(ys, VR_DATA, 12)?;
                        }
                    }
                    accumulate_stats(ctx, xs, ys, None, opts)?;
                }
            } else {
                // interleaved: y sits one lane east of x
                ctx.core_mut().cpy_16(VR_SH, VR_DATA)?;
                ctx.core_mut()
                    .shift_elements(VR_SH, 1, ShiftDir::TowardHead)?;
                accumulate_stats(ctx, VR_DATA, VR_SH, Some(M0), opts)?;
            }

            since_flush += 1;
            if since_flush >= flush_every || tile == end - 1 {
                flush(
                    ctx,
                    h_flush,
                    core_id * flush_stride + flushes * NSTATS * l,
                    opts,
                )?;
                flushes += 1;
                since_flush = 0;
            }
        }
        Ok(flushes)
    })?;

    // Host-side reduce: fold the flushed partial vectors.
    let mut stats = LinRegStats {
        n: points.len() as u64,
        ..LinRegStats::default()
    };
    if dev.config().exec_mode.is_functional() {
        for (core_id, &n_flushes) in flush_counts.iter().enumerate() {
            for f in 0..n_flushes {
                for s in 0..NSTATS {
                    let off = (core_id * flush_stride + f * NSTATS * l + s * l) * 2;
                    let mut v = vec![0u16; l];
                    dev.copy_from_device(h_flush.offset_by(off)?.truncated(l * 2)?, &mut v)?;
                    let total: u64 = v.iter().map(|&x| x as u64).sum();
                    match s {
                        0 => stats.sx += total,
                        1 => stats.sy += total,
                        2 => stats.sxx += total,
                        3 => stats.syy += total,
                        _ => stats.sxy += total,
                    }
                }
            }
        }
    }
    dev.free(h_in)?;
    dev.free(h_flush)?;
    Ok((stats, report))
}

/// Adds one point set's contributions into the five accumulators.
/// With `even` set, only even lanes carry points (interleaved layout).
fn accumulate_stats(
    ctx: &mut apu_sim::ApuContext<'_>,
    xs: Vr,
    ys: Vr,
    even: Option<Marker>,
    opts: OptConfig,
) -> Result<()> {
    // terms: x, y, x², y², xy
    for s in 0..NSTATS {
        let acc = Vr::new(VR_ACC0 + s as u8);
        let core = ctx.core_mut();
        match s {
            0 => core.cpy_16(VR_T, xs)?,
            1 => core.cpy_16(VR_T, ys)?,
            2 => core.mul_u16(VR_T, xs, xs)?,
            3 => core.mul_u16(VR_T, ys, ys)?,
            _ => core.mul_u16(VR_T, xs, ys)?,
        }
        if let Some(m) = even {
            // zero out the odd (non-point) lanes
            core.cpy_imm_16(VR_T2, 0)?;
            core.cpy_16_msk(VR_T2, VR_T, m)?;
            core.cpy_16(VR_T, VR_T2)?;
        }
        if !opts.reduction_mapping {
            // baseline: spatially reduce every tile before accumulating
            core.add_subgrp_s16(VR_T, VR_T, SG, SG)?;
        }
        core.add_u16(acc, acc, VR_T)?;
    }
    Ok(())
}

/// Reduces (if still unreduced), stores, and clears the accumulators.
fn flush(
    ctx: &mut apu_sim::ApuContext<'_>,
    h_flush: apu_sim::MemHandle,
    elem_off: usize,
    opts: OptConfig,
) -> Result<()> {
    let l = ctx.core().vr_len();
    for s in 0..NSTATS {
        let acc = Vr::new(VR_ACC0 + s as u8);
        {
            let core = ctx.core_mut();
            if opts.reduction_mapping {
                core.add_subgrp_s16(acc, acc, SG, SG)?;
            }
        }
        ctx.store(Vmr::new(46), acc)?;
        ctx.dma_l1_to_l4(h_flush.offset_by((elem_off + s * l) * 2)?, Vmr::new(46))?;
        ctx.core_mut().cpy_imm_16(acc, 0)?;
    }
    Ok(())
}

/// Analytical-framework twin (used for Table 7).
pub fn model(est: &mut cis_model::LatencyEstimator, n_points: usize, opts: OptConfig) {
    let l = 32 * 1024;
    let packed = opts.coalesced_dma;
    let points_per_tile = if packed { 2 * l } else { l / 2 };
    let flush_every = if packed { FLUSH_PACKED } else { FLUSH_UNPACKED };
    let n_tiles = n_points.div_ceil(points_per_tile).max(1);
    let cores = 4usize.min(n_tiles);
    let tiles_per_core = n_tiles.div_ceil(cores);
    // per-core constants (masks / index patterns / accumulator zeroing)
    est.section("setup");
    if packed {
        est.gvml_cpy_imm_16();
    } else {
        est.gvml_create_grp_index_u16();
        est.gvml_cpy_imm_16();
        est.gvml_eq_16();
    }
    for _ in 0..NSTATS {
        est.gvml_cpy_imm_16();
    }
    for tile in 0..tiles_per_core {
        est.section("load");
        est.record(cis_model::TraceOp::DmaL4L2(2 * l * cores));
        est.direct_dma_l2_to_l1_32k();
        est.gvml_load_16();
        est.section("stats");
        if packed {
            for _ in 0..2 {
                est.record_n(cis_model::TraceOp::Op(apu_sim::VecOp::AShift), 2);
                est.record_n(cis_model::TraceOp::Op(apu_sim::VecOp::And16), 2);
                model_stats(est, false, opts);
            }
        } else {
            est.gvml_cpy_16();
            est.record(cis_model::TraceOp::ShiftE(1));
            model_stats(est, true, opts);
        }
        if (tile + 1) % flush_every == 0 || tile == tiles_per_core - 1 {
            est.section("flush");
            for _ in 0..NSTATS {
                if opts.reduction_mapping {
                    est.gvml_add_subgrp_s16(SG, SG);
                }
                est.gvml_store_16();
                // flush write-back contends for the shared DRAM
                for _ in 0..cores {
                    est.direct_dma_l1_to_l4_32k();
                }
                est.gvml_cpy_imm_16();
            }
        }
    }
}

fn model_stats(est: &mut cis_model::LatencyEstimator, masked: bool, opts: OptConfig) {
    for s in 0..NSTATS {
        if s < 2 {
            est.gvml_cpy_16();
        } else {
            est.gvml_mul_u16();
        }
        if masked {
            est.gvml_cpy_imm_16();
            est.gvml_cpy_16_msk();
            est.gvml_cpy_16();
        }
        if !opts.reduction_mapping {
            est.gvml_add_subgrp_s16(SG, SG);
        }
        est.gvml_add_u16();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::SimConfig;

    fn device() -> ApuDevice {
        ApuDevice::new(SimConfig::default().with_l4_bytes(64 << 20))
    }

    #[test]
    fn cpu_mt_matches_single() {
        let pts = generate(50_000, 1);
        assert_eq!(cpu(&pts), cpu_mt(&pts, 8));
    }

    #[test]
    fn fit_recovers_trend() {
        let pts = generate(100_000, 2);
        let (slope, intercept) = cpu(&pts).fit();
        // y ≈ x/2 + 2 with noise and integer truncation
        assert!((0.2..0.8).contains(&slope), "slope {slope}");
        assert!((1.0..3.0).contains(&intercept), "intercept {intercept}");
    }

    #[test]
    fn apu_baseline_matches_cpu() {
        let pts = generate(40_000, 3);
        let mut dev = device();
        let (s, _) = apu(&mut dev, &pts, OptConfig::none()).unwrap();
        assert_eq!(s, cpu(&pts));
    }

    #[test]
    fn apu_all_opts_matches_cpu() {
        let pts = generate(200_000, 4);
        let mut dev = device();
        let (s, _) = apu(&mut dev, &pts, OptConfig::all()).unwrap();
        assert_eq!(s, cpu(&pts));
    }

    #[test]
    fn apu_variants_match_cpu() {
        let pts = generate(90_000, 5);
        let expected = cpu(&pts);
        let mut dev = device();
        for o in OptConfig::fig13_variants() {
            let (s, _) = apu(&mut dev, &pts, o).unwrap();
            assert_eq!(s, expected, "{}", o.label());
        }
    }

    #[test]
    fn packing_is_the_dominant_optimization() {
        let pts = generate(500_000, 6);
        let mut dev = device();
        let (_, base) = apu(&mut dev, &pts, OptConfig::none()).unwrap();
        let (_, o1) = apu(&mut dev, &pts, OptConfig::only_opt1()).unwrap();
        let (_, o2) = apu(&mut dev, &pts, OptConfig::only_opt2()).unwrap();
        let (_, all) = apu(&mut dev, &pts, OptConfig::all()).unwrap();
        // opt2 (packing) beats opt1 standalone, as the paper reports for
        // linear regression; all opts is fastest.
        assert!(o2.cycles < o1.cycles);
        assert!(o2.cycles.get() * 2 < base.cycles.get());
        assert!(all.cycles <= o2.cycles);
        assert!(o1.cycles <= base.cycles);
    }

    #[test]
    fn flush_boundaries_preserve_exactness() {
        // More tiles than one flush window.
        let n = (2 * 32 * 1024) * (FLUSH_PACKED + 3);
        let pts = generate(n, 7);
        let mut dev = device();
        let (s, _) = apu(&mut dev, &pts, OptConfig::all()).unwrap();
        assert_eq!(s, cpu(&pts));
    }

    #[test]
    fn instruction_estimate_matches_table6_scale() {
        // 512 MB at 4 B/point = 128 M points → ≈ 3.8 G instructions.
        let est = cpu_inst_estimate(128 * 1024 * 1024);
        assert!((3.2e9..4.4e9).contains(&(est as f64)));
    }
}
