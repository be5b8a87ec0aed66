//! The simulated threadblock execution, in three passes per block:
//!
//! 1. the SIMD/scalar microkernel fills the block tile (see
//!    [`super::simd`]);
//! 2. one fault pass applies every [`FaultPlan`] aimed at the tile —
//!    mid-walk faults recompute their cell with the corruption applied
//!    at the targeted K-step ([`faulted_dot`]; accumulators are
//!    independent, so this reproduces the faulted value bit-exactly),
//!    epilogue faults strike the finished value;
//! 3. only for schemes that consume K-steps, every warp and lane of the
//!    block runs its *epilogue* — scheme hooks and per-thread verdicts —
//!    against the (possibly faulted) tile. Schemes read accumulators
//!    only at `finalize`, after the fault pass, so every hooked scheme
//!    sees the same values. Schemes that opt out
//!    ([`ThreadLocalScheme::needs_k_steps`] is `false`, e.g.
//!    [`super::NoScheme`]) run no lane loop at all: the tile goes
//!    straight to the output.
//!
//! Hooked schemes get the whole K-walk in one
//! [`ThreadLocalScheme::walk_lane`] call, without redoing the
//! accumulator math. The K-walk itself is one of two shapes:
//!
//! - the default step replay ([`super::scheme::replay_walk`]), which
//!   feeds `on_k_step` exactly the fragments the lane loaded;
//! - for schemes whose walk is the one-sided row-checksum product
//!   ([`ThreadLocalScheme::uses_row_checksums`]), shared passes: the B
//!   chains were staged once per GEMM with the panels, and
//!   [`run_block`] runs one row pass per block — every block row
//!   against the block's column groups (see [`super::row_checks`]) —
//!   before the lane loop, so each lane only picks up its `Mt`
//!   finished values. The pass runs wherever the block runs, so it
//!   parallelizes with the microkernel across stripe workers.
//!
//! Everything here writes into caller-owned scratch
//! ([`BlockScratch`][super::panels::BlockScratch]) — the loops allocate
//! nothing, which is what makes the workspace-threaded execution path
//! allocation-free after warmup.

use super::fault_inject::{Detection, FaultPlan};
use super::panels::{BlockScratch, Panels};
use super::row_checks;
use super::scheme::{LaneWalk, ThreadLocalScheme};
use super::simd::{self, GemmPath};
use super::EngineCounters;
use crate::tiling::{TilingConfig, MAX_THREAD_MT, STEP_K};
use aiga_fp16::F16;

/// Executes threadblock `(br, bc)`: the microkernel computes the block
/// tile, the fault pass corrupts it, then — when `hooked` (the run's
/// scheme consumes K-steps) — every warp and lane runs its scheme
/// instance against `scratch.tile`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block<S, F>(
    tiling: &TilingConfig,
    k_steps: u64,
    br: u64,
    bc: u64,
    path: GemmPath,
    panels: &Panels,
    hooked: bool,
    make_scheme: &F,
    faults: &[FaultPlan],
    scratch: &mut BlockScratch,
    detections: &mut Vec<Detection>,
    counters: &mut EngineCounters,
) where
    S: ThreadLocalScheme,
    F: Fn() -> S + Sync,
{
    let t = tiling;
    let warps_m = t.block_m / t.warp_m;
    let warps_n = t.block_n / t.warp_n;
    let threads = warps_m * warps_n * 32;
    let bm = t.block_m as usize;
    let bn = t.block_n as usize;
    let row0 = (br * t.block_m) as usize;
    let col0 = (bc * t.block_n) as usize;
    counters.k_steps = k_steps;
    counters.threads += threads;
    counters.baseline_mmas += threads * k_steps * t.mmas_per_thread_step();

    // The substrate: one microkernel pass computes the whole block tile
    // in the canonical accumulation order (padded rows/columns are zero
    // in the panels, so computing them is harmless and branch-free).
    simd::fill_block_tile(path, panels, row0, col0, bm, bn, &mut scratch.tile);
    if !faults.is_empty() {
        apply_faults(panels, faults, row0, col0, bm, bn, &mut scratch.tile);
    }
    if hooked {
        run_lanes(
            t,
            k_steps,
            br,
            bc,
            path,
            panels,
            make_scheme,
            scratch,
            detections,
            counters,
        );
    }
}

/// The per-block fault pass: every plan whose cell lies in this block's
/// tile corrupts it in place. Per cell, mid-walk faults come first (one
/// [`faulted_dot`] recompute applies all of the cell's mid-walk faults
/// at their K-steps), then epilogue faults in plan order.
fn apply_faults(
    panels: &Panels,
    faults: &[FaultPlan],
    row0: usize,
    col0: usize,
    bm: usize,
    bn: usize,
    tile: &mut [f32],
) {
    let k = panels.k;
    let cell = |f: &FaultPlan| {
        let (r, c) = (f.row.wrapping_sub(row0), f.col.wrapping_sub(col0));
        (r < bm && c < bn).then(|| r * bn + c)
    };
    for f in faults {
        if let Some(i) = cell(f).filter(|_| f.after_step != u64::MAX) {
            tile[i] = faulted_dot(
                &panels.a_f32[f.row * k..][..k],
                &panels.b_f32_t[f.col * k..][..k],
                f.row,
                f.col,
                faults,
            );
        }
    }
    for f in faults {
        if let Some(i) = cell(f).filter(|_| f.after_step == u64::MAX) {
            tile[i] = f.kind.apply(tile[i]);
        }
    }
}

/// The lane loop of a hooked scheme: every warp and lane builds its
/// fragment identity, walks its K-steps, gathers its accumulators from
/// the tile, and finalizes.
#[allow(clippy::too_many_arguments)]
fn run_lanes<S, F>(
    t: &TilingConfig,
    k_steps: u64,
    br: u64,
    bc: u64,
    path: GemmPath,
    panels: &Panels,
    make_scheme: &F,
    scratch: &mut BlockScratch,
    detections: &mut Vec<Detection>,
    counters: &mut EngineCounters,
) where
    S: ThreadLocalScheme,
    F: Fn() -> S + Sync,
{
    let warps_m = t.block_m / t.warp_m;
    let warps_n = t.block_n / t.warp_n;
    let mt = t.thread_mt() as usize;
    let nt = t.thread_nt() as usize;
    let k = panels.k;
    let bn = t.block_n as usize;
    let row0 = (br * t.block_m) as usize;
    let col0 = (bc * t.block_n) as usize;

    // One-sided row checks: every block row against every column group
    // of the block, once, instead of once per lane.
    let groups = panels.chain_groups;
    if groups > 0 {
        row_checks::row_pass(
            path,
            panels,
            row0,
            t.block_m as usize,
            bc as usize,
            &mut scratch.row_abft,
            &mut scratch.row_magnitude,
        );
    }

    scratch.ctx.block = (br, bc);
    // Raw panels are staged only when the scheme consumes them.
    let (a16, b16_t): (&[F16], &[F16]) = if panels.staged16 {
        (&panels.a16.data, &panels.b16_t.data)
    } else {
        (&[], &[])
    };

    for wr in 0..warps_m {
        for wc in 0..warps_n {
            let warp = wr * warps_n + wc;
            for lane in 0..32usize {
                let group = lane / 4;
                let quad = lane % 4;
                // Global rows/cols owned by this lane (PTX m16n8k8
                // fragment layout tiled across the warp tile).
                let ctx = &mut scratch.ctx;
                ctx.warp = warp;
                ctx.lane = lane;
                ctx.rows.clear();
                for gran in 0..(t.warp_m / 16) {
                    let base = (br * t.block_m + wr * t.warp_m + gran * 16) as usize + group;
                    ctx.rows.push(base);
                    ctx.rows.push(base + 8);
                }
                ctx.cols.clear();
                for gran in 0..(t.warp_n / 8) {
                    let base = (bc * t.block_n + wc * t.warp_n + gran * 8) as usize + 2 * quad;
                    ctx.cols.push(base);
                    ctx.cols.push(base + 1);
                }

                let mut scheme = make_scheme();
                scheme.begin(&scratch.ctx);

                // Whole-lane walk: the per-step replay or the row
                // checksums of the shared passes; the accumulator math
                // itself already happened in the microkernel.
                let mut row_abft = [0.0f32; MAX_THREAD_MT];
                let mut row_magnitude = [0.0f64; MAX_THREAD_MT];
                let checked = if groups > 0 {
                    let j = row_checks::lane_group(wc as usize, quad);
                    for (ri, &r) in scratch.ctx.rows.iter().enumerate() {
                        row_abft[ri] = scratch.row_abft[(r - row0) * groups + j];
                        row_magnitude[ri] = scratch.row_magnitude[(r - row0) * groups + j];
                    }
                    mt
                } else {
                    0
                };
                scheme.walk_lane(&LaneWalk {
                    a_f32: &panels.a_f32,
                    b_f32_t: &panels.b_f32_t,
                    a16,
                    b16_t,
                    k,
                    rows: &scratch.ctx.rows,
                    cols: &scratch.ctx.cols,
                    k_steps,
                    dtype: panels.dtype,
                    row_abft: &row_abft[..checked],
                    row_magnitude: &row_magnitude[..checked],
                });

                // Gather the lane's (possibly faulted) accumulators from
                // the tile. Columns come in contiguous pairs (the
                // fragment layout owns 2 adjacent columns per granule),
                // so each pair is one slice copy.
                {
                    let (ctx, acc, tile) = (&scratch.ctx, &mut scratch.acc, &scratch.tile);
                    for (ri, &r) in ctx.rows.iter().enumerate() {
                        let trow = (r - row0) * bn;
                        let acc_row = &mut acc[ri * nt..ri * nt + nt];
                        for (pair, chunk) in
                            ctx.cols.chunks_exact(2).zip(acc_row.chunks_exact_mut(2))
                        {
                            let c = pair[0] - col0;
                            chunk.copy_from_slice(&tile[trow + c..trow + c + 2]);
                        }
                    }
                }

                let verdict = scheme.finalize(&scratch.ctx, &scratch.acc, mt, nt);
                if verdict.fault_detected {
                    detections.push(Detection {
                        block: (br, bc),
                        warp,
                        lane,
                        residual: verdict.residual,
                        threshold: verdict.threshold,
                    });
                }
                counters.scheme.merge(scheme.counters());
            }
        }
    }
}

/// The cold walk for a faulted accumulator `(row, col)`: the canonical
/// FMA chain with every mid-walk fault aimed at that cell applied at
/// its simulated K-step, in plan order (one step consumes [`STEP_K`] =
/// 2 elements, as in Figure 3).
fn faulted_dot(a_row: &[f32], b_col: &[f32], row: usize, col: usize, faults: &[FaultPlan]) -> f32 {
    let mut s = 0.0f32;
    for (step, (aa, bb)) in a_row
        .chunks_exact(STEP_K as usize)
        .zip(b_col.chunks_exact(STEP_K as usize))
        .enumerate()
    {
        s = aa[0].mul_add(bb[0], s);
        s = aa[1].mul_add(bb[1], s);
        for f in faults {
            if f.row == row && f.col == col && f.after_step == step as u64 {
                s = f.kind.apply(s);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::super::scheme::{KStep, ThreadCtx};
    use super::super::{GemmEngine, Matrix, NoScheme, ThreadVerdict};
    use super::*;
    use crate::shape::GemmShape;

    fn engine_for(m: u64, n: u64, k: u64) -> GemmEngine {
        GemmEngine::new(
            GemmShape::new(m, n, k),
            TilingConfig {
                block_m: 32,
                block_n: 32,
                block_k: 16,
                warp_m: 16,
                warp_n: 16,
            },
        )
    }

    #[test]
    fn hooked_schemes_see_matching_raw_and_decoded_fragments() {
        // A probe scheme that verifies the engine hands `on_k_step`
        // consistent views: decoded fragments must equal the raw FP16
        // fragments element for element, every step.
        #[derive(Default)]
        struct Probe {
            steps_seen: u64,
        }
        impl ThreadLocalScheme for Probe {
            fn begin(&mut self, _ctx: &ThreadCtx) {}
            fn on_k_step(&mut self, step: &KStep<'_>) {
                assert_eq!(step.a.len(), step.mt * 2);
                assert_eq!(step.b.len(), 2 * step.nt);
                for (raw, dec) in step.a.iter().zip(step.a_f32) {
                    assert_eq!(raw.to_f32().to_bits(), dec.to_bits());
                }
                for (raw, dec) in step.b.iter().zip(step.b_f32) {
                    assert_eq!(raw.to_f32().to_bits(), dec.to_bits());
                }
                self.steps_seen += 1;
            }
            fn finalize(
                &mut self,
                _ctx: &ThreadCtx,
                _acc: &[f32],
                _mt: usize,
                _nt: usize,
            ) -> ThreadVerdict {
                assert_eq!(self.steps_seen, 32, "one hook call per K-step");
                ThreadVerdict::clean()
            }
        }
        let a = Matrix::random(32, 64, 14);
        let b = Matrix::random(64, 32, 15);
        let eng = engine_for(32, 32, 64);
        let hooked = eng.run(&a, &b, Probe::default, None);
        let fast = eng.run(&a, &b, || NoScheme, None);
        // And the hooked walk must agree with the fast path bit for bit.
        assert_eq!(hooked.c, fast.c);
    }

    #[test]
    fn larger_tiling_produces_identical_results() {
        let (m, n, k) = (128, 128, 32);
        let a = Matrix::random(m, k, 12);
        let b = Matrix::random(k, n, 13);
        let small = engine_for(m as u64, n as u64, k as u64).run(&a, &b, || NoScheme, None);
        let big = GemmEngine::new(
            GemmShape::new(m as u64, n as u64, k as u64),
            TilingConfig {
                block_m: 128,
                block_n: 128,
                block_k: 32,
                warp_m: 64,
                warp_n: 64,
            },
        )
        .run(&a, &b, || NoScheme, None);
        // Same K-walk order per element => bit-identical FP32 outputs.
        assert_eq!(small.c, big.c);
    }
}
