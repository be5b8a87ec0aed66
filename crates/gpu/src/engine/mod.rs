//! The functional GEMM engine: a software model of a CUTLASS-style FP16
//! Tensor Core kernel.
//!
//! The engine executes `C = A · B` through the full hierarchy of Figure 2:
//! the grid is split into threadblock tiles, threadblocks into warp tiles,
//! and warp tiles into per-thread fragments following the `m16n8k8` PTX
//! layout (each lane owns 2 rows per 16-row MMA granule and 2 columns per
//! 8-column granule). Each simulated thread walks the K dimension in
//! steps of 2, loading an `Mt × 2` chunk of `At` and a `2 × Nt` chunk of
//! `Bt` exactly as Figure 3 describes, accumulating into FP32 registers.
//!
//! # Module map
//!
//! The engine is decomposed into focused modules:
//!
//! - [`matrix`] — the row-major FP16 [`Matrix`] plus the `*_into`
//!   staging primitives and the FP64 reference GEMM;
//! - [`scheme`] — the [`ThreadLocalScheme`] seam where redundancy
//!   schemes plug into the thread-level inner loop, with the
//!   [`KStep`]/[`ThreadCtx`]/[`ThreadVerdict`] types that cross it;
//! - [`fault_inject`] — the §2.3 fault model ([`FaultPlan`],
//!   [`FaultKind`]) and per-thread [`Detection`] provenance;
//! - [`panels`] — per-run operand staging (decoded + microkernel-packed
//!   panels) and the reusable [`Workspace`] that owns all scratch
//!   (panels, block tile, thread buffers, output, activation staging,
//!   checksum scratch, the block-parallel stripe pool);
//! - [`simd`] — the register-tiled AVX2+FMA microkernel, the scalar
//!   oracle, the canonical accumulation-order contract, and the runtime
//!   dispatch between them ([`GemmPath`], `AIGA_FORCE_SCALAR`);
//! - [`walk`] (private) — block execution: microkernel tile fill, one
//!   per-block fault pass over the tile, then — for hooked schemes
//!   only — the per-lane epilogue (scheme hooks, verdicts) with a
//!   step-ordered fragment replay;
//! - `row_checks` (private) — one-sided ABFT's shared passes: B
//!   checksum chains staged once per GEMM, row sums once per block;
//! - this module — [`GemmEngine`] itself with the two execution entry
//!   points and output assembly.
//!
//! # Execution contract
//!
//! [`GemmEngine::run_multi_into`] is the hot-path entry: the caller
//! supplies a [`Workspace`] and the engine stages, executes, and leaves
//! the [`GemmOutput`] inside it — zero heap allocations once the
//! workspace is warm. Large multi-stripe problems fan out across
//! block-row stripes onto scoped worker threads, each driving private
//! [`Workspace`] stripe scratch; small problems (the serving common
//! case, where concurrency comes from many requests each holding a warm
//! workspace) stay sequential and allocation-free.
//! [`GemmEngine::run`]/[`GemmEngine::run_multi`] are the allocating
//! conveniences (block-parallel via `aiga_util::par_map`) that return an
//! owned output. All paths produce byte-identical results;
//! `crates/core/tests/engine_golden.rs` pins them to the canonical
//! accumulation order's bytes on both [`GemmPath`]s.

pub mod fault_inject;
pub mod matrix;
pub mod panels;
mod row_checks;
pub mod scheme;
pub mod simd;
mod walk;

pub use aiga_dtype::Dtype;
pub use fault_inject::{Detection, FaultKind, FaultPlan};
pub use matrix::{gemm_reference_f64, Im2colView, Matrix, MatrixLayout};
pub use panels::{APanel, CheckScratch, Workspace};
pub use scheme::{
    replay_walk, KStep, LaneWalk, NoScheme, SchemeCounters, ThreadCtx, ThreadLocalScheme,
    ThreadVerdict,
};
pub use simd::GemmPath;

use crate::shape::GemmShape;
use crate::tiling::TilingConfig;
use panels::{BlockScratch, Panels};

/// Minimum covered FLOP count (`2·cov_m·cov_n·k`) before
/// [`GemmEngine::run_multi_into`] fans block-row stripes out across
/// worker threads. Below this, spawn overhead dwarfs the win and the
/// sequential regime keeps its zero-allocation guarantee; 2·256³ (a
/// 256³ GEMM) sits exactly at the threshold.
pub const BLOCK_PAR_MIN_FLOPS: u128 = 32 * 1024 * 1024;

/// Forced stripe-parallel worker count (0 = none); see
/// [`force_block_workers`].
static FORCE_WORKERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Process-global test override of [`GemmEngine::run_multi_into`]'s
/// stripe-parallel worker count (`None` restores normal selection), so
/// the block-parallel arm can be exercised on single-core runners, where
/// `effective_workers` would otherwise always serialize. Only consulted
/// when a problem already qualifies for the parallel regime, whose
/// results are byte-identical to the sequential regime's — so a forced
/// count never changes what a concurrent run computes.
pub fn force_block_workers(workers: Option<usize>) {
    FORCE_WORKERS.store(workers.unwrap_or(0), std::sync::atomic::Ordering::Relaxed);
}

/// Aggregated execution statistics of one engine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// Simulated threads executed.
    pub threads: u64,
    /// K-steps per thread.
    pub k_steps: u64,
    /// Baseline MMA participations (Table 1: `Mt·Nt/2` per thread-step).
    pub baseline_mmas: u64,
    /// Scheme-reported extras, summed over threads.
    pub scheme: SchemeCounters,
}

/// Output of one simulated GEMM kernel.
#[derive(Clone, Debug, Default)]
pub struct GemmOutput {
    /// Row-major FP32 pre-activation output, `m × n` (unpadded).
    pub c: Vec<f32>,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Threads that flagged a fault.
    pub detections: Vec<Detection>,
    /// Execution statistics.
    pub counters: EngineCounters,
}

impl GemmOutput {
    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.c[r * self.n + c]
    }

    /// True if any thread flagged a fault.
    pub fn fault_detected(&self) -> bool {
        !self.detections.is_empty()
    }

    /// Re-arms this output for a fresh `m × n` run, reusing its buffers.
    fn reset(&mut self, m: usize, n: usize) {
        self.m = m;
        self.n = n;
        self.c.clear();
        self.c.resize(m * n, 0.0);
        self.detections.clear();
        self.counters = EngineCounters::default();
    }
}

/// The functional GEMM engine for one problem shape and tiling.
#[derive(Clone, Debug)]
pub struct GemmEngine {
    shape: GemmShape,
    tiling: TilingConfig,
}

impl GemmEngine {
    /// Creates an engine with an explicit tiling.
    pub fn new(shape: GemmShape, tiling: TilingConfig) -> Self {
        tiling.validate();
        GemmEngine {
            shape: shape.padded_to_mma(),
            tiling,
        }
    }

    /// Creates an engine with the default tiling for the shape on a T4.
    pub fn with_default_tiling(shape: GemmShape) -> Self {
        let tiling = TilingConfig::select(shape, &crate::device::DeviceSpec::t4());
        Self::new(shape, tiling)
    }

    /// The padded shape this engine executes.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The tiling in use.
    pub fn tiling(&self) -> TilingConfig {
        self.tiling
    }

    /// Capability probe of one scheme instance: whether the scheme
    /// consumes K-steps (and so runs the lane loop), whether to stage
    /// the raw FP16 panels, and the one-sided B checksums. Schemes that
    /// never consume K-step fragments (the serving common case) skip
    /// all three; fragment consumers that only read the decoded views
    /// skip the raw staging too.
    fn probe_staging<S, F>(&self, make_scheme: &F) -> (bool, bool, Option<&TilingConfig>)
    where
        S: ThreadLocalScheme,
        F: Fn() -> S,
    {
        let probe = make_scheme();
        let hooked = probe.needs_k_steps();
        let chains = (hooked && probe.uses_row_checksums()).then_some(&self.tiling);
        (hooked, hooked && probe.uses_raw_fragments(), chains)
    }

    /// Covered (grid-padded) output extent and the padded K.
    fn coverage(&self) -> (u64, u64, usize, usize, usize) {
        let (gm, gn) = self.tiling.grid(self.shape);
        let cov_m = (gm * self.tiling.block_m) as usize;
        let cov_n = (gn * self.tiling.block_n) as usize;
        (gm, gn, cov_m, cov_n, self.shape.k as usize)
    }

    /// Runs the kernel: multiplies `a` (`m × k`) by `b` (`k × n`),
    /// executing `make_scheme()` inside every simulated thread and
    /// applying `fault` if given. Returns the unpadded `m × n` output.
    pub fn run<S, F>(
        &self,
        a: &Matrix,
        b: &Matrix,
        make_scheme: F,
        fault: Option<FaultPlan>,
    ) -> GemmOutput
    where
        S: ThreadLocalScheme,
        F: Fn() -> S + Sync,
    {
        let faults: Vec<FaultPlan> = fault.into_iter().collect();
        self.run_multi(a, b, make_scheme, &faults)
    }

    /// Like [`Self::run`] but injecting any number of simultaneous faults
    /// — used to exercise the multi-checksum extension of §2.4 (single-
    /// checksum ABFT only guarantees detection of one fault).
    ///
    /// This is the allocating convenience: it stages fresh panels and
    /// executes blocks in parallel. The serving hot path uses
    /// [`Self::run_multi_into`] instead.
    pub fn run_multi<S, F>(
        &self,
        a: &Matrix,
        b: &Matrix,
        make_scheme: F,
        faults: &[FaultPlan],
    ) -> GemmOutput
    where
        S: ThreadLocalScheme,
        F: Fn() -> S + Sync,
    {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        let (out_m, out_n) = (a.rows, b.cols);
        let (gm, gn, cov_m, cov_n, k) = self.coverage();
        let k_steps = self.tiling.k_steps(self.shape);

        let (hooked, needs16, chains) = self.probe_staging(&make_scheme);
        let path = simd::active_path();
        let mut panels = Panels::default();
        panels.stage(a, b, needs16, path.is_simd(), chains, cov_m, cov_n, k);

        let blocks: Vec<(u64, u64)> = (0..gm)
            .flat_map(|br| (0..gn).map(move |bc| (br, bc)))
            .collect();

        let results = aiga_util::par_map(&blocks, |&(br, bc)| {
            let mut scratch = BlockScratch::default();
            scratch.prepare(&self.tiling);
            let mut detections = Vec::new();
            let mut counters = EngineCounters::default();
            walk::run_block(
                &self.tiling,
                k_steps,
                br,
                bc,
                path,
                &panels,
                hooked,
                &make_scheme,
                faults,
                &mut scratch,
                &mut detections,
                &mut counters,
            );
            (br, bc, scratch.tile, detections, counters)
        });

        let mut out = GemmOutput::default();
        out.reset(out_m, out_n);
        for (br, bc, tile, detections, counters) in results {
            scatter_tile(&tile, &self.tiling, br, bc, 0, out_m, out_n, &mut out.c);
            out.detections.extend(detections);
            out.counters.threads += counters.threads;
            out.counters.baseline_mmas += counters.baseline_mmas;
            out.counters.scheme.merge(counters.scheme);
            out.counters.k_steps = counters.k_steps;
        }
        out
    }

    /// The workspace-threaded execution entry: runs the kernel entirely
    /// inside `ws`, leaving the result in [`Workspace::output`] (also
    /// returned by reference). After one warm-up run at a given shape,
    /// subsequent runs perform **zero heap allocations** — panels,
    /// block scratch, and the output buffer are all resized in place.
    ///
    /// Small problems execute their blocks sequentially on the calling
    /// thread: the intended serving concurrency regime is many
    /// concurrent requests each holding a warm workspace (the `Session`
    /// checkout pool), not intra-GEMM fan-out per call, and the
    /// sequential regime is the one the allocation tests pin at zero.
    /// Problems spanning several block-row stripes with at least
    /// [`BLOCK_PAR_MIN_FLOPS`] of work fan the stripes out across scoped
    /// worker threads, each executing from private stripe scratch in
    /// `ws` (output rows are disjoint per stripe, so workers share only
    /// the read-only panels); the stripe pool ratchets like every other
    /// workspace buffer, though thread spawning itself is not
    /// allocation-free. Results are byte-identical to
    /// [`Self::run_multi`] in either regime, detections in the same
    /// block-major order.
    pub fn run_multi_into<'w, S, F>(
        &self,
        a: &Matrix,
        b: &Matrix,
        make_scheme: F,
        faults: &[FaultPlan],
        ws: &'w mut Workspace,
    ) -> &'w GemmOutput
    where
        S: ThreadLocalScheme,
        F: Fn() -> S + Sync,
    {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        let (out_m, out_n) = (a.rows, b.cols);
        let (gm, gn, cov_m, cov_n, k) = self.coverage();
        let k_steps = self.tiling.k_steps(self.shape);

        let (hooked, needs16, chains) = self.probe_staging(&make_scheme);
        let path = simd::active_path();
        ws.panels
            .stage(a, b, needs16, path.is_simd(), chains, cov_m, cov_n, k);
        ws.out.reset(out_m, out_n);

        let stripes = gm as usize;
        let flops = 2 * cov_m as u128 * cov_n as u128 * k as u128;
        let workers = if stripes >= 2 && flops >= BLOCK_PAR_MIN_FLOPS {
            aiga_util::effective_workers(stripes)
        } else {
            1
        };
        let workers = match FORCE_WORKERS.load(std::sync::atomic::Ordering::Relaxed) {
            0 => workers,
            f if stripes >= 2 && flops >= BLOCK_PAR_MIN_FLOPS => f.min(stripes),
            _ => workers,
        };

        if workers <= 1 {
            ws.block.prepare(&self.tiling);
            for br in 0..gm {
                for bc in 0..gn {
                    walk::run_block(
                        &self.tiling,
                        k_steps,
                        br,
                        bc,
                        path,
                        &ws.panels,
                        hooked,
                        &make_scheme,
                        faults,
                        &mut ws.block,
                        &mut ws.out.detections,
                        &mut ws.out.counters,
                    );
                    scatter_tile(
                        &ws.block.tile,
                        &self.tiling,
                        br,
                        bc,
                        0,
                        out_m,
                        out_n,
                        &mut ws.out.c,
                    );
                }
            }
            return &ws.out;
        }

        // Block-parallel regime: contiguous block-row stripe ranges per
        // worker. Stripe s owns output rows [s·block_m, (s+1)·block_m),
        // so each worker scatters into a disjoint row slice of the
        // output carved off with split_at_mut.
        ws.ensure_stripe_pool(workers, &self.tiling);
        let bm = self.tiling.block_m as usize;
        let per = stripes.div_ceil(workers);
        let tiling = &self.tiling;
        let panels = &ws.panels;
        std::thread::scope(|scope| {
            let mut rest: &mut [f32] = &mut ws.out.c;
            let mut row_base = 0usize;
            for (w, scr) in ws.stripe_pool[..workers].iter_mut().enumerate() {
                let s0 = w * per;
                let s1 = ((w + 1) * per).min(stripes);
                if s0 >= s1 {
                    break;
                }
                let rows = (s1 * bm).min(out_m) - row_base;
                let (mine, rem) = std::mem::take(&mut rest).split_at_mut(rows * out_n);
                rest = rem;
                let base = row_base;
                row_base += rows;
                let make_scheme = &make_scheme;
                scope.spawn(move || {
                    // Workers obey the no-nested-fan-out discipline of
                    // `par_map` (a scheme or campaign above us may
                    // already be parallel).
                    aiga_util::as_worker(|| {
                        for br in s0 as u64..s1 as u64 {
                            for bc in 0..gn {
                                walk::run_block(
                                    tiling,
                                    k_steps,
                                    br,
                                    bc,
                                    path,
                                    panels,
                                    hooked,
                                    make_scheme,
                                    faults,
                                    &mut scr.block,
                                    &mut scr.detections,
                                    &mut scr.counters,
                                );
                                scatter_tile(
                                    &scr.block.tile,
                                    tiling,
                                    br,
                                    bc,
                                    base,
                                    out_m,
                                    out_n,
                                    mine,
                                );
                            }
                        }
                    });
                });
            }
        });
        // Merge in worker (= stripe) order so detections keep the same
        // block-major order the sequential walk produces.
        for scr in &mut ws.stripe_pool[..workers] {
            ws.out.detections.append(&mut scr.detections);
            ws.out.counters.threads += scr.counters.threads;
            ws.out.counters.baseline_mmas += scr.counters.baseline_mmas;
            ws.out.counters.scheme.merge(scr.counters.scheme);
        }
        ws.out.counters.k_steps = k_steps;
        &ws.out
    }

    /// Recomputes every output cell owned by one simulated lane,
    /// reading the operand panels still staged in `ws` from the most
    /// recent run. This is the targeted-recompute primitive behind
    /// thread-level fault correction: a `Detection` names the
    /// `(block, warp, lane)` that flagged, and the `m16n8k8` fragment
    /// layout determines exactly which `Mt × Nt` cells that lane owns.
    ///
    /// Returns the number of cells rewritten (cells falling in the
    /// cropped-away padding are skipped). Allocation-free.
    pub fn recompute_lane_into(
        &self,
        block: (u64, u64),
        warp: u64,
        lane: usize,
        ws: &mut Workspace,
    ) -> u32 {
        let t = &self.tiling;
        let (br, bc) = block;
        let warps_n = t.block_n / t.warp_n;
        let wr = warp / warps_n;
        let wc = warp % warps_n;
        let group = lane / 4;
        let quad = lane % 4;
        let mut repaired = 0u32;
        for rgran in 0..(t.warp_m / 16) {
            let rbase = (br * t.block_m + wr * t.warp_m + rgran * 16) as usize + group;
            for &r in &[rbase, rbase + 8] {
                for cgran in 0..(t.warp_n / 8) {
                    let cbase = (bc * t.block_n + wc * t.warp_n + cgran * 8) as usize + 2 * quad;
                    for &c in &[cbase, cbase + 1] {
                        if ws.recompute_cell(r, c) {
                            repaired += 1;
                        }
                    }
                }
            }
        }
        repaired
    }
}

/// Copies one block tile into the cropped output buffer. `c` holds
/// output rows starting at `row_base` (the whole output for the
/// sequential path, one worker's disjoint row slice for the
/// block-parallel path).
#[allow(clippy::too_many_arguments)]
fn scatter_tile(
    tile: &[f32],
    tiling: &TilingConfig,
    br: u64,
    bc: u64,
    row_base: usize,
    out_m: usize,
    out_n: usize,
    c: &mut [f32],
) {
    let bm = tiling.block_m as usize;
    let bn = tiling.block_n as usize;
    let row0 = br as usize * bm;
    let col0 = bc as usize * bn;
    debug_assert!(row0 >= row_base, "tile precedes the caller's row slice");
    for lr in 0..bm {
        let gr = row0 + lr;
        if gr >= out_m {
            break;
        }
        let cols = bn.min(out_n.saturating_sub(col0));
        if cols == 0 {
            break;
        }
        let lrow = (gr - row_base) * out_n;
        c[lrow + col0..lrow + col0 + cols].copy_from_slice(&tile[lr * bn..lr * bn + cols]);
    }
}

#[cfg(test)]
mod tests;
