//! The thread-level redundancy-scheme seam ([`ThreadLocalScheme`]) and
//! the per-thread identity/verdict/counter types that cross it.
//!
//! This is where the paper modified CUTLASS's thread-level inner loops:
//! the engine calls the scheme with the very fragments the thread
//! loaded (sharing loads, never adding memory traffic — the §3.5 design
//! principle) and hands it the final accumulators for the thread-local
//! check.

use aiga_dtype::Dtype;
use aiga_fp16::F16;

/// Identity of a simulated thread and the global rows/columns of `C` its
/// fragments own.
#[derive(Clone, Debug, Default)]
pub struct ThreadCtx {
    /// Threadblock coordinates in the grid.
    pub block: (u64, u64),
    /// Warp index within the block.
    pub warp: u64,
    /// Lane within the warp, 0..32.
    pub lane: usize,
    /// Global row indices of the thread's `Mt` accumulator rows.
    pub rows: Vec<usize>,
    /// Global column indices of the thread's `Nt` accumulator columns.
    pub cols: Vec<usize>,
}

/// Result of one thread's local redundancy check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThreadVerdict {
    /// Whether the thread flagged a fault.
    pub fault_detected: bool,
    /// Largest check residual observed.
    pub residual: f64,
    /// Threshold the residual was compared against.
    pub threshold: f64,
}

impl ThreadVerdict {
    /// A clean (no-fault) verdict.
    pub fn clean() -> Self {
        ThreadVerdict {
            fault_detected: false,
            residual: 0.0,
            threshold: 0.0,
        }
    }
}

/// Per-thread cost counters a scheme self-reports, in the units of
/// Table 1 (per-K-step MMAs and checksum operations are accumulated over
/// all steps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeCounters {
    /// Redundant Tensor-Core MMA participations.
    pub extra_mmas: u64,
    /// Checksum-generation ALU operations (HADD2-class).
    pub checksum_ops: u64,
}

impl SchemeCounters {
    pub(crate) fn merge(&mut self, other: SchemeCounters) {
        self.extra_mmas += other.extra_mmas;
        self.checksum_ops += other.checksum_ops;
    }
}

/// The fragments one simulated thread loaded for one K-step, as handed
/// to [`ThreadLocalScheme::on_k_step`].
///
/// `a`/`b` are the raw storage-code fragments (16-bit lanes; see
/// [`crate::engine::Matrix::data`]): `a` is `Mt × 2` row-major (rows
/// ordered as `ctx.rows`), `b` is `2 × Nt` row-major (columns ordered as
/// `ctx.cols`). `a_f32`/`b_f32` are the same fragments pre-decoded to
/// `f32` by the engine — decoding is exact for every storage format, so
/// schemes that only need the numeric values (replication's shadow MMAs,
/// ABFT's redundant accumulations, magnitude tracking) should read these
/// instead of re-decoding the codes the engine already decoded. Schemes
/// that model low-precision checksum *arithmetic* round through
/// [`Dtype::chain_add`] on the decoded views, using `dtype` to pick the
/// chain's hardware precision.
#[derive(Clone, Copy, Debug)]
pub struct KStep<'a> {
    /// Raw `Mt × 2` A-fragment storage codes.
    pub a: &'a [F16],
    /// Raw `2 × Nt` B-fragment storage codes.
    pub b: &'a [F16],
    /// Pre-decoded `a` (same layout, exact values).
    pub a_f32: &'a [f32],
    /// Pre-decoded `b` (same layout, exact values).
    pub b_f32: &'a [f32],
    /// Rows of the thread's accumulator tile.
    pub mt: usize,
    /// Columns of the thread's accumulator tile.
    pub nt: usize,
    /// Storage format of the staged operands.
    pub dtype: Dtype,
}

/// One thread's entire K-walk, handed to
/// [`ThreadLocalScheme::walk_lane`] in a single call: panel-level slices
/// plus the lane's global row/column indices. Row `r`'s walk is
/// `a_f32[r*k..][..k]`; column `c`'s walk is `b_f32_t[c*k..][..k]` (the
/// B panels are stored transposed so a K-walk streams them linearly).
/// The raw storage-code panels mirror the decoded layouts and are empty
/// when the scheme opted out via
/// [`ThreadLocalScheme::uses_raw_fragments`]; the row checksums are
/// empty unless the scheme opted in via
/// [`ThreadLocalScheme::uses_row_checksums`].
#[derive(Clone, Copy, Debug)]
pub struct LaneWalk<'a> {
    /// Decoded A panel, `cov_m × k` row-major.
    pub a_f32: &'a [f32],
    /// Decoded B panel stored transposed, `cov_n × k` row-major.
    pub b_f32_t: &'a [f32],
    /// Raw storage-code A panel (layout of `a_f32`), possibly empty.
    pub a16: &'a [F16],
    /// Raw storage-code B panel (layout of `b_f32_t`), possibly empty.
    pub b16_t: &'a [F16],
    /// Panel K extent — the row stride of every panel slice above.
    pub k: usize,
    /// Global row indices of the lane's `Mt` accumulator rows.
    pub rows: &'a [usize],
    /// Global column indices of the lane's `Nt` accumulator columns.
    pub cols: &'a [usize],
    /// Steps in the walk (each consumes `STEP_K` = 2 elements of K).
    pub k_steps: u64,
    /// Storage format of the staged operands.
    pub dtype: Dtype,
    /// The lane's finished one-sided running checksums, one per owned
    /// row (ordered as `rows`): `Σ_steps a0·w0 + a1·w1` over the K-walk,
    /// where `w0`/`w1` are the lane's per-step B-row checksums (see
    /// [`ThreadLocalScheme::uses_row_checksums`]).
    pub row_abft: &'a [f32],
    /// The matching per-row magnitude bounds,
    /// `Σ_steps |a0|·Σ|b0| + |a1|·Σ|b1|` in f64.
    pub row_magnitude: &'a [f64],
}

/// A redundancy scheme living inside the thread-level inner loop.
///
/// One instance protects one simulated thread; the engine constructs an
/// instance per thread via the factory passed to
/// [`crate::engine::GemmEngine::run`]. Implementations should keep
/// their per-thread state inline (fixed-size arrays bounded by
/// [`crate::tiling::MAX_THREAD_MT`]/[`crate::tiling::MAX_THREAD_NT`])
/// so thread construction never touches the heap — that is what keeps
/// the serving hot path allocation-free under thread-level schemes.
pub trait ThreadLocalScheme: Send {
    /// Capability hook: whether this scheme consumes per-K-step
    /// fragments at all. Epilogue-only schemes (the unprotected
    /// baseline, kernel-level ABFT run via [`NoScheme`]) return `false`,
    /// which lets the engine skip the per-lane epilogue entirely: the
    /// microkernel's tile (with any injected faults applied) goes
    /// straight to the output — the serving common case. When this
    /// returns `false` the engine never constructs a per-thread
    /// instance beyond its one probe: [`Self::begin`],
    /// [`Self::on_k_step`], [`Self::walk_lane`], [`Self::finalize`] and
    /// [`Self::counters`] are not called, so such a scheme can neither
    /// flag a thread nor report extra work. The engine still counts its
    /// threads and baseline MMAs.
    ///
    /// Must be constant across all instances a factory produces: the
    /// engine probes one instance per run and stages the raw FP16
    /// panels (or not) for the whole run based on its answer.
    fn needs_k_steps(&self) -> bool {
        true
    }

    /// Called once before the K-walk with the thread's identity.
    fn begin(&mut self, ctx: &ThreadCtx);

    /// Capability hook: whether the scheme reads the *raw* storage-code
    /// fragments ([`KStep::a`]/[`KStep::b`], or [`LaneWalk::a16`]/
    /// [`LaneWalk::b16_t`]). Schemes that only consume the pre-decoded
    /// f32 views return `false`, letting the engine skip staging the raw
    /// FP16 panels for the run. Must be constant per factory, like
    /// [`Self::needs_k_steps`].
    fn uses_raw_fragments(&self) -> bool {
        true
    }

    /// Capability hook: whether the scheme's whole K-walk is the
    /// one-sided row-checksum product of §5.2.2 — per step, the lane's
    /// two B-row checksums `w0`/`w1` (each a [`Dtype::chain_add`] chain
    /// over the lane's `Nt` columns, plus the f64 sum of their
    /// magnitudes) multiplied against each owned A row:
    ///
    /// ```text
    /// abft[i]      += a0 * w0 + a1 * w1                 (f32, no FMA)
    /// magnitude[i] += |a0| * Σ|b0| + |a1| * Σ|b1|       (f64)
    /// ```
    ///
    /// When this returns `true` the engine computes that product in two
    /// shared passes instead of once per lane — the B chains once per
    /// GEMM at panel staging, the row sums once per block for all of
    /// the block's column groups — and hands each lane its finished
    /// values in [`LaneWalk::row_abft`]/[`LaneWalk::row_magnitude`].
    /// Every operation and its order match the per-step formula above,
    /// so the values are bit-identical to accumulating it step by step.
    /// Must be constant per factory, like [`Self::needs_k_steps`].
    fn uses_row_checksums(&self) -> bool {
        false
    }

    /// Called for every K-step with the fragments the thread just loaded
    /// (raw FP16 and pre-decoded f32 views — see [`KStep`]). Sharing
    /// these loads is what keeps thread-level ABFT free of extra memory
    /// traffic (§5.1). Only called when [`Self::needs_k_steps`] is true.
    fn on_k_step(&mut self, step: &KStep<'_>);

    /// Consumes the lane's whole K-walk in one call. The default
    /// implementation replays it as step-ordered [`KStep`] fragments
    /// through [`Self::on_k_step`], so a scheme normally implements only
    /// the per-step hook. Hot schemes may override this with a fused
    /// walk that streams the panel slices directly; an override MUST
    /// perform arithmetic identical — operation for operation, in the
    /// same order — to `Self::on_k_step` over the replayed fragments, so
    /// verdicts, residuals, and counters stay bit-identical across the
    /// two paths. Only called when [`Self::needs_k_steps`] is true.
    fn walk_lane(&mut self, walk: &LaneWalk<'_>) {
        replay_walk(self, walk);
    }

    /// Called once after the K-walk with the thread's final `Mt × Nt`
    /// FP32 accumulators (row-major); performs the thread-local check.
    /// This is the only place a scheme sees accumulators: the engine
    /// applies every injected fault to the block tile before any lane
    /// runs, so `acc` already carries the run's corruption and every
    /// scheme is handed the same values.
    fn finalize(&mut self, ctx: &ThreadCtx, acc: &[f32], mt: usize, nt: usize) -> ThreadVerdict;

    /// Cost counters accumulated by this thread's instance.
    fn counters(&self) -> SchemeCounters {
        SchemeCounters::default()
    }
}

/// The step-ordered fragment replay behind the default
/// [`ThreadLocalScheme::walk_lane`]: gathers each K-step's `Mt × 2` A
/// and `2 × Nt` B fragments (raw and decoded) from the panel slices and
/// feeds them to [`ThreadLocalScheme::on_k_step`] in step order. Public
/// so a scheme (or a test wrapper) that overrides `walk_lane` can still
/// fall back to the replay. Requires the raw panels to be staged.
pub fn replay_walk<S: ThreadLocalScheme + ?Sized>(scheme: &mut S, walk: &LaneWalk<'_>) {
    use crate::tiling::{MAX_THREAD_MT, MAX_THREAD_NT, STEP_K};
    let (mt, nt, k) = (walk.rows.len(), walk.cols.len(), walk.k);
    assert_eq!(
        walk.a16.len(),
        walk.a_f32.len(),
        "raw FP16 panels must be staged when a scheme consumes raw fragments"
    );
    let mut a_chunk = [F16::ZERO; MAX_THREAD_MT * 2];
    let mut b_chunk = [F16::ZERO; 2 * MAX_THREAD_NT];
    let mut af_chunk = [0.0f32; MAX_THREAD_MT * 2];
    let mut bf_chunk = [0.0f32; 2 * MAX_THREAD_NT];
    for step in 0..walk.k_steps {
        let k0 = (step * STEP_K) as usize;
        for (ri, &r) in walk.rows.iter().enumerate() {
            let base = r * k + k0;
            a_chunk[ri * 2] = walk.a16[base];
            a_chunk[ri * 2 + 1] = walk.a16[base + 1];
            af_chunk[ri * 2] = walk.a_f32[base];
            af_chunk[ri * 2 + 1] = walk.a_f32[base + 1];
        }
        for (ci, &c) in walk.cols.iter().enumerate() {
            let base = c * k + k0;
            b_chunk[ci] = walk.b16_t[base];
            b_chunk[nt + ci] = walk.b16_t[base + 1];
            bf_chunk[ci] = walk.b_f32_t[base];
            bf_chunk[nt + ci] = walk.b_f32_t[base + 1];
        }
        scheme.on_k_step(&KStep {
            a: &a_chunk[..mt * 2],
            b: &b_chunk[..2 * nt],
            a_f32: &af_chunk[..mt * 2],
            b_f32: &bf_chunk[..2 * nt],
            mt,
            nt,
            dtype: walk.dtype,
        });
    }
}

/// Boxed schemes forward to the inner implementation, so heterogeneous
/// scheme kernels (`aiga-core`'s `SchemeKernel` trait objects) can drive
/// the generic engine without monomorphizing per scheme.
impl ThreadLocalScheme for Box<dyn ThreadLocalScheme> {
    fn needs_k_steps(&self) -> bool {
        (**self).needs_k_steps()
    }
    fn uses_raw_fragments(&self) -> bool {
        (**self).uses_raw_fragments()
    }
    fn uses_row_checksums(&self) -> bool {
        (**self).uses_row_checksums()
    }
    fn begin(&mut self, ctx: &ThreadCtx) {
        (**self).begin(ctx)
    }
    fn on_k_step(&mut self, step: &KStep<'_>) {
        (**self).on_k_step(step)
    }
    fn walk_lane(&mut self, walk: &LaneWalk<'_>) {
        (**self).walk_lane(walk)
    }
    fn finalize(&mut self, ctx: &ThreadCtx, acc: &[f32], mt: usize, nt: usize) -> ThreadVerdict {
        (**self).finalize(ctx, acc, mt, nt)
    }
    fn counters(&self) -> SchemeCounters {
        (**self).counters()
    }
}

/// The unprotected baseline: no redundant work, always-clean verdicts.
/// Opts out of K-step delivery, so the engine runs no lane loop for it.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoScheme;

impl ThreadLocalScheme for NoScheme {
    fn needs_k_steps(&self) -> bool {
        false
    }
    fn begin(&mut self, _ctx: &ThreadCtx) {}
    fn on_k_step(&mut self, _step: &KStep<'_>) {}
    fn finalize(
        &mut self,
        _ctx: &ThreadCtx,
        _acc: &[f32],
        _mt: usize,
        _nt: usize,
    ) -> ThreadVerdict {
        ThreadVerdict::clean()
    }
}
