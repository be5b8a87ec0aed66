//! SIMD register-tiled GEMM microkernels and their runtime dispatch.
//!
//! The functional engine models a CUTLASS kernel's *semantics* (the
//! warp/lane fragment layout, the scheme hooks, the fault targeting),
//! but the arithmetic that fills a block tile is plain FP32 math — so it
//! can run on whatever the host does fastest. This module supplies that
//! substrate in the same pack→microkernel→epilogue decomposition real
//! GEMM libraries use:
//!
//! - [`pack_a`]/[`pack_b`] re-lay the decoded f32 panels into
//!   microkernel-friendly strips/panels (done once per run in
//!   `Panels::stage`);
//! - [`fill_block_tile`] computes one threadblock tile through either
//!   the AVX2+FMA register-tiled microkernel or the scalar oracle;
//! - [`active_path`] picks between them at runtime
//!   (`is_x86_feature_detected!`), honouring the `AIGA_FORCE_SCALAR=1`
//!   override so CI can exercise the oracle on any machine.
//!
//! # The canonical accumulation-order contract
//!
//! Every output element is produced by **one** FP32 accumulator updated
//! by a fused multiply-add per K element, in K order:
//!
//! ```text
//! acc = 0;  for kk in 0..k { acc = fma(a[row][kk], b[kk][col], acc) }
//! ```
//!
//! `fma` is the correctly-rounded fused multiply-add (`f32::mul_add` /
//! `vfmadd`), so the sequence is a pure function of the operands — not
//! of how it is compiled. The AVX2 microkernel gets its parallelism from
//! computing [`MICRO_MR`]`×`[`MICRO_NR`] *independent* chains at once,
//! never from splitting one chain, which is why the SIMD path, the
//! scalar oracle, the targeted-recompute repair path, and the faulted
//! cold walk are all byte-identical by construction. The golden tests in
//! `crates/core/tests/engine_golden.rs` pin this contract.

use super::panels::Panels;
use crate::tiling::{MICRO_MR, MICRO_NR, MICRO_PANEL};

// The main microkernel drives two B panels at once.
const _: () = assert!(MICRO_NR == 2 * MICRO_PANEL);
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which GEMM substrate fills block tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// Register-tiled `MICRO_MR × MICRO_NR` microkernel using AVX2+FMA
    /// intrinsics over packed panels.
    Avx2Fma,
    /// The per-element scalar walk over the decoded panels — the
    /// bit-exact oracle (it may still use the hardware scalar FMA
    /// instruction; the contract fixes the *operation sequence*, and
    /// every correctly-rounded FMA computes the same bytes).
    Scalar,
}

impl GemmPath {
    /// True for vectorized paths.
    pub fn is_simd(self) -> bool {
        matches!(self, GemmPath::Avx2Fma)
    }

    /// Stable label for logs and bench records.
    pub fn as_str(self) -> &'static str {
        match self {
            GemmPath::Avx2Fma => "avx2+fma",
            GemmPath::Scalar => "scalar",
        }
    }
}

/// Test/bench override: 0 = none, 1 = Avx2Fma, 2 = Scalar.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<GemmPath> = OnceLock::new();
static ACTIVE: OnceLock<GemmPath> = OnceLock::new();

/// The best path this host supports, ignoring every override.
pub fn detect_path() -> GemmPath {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return GemmPath::Avx2Fma;
            }
        }
        GemmPath::Scalar
    })
}

/// The path the engine dispatches to: a [`force_path`] override if one
/// is set, else `AIGA_FORCE_SCALAR=1` (checked once per process), else
/// [`detect_path`].
pub fn active_path() -> GemmPath {
    match FORCED.load(Ordering::Relaxed) {
        1 => return GemmPath::Avx2Fma,
        2 => return GemmPath::Scalar,
        _ => {}
    }
    *ACTIVE.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("AIGA_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        if forced_scalar {
            GemmPath::Scalar
        } else {
            detect_path()
        }
    })
}

/// Process-global dispatch override for tests and benches (`None`
/// restores normal dispatch). Forcing [`GemmPath::Avx2Fma`] on a host
/// where [`detect_path`] reports scalar is illegal (the microkernel
/// would execute unsupported instructions).
pub fn force_path(path: Option<GemmPath>) {
    let v = match path {
        None => 0,
        Some(GemmPath::Avx2Fma) => {
            assert!(
                detect_path().is_simd(),
                "cannot force the AVX2 path on a host without AVX2+FMA"
            );
            1
        }
        Some(GemmPath::Scalar) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Packs the decoded A panel (`cov_m × k` row-major) into
/// [`MICRO_MR`]-row strips: strip `s` holds rows `s·MR .. s·MR+MR`,
/// element `(r, kk)` at `kk·MR + r` — one K step of a strip is one
/// contiguous broadcast group for the microkernel.
pub(crate) fn pack_a(a_f32: &[f32], cov_m: usize, k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(cov_m % MICRO_MR, 0, "coverage is strip-aligned");
    out.clear();
    out.resize(cov_m * k, 0.0);
    for s in 0..cov_m / MICRO_MR {
        let strip = &mut out[s * MICRO_MR * k..(s + 1) * MICRO_MR * k];
        for r in 0..MICRO_MR {
            let row = &a_f32[(s * MICRO_MR + r) * k..][..k];
            for (kk, &v) in row.iter().enumerate() {
                strip[kk * MICRO_MR + r] = v;
            }
        }
    }
}

/// Packs the decoded transposed B panel (`cov_n × k` row-major, one row
/// per output column) into [`MICRO_PANEL`]-wide K-major panels: panel
/// `p` holds columns `p·P .. p·P+P`, element `(kk, j)` at `kk·P + j` —
/// one K step of a panel is one aligned SIMD vector.
pub(crate) fn pack_b(b_f32_t: &[f32], cov_n: usize, k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(cov_n % MICRO_PANEL, 0, "coverage is panel-aligned");
    out.clear();
    out.resize(cov_n * k, 0.0);
    for p in 0..cov_n / MICRO_PANEL {
        let panel = &mut out[p * MICRO_PANEL * k..(p + 1) * MICRO_PANEL * k];
        for j in 0..MICRO_PANEL {
            let col = &b_f32_t[(p * MICRO_PANEL + j) * k..][..k];
            for (kk, &v) in col.iter().enumerate() {
                panel[kk * MICRO_PANEL + j] = v;
            }
        }
    }
}

/// The canonical dot product: one FMA per K element, in order (see the
/// module docs). This is the scalar oracle's inner loop and the shared
/// primitive behind targeted recompute and faulted-accumulator replay.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if detect_path().is_simd() {
            // SAFETY: FMA support was verified by detect_path.
            return unsafe { dot_fma(a, b) };
        }
    }
    dot_generic(a, b)
}

/// `dot_generic` compiled with the FMA target feature, so `mul_add`
/// lowers to the hardware instruction instead of a libm call. Bytes are
/// identical either way — both are correctly rounded.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
    dot_generic(a, b)
}

#[inline(always)]
fn dot_generic(a: &[f32], b: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        s = x.mul_add(*y, s);
    }
    s
}

/// Fills one `bm × bn` block tile (global origin `(row0, col0)`) from
/// the staged panels, through the dispatched microkernel. The tile
/// covers grid padding too (padded rows/columns are zero in the panels),
/// exactly like the simulated thread loop it replaces.
pub(crate) fn fill_block_tile(
    path: GemmPath,
    panels: &Panels,
    row0: usize,
    col0: usize,
    bm: usize,
    bn: usize,
    tile: &mut [f32],
) {
    debug_assert!(tile.len() >= bm * bn);
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher only selects Avx2Fma when AVX2 and FMA
        // are present (detect_path / force_path enforce it).
        GemmPath::Avx2Fma => unsafe {
            fill_block_tile_avx2(panels, row0, col0, bm, bn, tile);
        },
        #[cfg(not(target_arch = "x86_64"))]
        GemmPath::Avx2Fma => unreachable!("AVX2 path dispatched on non-x86_64"),
        GemmPath::Scalar => {
            let k = panels.k;
            for lr in 0..bm {
                let a_row = &panels.a_f32[(row0 + lr) * k..][..k];
                let trow = &mut tile[lr * bn..(lr + 1) * bn];
                for (lc, out) in trow.iter_mut().enumerate() {
                    *out = dot(a_row, &panels.b_f32_t[(col0 + lc) * k..][..k]);
                }
            }
        }
    }
}

/// The AVX2+FMA register-tiled microkernel: walks the block tile in
/// `MICRO_MR × MICRO_NR` register tiles. Each register tile keeps 8 ymm
/// accumulators live (4 broadcast rows × 2 column vectors) across the
/// *entire* K extent — accumulators never spill, so each output element
/// is one in-order FMA chain, exactly the canonical order. Per K step:
/// 2 vector loads of B, 4 broadcasts of A, 8 FMAs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fill_block_tile_avx2(
    panels: &Panels,
    row0: usize,
    col0: usize,
    bm: usize,
    bn: usize,
    tile: &mut [f32],
) {
    use std::arch::x86_64::*;
    let k = panels.k;
    debug_assert_eq!(row0 % MICRO_MR, 0);
    debug_assert_eq!(col0 % MICRO_PANEL, 0);
    debug_assert_eq!(bm % MICRO_MR, 0);
    debug_assert_eq!(bn % MICRO_PANEL, 0);
    debug_assert!(panels.a_pack.len() >= (row0 + bm) * k);
    debug_assert!(panels.b_pack.len() >= (col0 + bn) * k);
    let strips = bm / MICRO_MR;
    let npanels = bn / MICRO_PANEL;
    let s0 = row0 / MICRO_MR;
    let p0 = col0 / MICRO_PANEL;
    let a_pack = panels.a_pack.as_ptr();
    let b_pack = panels.b_pack.as_ptr();
    let tile = tile.as_mut_ptr();

    for s in 0..strips {
        let a_strip = a_pack.add((s0 + s) * MICRO_MR * k);
        let mut p = 0;
        // Main 4×16 tiles: two adjacent B panels at once.
        while p + 1 < npanels {
            let b_lo = b_pack.add((p0 + p) * MICRO_PANEL * k);
            let b_hi = b_pack.add((p0 + p + 1) * MICRO_PANEL * k);
            let mut acc0l = _mm256_setzero_ps();
            let mut acc0h = _mm256_setzero_ps();
            let mut acc1l = _mm256_setzero_ps();
            let mut acc1h = _mm256_setzero_ps();
            let mut acc2l = _mm256_setzero_ps();
            let mut acc2h = _mm256_setzero_ps();
            let mut acc3l = _mm256_setzero_ps();
            let mut acc3h = _mm256_setzero_ps();
            for kk in 0..k {
                let vb_lo = _mm256_loadu_ps(b_lo.add(kk * MICRO_PANEL));
                let vb_hi = _mm256_loadu_ps(b_hi.add(kk * MICRO_PANEL));
                let a_step = a_strip.add(kk * MICRO_MR);
                let va0 = _mm256_set1_ps(*a_step);
                acc0l = _mm256_fmadd_ps(va0, vb_lo, acc0l);
                acc0h = _mm256_fmadd_ps(va0, vb_hi, acc0h);
                let va1 = _mm256_set1_ps(*a_step.add(1));
                acc1l = _mm256_fmadd_ps(va1, vb_lo, acc1l);
                acc1h = _mm256_fmadd_ps(va1, vb_hi, acc1h);
                let va2 = _mm256_set1_ps(*a_step.add(2));
                acc2l = _mm256_fmadd_ps(va2, vb_lo, acc2l);
                acc2h = _mm256_fmadd_ps(va2, vb_hi, acc2h);
                let va3 = _mm256_set1_ps(*a_step.add(3));
                acc3l = _mm256_fmadd_ps(va3, vb_lo, acc3l);
                acc3h = _mm256_fmadd_ps(va3, vb_hi, acc3h);
            }
            let col = p * MICRO_PANEL;
            let t0 = tile.add((s * MICRO_MR) * bn + col);
            _mm256_storeu_ps(t0, acc0l);
            _mm256_storeu_ps(t0.add(MICRO_PANEL), acc0h);
            let t1 = tile.add((s * MICRO_MR + 1) * bn + col);
            _mm256_storeu_ps(t1, acc1l);
            _mm256_storeu_ps(t1.add(MICRO_PANEL), acc1h);
            let t2 = tile.add((s * MICRO_MR + 2) * bn + col);
            _mm256_storeu_ps(t2, acc2l);
            _mm256_storeu_ps(t2.add(MICRO_PANEL), acc2h);
            let t3 = tile.add((s * MICRO_MR + 3) * bn + col);
            _mm256_storeu_ps(t3, acc3l);
            _mm256_storeu_ps(t3.add(MICRO_PANEL), acc3h);
            p += 2;
        }
        // 4×8 tail when the block is an odd number of panels wide.
        if p < npanels {
            let b_lo = b_pack.add((p0 + p) * MICRO_PANEL * k);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for kk in 0..k {
                let vb = _mm256_loadu_ps(b_lo.add(kk * MICRO_PANEL));
                let a_step = a_strip.add(kk * MICRO_MR);
                acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*a_step), vb, acc0);
                acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*a_step.add(1)), vb, acc1);
                acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*a_step.add(2)), vb, acc2);
                acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*a_step.add(3)), vb, acc3);
            }
            let col = p * MICRO_PANEL;
            _mm256_storeu_ps(tile.add((s * MICRO_MR) * bn + col), acc0);
            _mm256_storeu_ps(tile.add((s * MICRO_MR + 1) * bn + col), acc1);
            _mm256_storeu_ps(tile.add((s * MICRO_MR + 2) * bn + col), acc2);
            _mm256_storeu_ps(tile.add((s * MICRO_MR + 3) * bn + col), acc3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staged_panels(m: usize, n: usize, k: usize, seed: u64) -> Panels {
        use super::super::matrix::Matrix;
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let mut p = Panels::default();
        p.stage(&a, &b, false, true, None, m, n, k);
        p
    }

    #[test]
    fn packed_layouts_round_trip_the_panels() {
        let (m, n, k) = (16, 24, 8);
        let p = staged_panels(m, n, k, 42);
        for r in 0..m {
            for kk in 0..k {
                let s = r / MICRO_MR;
                let packed = p.a_pack[s * MICRO_MR * k + kk * MICRO_MR + (r % MICRO_MR)];
                assert_eq!(packed.to_bits(), p.a_f32[r * k + kk].to_bits());
            }
        }
        for c in 0..n {
            for kk in 0..k {
                let pan = c / MICRO_PANEL;
                let packed = p.b_pack[pan * MICRO_PANEL * k + kk * MICRO_PANEL + (c % MICRO_PANEL)];
                assert_eq!(packed.to_bits(), p.b_f32_t[c * k + kk].to_bits());
            }
        }
    }

    #[test]
    fn dot_is_the_in_order_fma_chain() {
        let a: Vec<f32> = (0..33).map(|i| (i as f32) * 0.37 - 3.0).collect();
        let b: Vec<f32> = (0..33).map(|i| 1.5 - (i as f32) * 0.21).collect();
        let mut want = 0.0f32;
        for (x, y) in a.iter().zip(&b) {
            want = x.mul_add(*y, want);
        }
        assert_eq!(dot(&a, &b).to_bits(), want.to_bits());
    }

    #[test]
    fn microkernel_matches_the_scalar_oracle_bit_for_bit() {
        if !detect_path().is_simd() {
            return; // nothing to compare on this host
        }
        // Odd-ish extents exercise the 4×8 tail (bn = 24 ⇒ 3 panels).
        for &(bm, bn, k) in &[(16usize, 16usize, 32usize), (32, 24, 56), (8, 40, 10)] {
            let p = staged_panels(bm, bn, k, 7 + (bm + bn + k) as u64);
            let mut simd = vec![0.0f32; bm * bn];
            let mut scalar = vec![0.0f32; bm * bn];
            fill_block_tile(GemmPath::Avx2Fma, &p, 0, 0, bm, bn, &mut simd);
            fill_block_tile(GemmPath::Scalar, &p, 0, 0, bm, bn, &mut scalar);
            let sb: Vec<u32> = simd.iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, cb, "bm={bm} bn={bn} k={k}");
        }
    }

    #[test]
    fn dispatch_honours_the_forced_override() {
        force_path(Some(GemmPath::Scalar));
        assert_eq!(active_path(), GemmPath::Scalar);
        force_path(None);
        // Ambient dispatch (env or detection) — just has to be callable.
        let _ = active_path();
    }
}
