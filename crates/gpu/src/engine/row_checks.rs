//! The shared passes behind one-sided thread-level ABFT (§5.2.2, see
//! [`ThreadLocalScheme::uses_row_checksums`][super::ThreadLocalScheme::uses_row_checksums]).
//!
//! Per K-step a lane multiplies its `Mt × 2` A chunk by the two B-row
//! checksums of its column group. Both factors are shared far beyond one
//! lane: a column group's checksums depend only on the group — every
//! lane row, warp row and block row reading those columns recomputes the
//! same chains — and a row's products depend only on (row, group), so
//! the 8 lane groups of a quad would each walk them for their own rows.
//! The engine therefore computes them once:
//!
//! - [`stage_chains`] (once per GEMM, at panel staging): every column
//!   group's [`Dtype::chain_add`] checksum and f64 magnitude sum, for
//!   every K index, in the lane's exact column order (fp16 chains 8 K
//!   indices at a time with F16C on the SIMD path);
//! - [`row_pass`] (once per block, in the stripe worker that owns it):
//!   the running ABFT and magnitude of every block row against each of
//!   the block's column groups.
//!
//! Lanes then only read their `Mt` finished values. Every element is
//! produced by the per-step formula's operations in the per-step order
//! (separate multiplies and adds, no FMA), so the AVX path, the scalar
//! path and the step-by-step replay are bit-identical by construction.

use super::panels::Panels;
use super::simd::GemmPath;
use crate::tiling::{TilingConfig, MAX_THREAD_NT};
use aiga_dtype::Dtype;

/// Column groups per block column: one per (warp column, quad).
pub(crate) fn groups_per_block(tiling: &TilingConfig) -> usize {
    4 * (tiling.block_n / tiling.warp_n) as usize
}

/// Index, within its block column, of the column group a lane of warp
/// column `warp_col` and quad `quad` owns (inverse: `j / 4`, `j % 4`).
pub(crate) fn lane_group(warp_col: usize, quad: usize) -> usize {
    warp_col * 4 + quad
}

/// Stages the B-row checksums of every column group into `chains`/
/// `chains_abs`. Group `j` of block column `bc` is the quad `j % 4` of
/// warp column `j / 4` ([`lane_group`]); its columns, in lane order, are granule-major
/// `bc·Nb + wc·Nw + gran·8 + 2·quad + {0, 1}`. Its chain at K index
/// `kk` lands at `(bc·k + kk)·G + j` (`G` = [`groups_per_block`]), so
/// the row pass reads a block's `G` checksums for one K index as one
/// contiguous vector. On the SIMD path with F16C, fp16-chain dtypes
/// build 8 K indices' chains at once (see [`chains_f16c`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_chains(
    b_f32_t: &[f32],
    cov_n: usize,
    k: usize,
    tiling: &TilingConfig,
    dtype: Dtype,
    simd: bool,
    chains: &mut Vec<f32>,
    chains_abs: &mut Vec<f64>,
) {
    let (bn, wn) = (tiling.block_n as usize, tiling.warp_n as usize);
    let g = groups_per_block(tiling);
    let block_cols = cov_n / bn;
    chains.clear();
    chains.resize(block_cols * k * g, 0.0);
    chains_abs.clear();
    chains_abs.resize(block_cols * k * g, 0.0);
    #[cfg(target_arch = "x86_64")]
    let f16c = simd
        && matches!(dtype, Dtype::F16 | Dtype::Fp8E4M3)
        && std::arch::is_x86_feature_detected!("f16c");
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    let mut cols = [0usize; MAX_THREAD_NT];
    let nt = 2 * (wn / 8);
    for bc in 0..block_cols {
        let (sums, abs) = (
            &mut chains[bc * k * g..(bc + 1) * k * g],
            &mut chains_abs[bc * k * g..(bc + 1) * k * g],
        );
        for j in 0..g {
            let first = bc * bn + (j / 4) * wn + 2 * (j % 4);
            for (i, c) in cols[..nt].iter_mut().enumerate() {
                *c = first + (i / 2) * 8 + i % 2;
            }
            let mut kk0 = 0;
            #[cfg(target_arch = "x86_64")]
            if f16c {
                // SAFETY: F16C (and the AVX it implies) was just detected.
                kk0 = unsafe { chains_f16c(b_f32_t, k, &cols[..nt], g, j, sums, abs) };
            }
            for kk in kk0..k {
                let mut sum = 0.0f32;
                let mut sum_abs = 0.0f64;
                for &c in &cols[..nt] {
                    let v = b_f32_t[c * k + kk];
                    sum = dtype.chain_add(sum, v);
                    sum_abs += (v as f64).abs();
                }
                sums[kk * g + j] = sum;
                abs[kk * g + j] = sum_abs;
            }
        }
    }
}

/// The fp16 chains of group `j` for 8 K indices at a time: the chain
/// is serial over columns but independent across K, so one vector holds
/// 8 running sums, rounded after every add with one `vcvtps2ph`/
/// `vcvtph2ps` pair — `vcvtps2ph`'s round-to-nearest-even is the single
/// correct rounding [`Dtype::chain_add`] applies. Returns the first K
/// index left for the scalar loop.
///
/// # Safety
/// The host must support F16C (which implies AVX).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx", enable = "f16c")]
unsafe fn chains_f16c(
    b_f32_t: &[f32],
    k: usize,
    cols: &[usize],
    g: usize,
    j: usize,
    sums: &mut [f32],
    abs: &mut [f64],
) -> usize {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let whole = k - k % 8;
    for kk0 in (0..whole).step_by(8) {
        let mut sum = _mm256_setzero_ps();
        let mut abs_lo = _mm256_setzero_pd();
        let mut abs_hi = _mm256_setzero_pd();
        for &c in cols {
            let v = _mm256_loadu_ps(b_f32_t[c * k + kk0..][..8].as_ptr());
            sum = _mm256_cvtph_ps(_mm256_cvtps_ph(
                _mm256_add_ps(sum, v),
                _MM_FROUND_TO_NEAREST_INT,
            ));
            let va = _mm256_andnot_ps(sign, v);
            abs_lo = _mm256_add_pd(abs_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(va)));
            abs_hi = _mm256_add_pd(abs_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)));
        }
        let mut s = [0.0f32; 8];
        let mut a = [0.0f64; 8];
        _mm256_storeu_ps(s.as_mut_ptr(), sum);
        _mm256_storeu_pd(a.as_mut_ptr(), abs_lo);
        _mm256_storeu_pd(a.as_mut_ptr().add(4), abs_hi);
        for i in 0..8 {
            sums[(kk0 + i) * g + j] = s[i];
            abs[(kk0 + i) * g + j] = a[i];
        }
    }
    whole
}

/// Computes the running one-sided ABFT and magnitude of the `bm` rows
/// starting at `row0` against the `G` column groups of block column
/// `bc`, from the chains staged in `panels`: row `lr`, group `j` lands
/// at `lr·G + j` of `abft`/`magnitude`.
pub(crate) fn row_pass(
    path: GemmPath,
    panels: &Panels,
    row0: usize,
    bm: usize,
    bc: usize,
    abft: &mut Vec<f32>,
    magnitude: &mut Vec<f64>,
) {
    let (k, g) = (panels.k, panels.chain_groups);
    abft.resize(bm * g, 0.0);
    magnitude.resize(bm * g, 0.0);
    let chains = &panels.chains[bc * k * g..(bc + 1) * k * g];
    let chains_abs = &panels.chains_abs[bc * k * g..(bc + 1) * k * g];
    let vec_groups = match path {
        #[cfg(target_arch = "x86_64")]
        GemmPath::Avx2Fma => g - g % 8,
        _ => 0,
    };
    for lr in 0..bm {
        let row = &panels.a_f32[(row0 + lr) * k..][..k];
        let (abft_row, mag_row) = (
            &mut abft[lr * g..(lr + 1) * g],
            &mut magnitude[lr * g..(lr + 1) * g],
        );
        #[cfg(target_arch = "x86_64")]
        if vec_groups > 0 {
            // SAFETY: the Avx2Fma path is only dispatched on hosts with
            // AVX2 (detect_path / force_path enforce it), which implies
            // the AVX this kernel needs.
            unsafe { row_avx(row, chains, chains_abs, g, vec_groups, abft_row, mag_row) };
        }
        for j in vec_groups..g {
            let mut acc = 0.0f32;
            let mut mag = 0.0f64;
            for (s, a) in row.chunks_exact(2).enumerate() {
                let (a0, a1) = (a[0], a[1]);
                let (w0, w1) = (chains[2 * s * g + j], chains[(2 * s + 1) * g + j]);
                let (wa0, wa1) = (chains_abs[2 * s * g + j], chains_abs[(2 * s + 1) * g + j]);
                acc += a0 * w0 + a1 * w1;
                mag += (a0 as f64).abs() * wa0 + (a1 as f64).abs() * wa1;
            }
            abft_row[j] = acc;
            mag_row[j] = mag;
        }
    }
}

/// One row against the first `vec_groups` groups, 8 at a time: the f32
/// running ABFT of 8 groups is one vector, their f64 magnitudes two.
/// Each lane performs exactly the scalar loop's operations.
///
/// # Safety
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn row_avx(
    row: &[f32],
    chains: &[f32],
    chains_abs: &[f64],
    g: usize,
    vec_groups: usize,
    abft: &mut [f32],
    magnitude: &mut [f64],
) {
    use std::arch::x86_64::*;
    let k = row.len();
    // The raw loads below read up to index `(k - 1)·g + vec_groups - 1`
    // and the stores write `vec_groups` values.
    assert!(vec_groups.is_multiple_of(8) && vec_groups <= g);
    assert!(chains.len() >= k * g && chains_abs.len() >= k * g);
    assert!(abft.len() >= vec_groups && magnitude.len() >= vec_groups);
    let (w, wa) = (chains.as_ptr(), chains_abs.as_ptr());
    for j0 in (0..vec_groups).step_by(8) {
        let mut acc = _mm256_setzero_ps();
        let mut mag_lo = _mm256_setzero_pd();
        let mut mag_hi = _mm256_setzero_pd();
        for (s, a) in row.chunks_exact(2).enumerate() {
            let (e0, e1) = (2 * s * g + j0, (2 * s + 1) * g + j0);
            let (a0, a1) = (_mm256_set1_ps(a[0]), _mm256_set1_ps(a[1]));
            let p0 = _mm256_mul_ps(a0, _mm256_loadu_ps(w.add(e0)));
            let p1 = _mm256_mul_ps(a1, _mm256_loadu_ps(w.add(e1)));
            acc = _mm256_add_ps(acc, _mm256_add_ps(p0, p1));
            let aa0 = _mm256_set1_pd((a[0] as f64).abs());
            let aa1 = _mm256_set1_pd((a[1] as f64).abs());
            let lo0 = _mm256_mul_pd(aa0, _mm256_loadu_pd(wa.add(e0)));
            let lo1 = _mm256_mul_pd(aa1, _mm256_loadu_pd(wa.add(e1)));
            mag_lo = _mm256_add_pd(mag_lo, _mm256_add_pd(lo0, lo1));
            let hi0 = _mm256_mul_pd(aa0, _mm256_loadu_pd(wa.add(e0 + 4)));
            let hi1 = _mm256_mul_pd(aa1, _mm256_loadu_pd(wa.add(e1 + 4)));
            mag_hi = _mm256_add_pd(mag_hi, _mm256_add_pd(hi0, hi1));
        }
        _mm256_storeu_ps(abft.as_mut_ptr().add(j0), acc);
        _mm256_storeu_pd(magnitude.as_mut_ptr().add(j0), mag_lo);
        _mm256_storeu_pd(magnitude.as_mut_ptr().add(j0 + 4), mag_hi);
    }
}
