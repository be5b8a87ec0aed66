//! Global (kernel-level) ABFT, after Hari et al. (§2.5) — the
//! state-of-the-art baseline intensity-guided ABFT selects for
//! compute-bound layers.
//!
//! Workflow per protected layer:
//!
//! 1. the GEMM runs unmodified;
//! 2. a fused epilogue produces the **output summation** `Σ C`;
//! 3. the activation function is applied;
//! 4. a fused epilogue produces the **next layer's activation checksum**
//!    (column sums of the next layer's `A` — here, of this layer's
//!    input, produced by the *previous* layer);
//! 5. a separate kernel computes the checksum dot product
//!    `(colsum A) · (rowsum B)` and compares it with `Σ C`.
//!
//! The **weight checksum** (`rowsum B`) is computed once offline because
//! weights never change between inference requests.
//!
//! On the host, step 2 is one pairwise tree over the engine's output
//! buffer ([`GlobalAbft::output_summation`]) and step 4 reads the
//! decoded A panel the engine already staged for its microkernel
//! ([`aiga_gpu::engine::Workspace::verify_split`]): one column-vectorized
//! pairwise tree over its rows ([`GlobalAbft::column_sums_into`]), so
//! the checksum costs one pass over memory the GEMM just touched rather
//! than a per-element walk of the activation's NCHW or im2col view.
//! Both trees split exactly as [`pairwise_sum_f32`] does, so every
//! checksum is bit-identical to that reference.

use crate::tolerance::Tolerance;
use aiga_gpu::engine::{APanel, CheckScratch, GemmOutput, Matrix};

/// Sums a slice of FP32 values pairwise (tree order), as the fused
/// epilogue + CUB-style reduce kernel would. This is the reference the
/// unrolled and column-vectorized trees below reproduce bit for bit.
pub fn pairwise_sum_f32(values: &[f32]) -> f32 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => {
            let (lo, hi) = values.split_at(n / 2);
            pairwise_sum_f32(lo) + pairwise_sum_f32(hi)
        }
    }
}

/// [`pairwise_sum_f32`]'s tree with its small subtrees written out, so
/// the recursion stops at eight elements instead of one.
fn tree_sum_f32(v: &[f32]) -> f32 {
    match *v {
        [] => 0.0,
        [a] => a,
        [a, b] => a + b,
        [a, b, c] => a + (b + c),
        [a, b, c, d] => (a + b) + (c + d),
        [a, b, c, d, e] => (a + b) + (c + (d + e)),
        [a, b, c, d, e, f] => (a + (b + c)) + (d + (e + f)),
        [a, b, c, d, e, f, g] => (a + (b + c)) + ((d + e) + (f + g)),
        [a, b, c, d, e, f, g, h] => ((a + b) + (c + d)) + ((e + f) + (g + h)),
        _ => {
            let (lo, hi) = v.split_at(v.len() / 2);
            tree_sum_f32(lo) + tree_sum_f32(hi)
        }
    }
}

/// Writes the pairwise sums of panel rows `r0..r0 + len` into `out`
/// (one per column), with [`pairwise_sum_f32`]'s split at `len / 2`
/// applied to every column at once. `spare` holds one `out`-sized row
/// per deeper tree level. Leaves are visited in row order, which is
/// when each row's magnitudes are added to `abs`.
fn column_tree(
    panel: &[f32],
    stride: usize,
    r0: usize,
    len: usize,
    out: &mut [f32],
    spare: &mut [f32],
    abs: &mut [f64],
) {
    let cols = out.len();
    if len > 4 {
        let half = len / 2;
        column_tree(panel, stride, r0, half, out, spare, abs);
        let (hi, rest) = spare.split_at_mut(cols);
        column_tree(panel, stride, r0 + half, len - half, hi, rest, abs);
        for (o, h) in out.iter_mut().zip(hi.iter()) {
            *o += h;
        }
        return;
    }
    let row = |i: usize| &panel[(r0 + i) * stride..][..cols];
    match len {
        1 => out.copy_from_slice(row(0)),
        2 => {
            for (o, (a, b)) in out.iter_mut().zip(row(0).iter().zip(row(1))) {
                *o = a + b;
            }
        }
        3 => {
            let (r1, r2) = (row(1), row(2));
            for (c, (o, a)) in out.iter_mut().zip(row(0)).enumerate() {
                *o = a + (r1[c] + r2[c]);
            }
        }
        _ => {
            let (r1, r2, r3) = (row(1), row(2), row(3));
            for (c, (o, a)) in out.iter_mut().zip(row(0)).enumerate() {
                *o = (a + r1[c]) + (r2[c] + r3[c]);
            }
        }
    }
    for i in 0..len {
        for (m, &v) in abs.iter_mut().zip(row(i)) {
            *m += (v as f64).abs();
        }
    }
}

/// Result of the global ABFT reduce-and-compare kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalVerdict {
    /// Whether the layer is flagged faulty.
    pub fault_detected: bool,
    /// `|checksum dot product − output summation|`.
    pub residual: f64,
    /// Threshold the residual was compared against.
    pub threshold: f64,
}

/// Global ABFT state for one linear layer.
#[derive(Clone, Debug)]
pub struct GlobalAbft {
    /// Offline weight checksum: `rowsum(B)[k] = Σ_j B[k][j]`, FP32.
    weight_checksum: Vec<f32>,
    /// `Σ_j |B[k][j]|` per `k`, for the error bound.
    weight_abs: Vec<f64>,
    tolerance: Tolerance,
}

impl GlobalAbft {
    /// Offline preparation from the layer's weights (§2.5: computed once,
    /// reused for every inference request).
    pub fn prepare(b: &Matrix) -> Self {
        Self::prepare_with_tolerance(b, Tolerance::Analytical)
    }

    /// Offline preparation with an explicit tolerance policy.
    pub fn prepare_with_tolerance(b: &Matrix, tolerance: Tolerance) -> Self {
        let mut weight_checksum = vec![0.0f32; b.rows];
        let mut weight_abs = vec![0.0f64; b.rows];
        let mut row = vec![0.0f32; b.cols];
        for k in 0..b.rows {
            #[allow(clippy::needless_range_loop)] // row/abs are indexed in lockstep
            for j in 0..b.cols {
                let v = b.get_f32(k, j);
                row[j] = v;
                weight_abs[k] += (v as f64).abs();
            }
            weight_checksum[k] = pairwise_sum_f32(&row);
        }
        GlobalAbft {
            weight_checksum,
            weight_abs,
            tolerance,
        }
    }

    /// Column checksums of the first `rows × cols` elements of a
    /// row-major f32 panel with row stride `stride`: `scratch.chk[c]` is
    /// [`pairwise_sum_f32`] of column `c` (bit for bit) and
    /// `scratch.abs[c]` its f64 magnitude sum in row order. One tree
    /// runs over rows for all columns at once; its working rows
    /// (`cols × (⌈log2 rows⌉ + 2)` floats) live in `scratch.stack`, so a
    /// warm scratch makes this allocation-free.
    pub fn column_sums_into(
        panel: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        scratch: &mut CheckScratch,
    ) {
        let CheckScratch {
            chk, abs, stack, ..
        } = scratch;
        chk.clear();
        chk.resize(cols, 0.0);
        abs.clear();
        abs.resize(cols, 0.0);
        if rows == 0 || cols == 0 {
            return;
        }
        let levels = rows.next_power_of_two().trailing_zeros() as usize + 2;
        stack.clear();
        stack.resize(cols * levels, 0.0);
        column_tree(panel, stride, 0, rows, chk, stack, abs);
    }

    /// The fused output summation `Σ C` over the kernel's FP32
    /// accumulators (§2.5 step 2).
    pub fn output_summation(out: &GemmOutput) -> f32 {
        tree_sum_f32(&out.c)
    }

    /// The reduce-and-compare kernel (§2.5 step 5): dot the activation
    /// checksum with the offline weight checksum and compare against the
    /// output summation. NaN-aware: a residual or threshold that is not
    /// a number flags the layer.
    pub fn check(
        &self,
        activation_checksum: &[f32],
        activation_abs: &[f64],
        output_summation: f32,
        out_m: usize,
        out_n: usize,
    ) -> GlobalVerdict {
        assert_eq!(
            activation_checksum.len(),
            self.weight_checksum.len(),
            "checksum length mismatch"
        );
        let mut dot = 0.0f32;
        let mut magnitude = 0.0f64;
        for k in 0..self.weight_checksum.len() {
            dot += activation_checksum[k] * self.weight_checksum[k];
            magnitude += activation_abs[k] * self.weight_abs[k];
        }
        let residual = (dot as f64 - output_summation as f64).abs();
        // Tree reductions round O(log) times per stage; charge each of
        // the four reductions (A-colsum, B-rowsum, dot, ΣC) a log term,
        // with a 1.5x slack factor over the first-order bound.
        let logs = (out_m as f64).log2().ceil()
            + (out_n as f64).log2().ceil()
            + (self.weight_checksum.len() as f64).log2().ceil()
            + ((out_m * out_n) as f64).log2().ceil();
        let threshold = self.tolerance.threshold(0.0, 1.5 * (logs + 8.0), magnitude);
        GlobalVerdict {
            // `!(residual <= threshold)`: NaN on either side flags.
            fault_detected: residual > threshold || residual.is_nan() || threshold.is_nan(),
            residual,
            threshold,
        }
    }

    /// Steps 2 and 5 against the activation checksum already in
    /// `scratch` (left there by [`Self::verify_panel`]): the output
    /// summation of `out`, then the comparison. The re-check after a
    /// repair uses this — the activations did not change.
    pub fn check_output(&self, out: &GemmOutput, scratch: &CheckScratch) -> GlobalVerdict {
        let sum = Self::output_summation(out);
        self.check(&scratch.chk, &scratch.abs, sum, out.m, out.n)
    }

    /// Convenience wrapper running the whole §2.5 flow for one layer:
    /// activation checksum over `a`, output summation over `out`, then
    /// the comparison. Decodes `a` into a fresh buffer; the serving path
    /// uses [`Self::verify_panel`] on the panel the engine staged.
    pub fn verify(&self, a: &Matrix, out: &GemmOutput) -> GlobalVerdict {
        assert_eq!(
            a.cols,
            self.weight_checksum.len(),
            "checksum length mismatch"
        );
        let rows = decode_rows(a);
        let a = APanel {
            data: &rows,
            stride: a.cols,
        };
        self.verify_panel(a, out, &mut CheckScratch::default())
    }

    /// The serving hot path: the whole §2.5 flow reading the activation
    /// checksum from `a`, the engine's decoded A panel of the run that
    /// produced `out` (its first `out.m` rows and K columns), through
    /// caller-owned scratch — a warm scratch never allocates.
    pub fn verify_panel(
        &self,
        a: APanel<'_>,
        out: &GemmOutput,
        scratch: &mut CheckScratch,
    ) -> GlobalVerdict {
        let cols = self.weight_checksum.len();
        assert!(a.stride >= cols, "panel narrower than the weight checksum");
        Self::column_sums_into(a.data, a.stride, out.m, cols, scratch);
        self.check_output(out, scratch)
    }

    /// Column localization: the activation checksum in `scratch` (left
    /// by [`Self::verify_panel`]) and the weights `b` give the
    /// *expected* column sum `Σ_k chk(A)[k]·B[k][j]` of every output
    /// column; the first column whose sum is not finite, else the one
    /// whose observed sum deviates most, is the faulted one (a single
    /// corrupted cell perturbs exactly one column sum). Both sums are
    /// built with row-major sweeps in f64, each column in row order.
    pub fn localize_column(
        &self,
        b: &Matrix,
        out: &GemmOutput,
        scratch: &mut CheckScratch,
    ) -> usize {
        let CheckScratch {
            chk,
            expected,
            observed,
            ..
        } = scratch;
        expected.clear();
        expected.resize(out.n, 0.0);
        observed.clear();
        observed.resize(out.n, 0.0);
        for (k, &c) in chk.iter().enumerate() {
            for (j, e) in expected.iter_mut().enumerate() {
                *e += c as f64 * b.get_f64(k, j);
            }
        }
        for row in out.c.chunks_exact(out.n.max(1)) {
            for (o, &v) in observed.iter_mut().zip(row) {
                *o += v as f64;
            }
        }
        let mut best = 0usize;
        let mut best_diff = f64::NEG_INFINITY;
        for (j, (e, o)) in expected.iter().zip(observed.iter()).enumerate() {
            let diff = (e - o).abs();
            if !diff.is_finite() {
                return j;
            }
            if diff > best_diff {
                best_diff = diff;
                best = j;
            }
        }
        best
    }
}

/// Decodes `a` (any layout) into a dense row-major f32 buffer.
fn decode_rows(a: &Matrix) -> Vec<f32> {
    let mut rows = Vec::with_capacity(a.rows * a.cols);
    for i in 0..a.rows {
        rows.extend((0..a.cols).map(|k| a.get_f32(i, k)));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_fp16::F16;
    use aiga_gpu::engine::{Dtype, FaultKind, FaultPlan, GemmEngine, NoScheme};
    use aiga_gpu::GemmShape;
    use aiga_util::rng::Rng64;

    fn run(
        m: usize,
        n: usize,
        k: usize,
        seed: u64,
        fault: Option<FaultPlan>,
    ) -> (Matrix, GemmOutput) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let eng = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
        let out = eng.run(&a, &b, || NoScheme, fault);
        (a, out)
    }

    #[test]
    fn clean_layer_passes_the_check() {
        let b = Matrix::random(64, 48, 61);
        let abft = GlobalAbft::prepare(&b);
        let a = Matrix::random(56, 64, 60);
        let eng = GemmEngine::with_default_tiling(GemmShape::new(56, 48, 64));
        let out = eng.run(&a, &b, || NoScheme, None);
        let v = abft.verify(&a, &out);
        assert!(!v.fault_detected, "{v:?}");
    }

    #[test]
    fn detects_a_single_corrupted_output() {
        let b = Matrix::random(64, 48, 63);
        let abft = GlobalAbft::prepare(&b);
        let a = Matrix::random(56, 64, 62);
        let eng = GemmEngine::with_default_tiling(GemmShape::new(56, 48, 64));
        let fault = FaultPlan {
            row: 13,
            col: 21,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(50.0),
        };
        let out = eng.run(&a, &b, || NoScheme, Some(fault));
        let v = abft.verify(&a, &out);
        assert!(v.fault_detected, "{v:?}");
        assert!((v.residual - 50.0).abs() < 1.0);
    }

    #[test]
    fn detects_exponent_bit_flips_anywhere() {
        for (r, c) in [(0usize, 0usize), (31, 17), (55, 47)] {
            let b = Matrix::random(64, 48, 65);
            let abft = GlobalAbft::prepare(&b);
            let a = Matrix::random(56, 64, 64);
            let eng = GemmEngine::with_default_tiling(GemmShape::new(56, 48, 64));
            let fault = FaultPlan {
                row: r,
                col: c,
                after_step: u64::MAX,
                kind: FaultKind::BitFlip(29),
            };
            let out = eng.run(&a, &b, || NoScheme, Some(fault));
            assert!(abft.verify(&a, &out).fault_detected, "({r},{c})");
        }
    }

    #[test]
    fn weight_checksum_is_reusable_across_requests() {
        let b = Matrix::random(32, 32, 67);
        let abft = GlobalAbft::prepare(&b);
        for seed in 70..74 {
            let (a, out) = {
                let a = Matrix::random(24, 32, seed);
                let eng = GemmEngine::with_default_tiling(GemmShape::new(24, 32, 32));
                let out = eng.run(&a, &b, || NoScheme, None);
                (a, out)
            };
            assert!(!abft.verify(&a, &out).fault_detected, "seed {seed}");
        }
    }

    #[test]
    fn pairwise_sum_matches_exact_on_integers() {
        let vals: Vec<f32> = (1..=1000).map(|v| v as f32).collect();
        assert_eq!(pairwise_sum_f32(&vals), 500500.0);
        assert_eq!(pairwise_sum_f32(&[]), 0.0);
    }

    #[test]
    fn checksum_lengths_are_validated() {
        let (a, out) = run(16, 16, 32, 80, None);
        let b2 = Matrix::random(16, 16, 81); // wrong K
        let abft = GlobalAbft::prepare(&b2);
        let mut scratch = CheckScratch::default();
        let rows = decode_rows(&a);
        GlobalAbft::column_sums_into(&rows, a.cols, a.rows, a.cols, &mut scratch);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            abft.check_output(&out, &scratch)
        }));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| abft.verify(&a, &out));
        assert!(result.is_err());
    }

    #[test]
    fn nan_output_summation_flags_the_layer() {
        let b = Matrix::random(32, 24, 90);
        let abft = GlobalAbft::prepare(&b);
        let (chk, abs) = (vec![1.0f32; 32], vec![1.0f64; 32]);
        let v = abft.check(&chk, &abs, f32::NAN, 16, 24);
        assert!(v.fault_detected, "{v:?}");
        assert!(v.residual.is_nan());
    }

    #[test]
    fn nan_or_inf_output_cell_is_detected_and_repaired() {
        use crate::kernel::{FaultSite, Verdict};
        use crate::protected::ProtectedGemm;
        use crate::schemes::Scheme;
        use aiga_gpu::engine::Workspace;
        for (col, bad) in [
            (5usize, f32::NAN),
            (17, f32::INFINITY),
            (0, f32::NEG_INFINITY),
        ] {
            let a = Matrix::random(40, 48, 92);
            let b = Matrix::random(48, 24, 93);
            let fault = FaultPlan {
                row: 9,
                col,
                after_step: u64::MAX,
                kind: FaultKind::SetValue(bad),
            };
            let eng = GemmEngine::with_default_tiling(GemmShape::new(40, 24, 48));
            let out = eng.run(&a, &b, || NoScheme, Some(fault));
            let v = GlobalAbft::prepare(&b).verify(&a, &out);
            assert!(v.fault_detected, "{bad}: {v:?}");

            let gemm = ProtectedGemm::new(a, b, Scheme::GlobalAbft);
            let mut ws = Workspace::new();
            let verdict = gemm.run_corrected_into(&[fault], &mut ws);
            assert!(
                matches!(
                    verdict,
                    Verdict::Corrected {
                        site: FaultSite::Column { col: c },
                        ..
                    } if c == col
                ),
                "{bad}: {verdict:?}"
            );
            let clean = gemm.run_with(&[]).output.c;
            assert_eq!(ws.output().c, clean, "{bad}: repair is not byte-exact");
        }
    }

    /// NaN-tolerant bit equality: equal bits, or both NaN (NaN payloads
    /// may legitimately differ once additions are vectorized).
    fn same_f32(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn same_f64(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Storage codes of ±0, the smallest ±subnormal, ±Inf and NaN in
    /// `dtype` (fp8 E4M3FN has no infinities and int8 neither infinities
    /// nor NaN; their extremes stand in).
    fn special_codes(dtype: Dtype) -> [u16; 7] {
        match dtype {
            Dtype::F16 => [0x0000, 0x8000, 0x0001, 0x8001, 0x7c00, 0xfc00, 0x7e01],
            Dtype::Bf16 => [0x0000, 0x8000, 0x0001, 0x8001, 0x7f80, 0xff80, 0x7fc1],
            Dtype::Fp8E4M3 => [0x00, 0x80, 0x01, 0x81, 0x7e, 0xfe, 0x7f],
            Dtype::Int8 => [0x00, 0x80, 0x01, 0xff, 0x7f, 0x81, 0x80],
        }
    }

    /// `len` storage codes of `dtype`: values in `[-2, 2]` with
    /// `specials` positions overwritten by [`special_codes`].
    fn codes(len: usize, dtype: Dtype, specials: usize, seed: u64) -> Vec<F16> {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut v: Vec<F16> = (0..len)
            .map(|_| F16(dtype.encode(rng.range_f32(-2.0, 2.0))))
            .collect();
        let sp = special_codes(dtype);
        for _ in 0..specials.min(len) {
            let i = rng.range_usize(0, len);
            v[i] = F16(sp[rng.range_usize(0, sp.len())]);
        }
        v
    }

    /// Reference: per column, the values gathered through `get_f32`,
    /// [`pairwise_sum_f32`] and the row-order f64 magnitude sum.
    fn reference_columns(a: &Matrix) -> (Vec<f32>, Vec<f64>) {
        let mut col = vec![0.0f32; a.rows];
        let mut chk = vec![0.0f32; a.cols];
        let mut abs = vec![0.0f64; a.cols];
        for k in 0..a.cols {
            for (i, v) in col.iter_mut().enumerate() {
                *v = a.get_f32(i, k);
                abs[k] += (*v as f64).abs();
            }
            chk[k] = pairwise_sum_f32(&col);
        }
        (chk, abs)
    }

    fn assert_columns_match(panel: APanel<'_>, a: &Matrix, what: &str) {
        let mut scratch = CheckScratch::default();
        GlobalAbft::column_sums_into(panel.data, panel.stride, a.rows, a.cols, &mut scratch);
        let (chk, abs) = reference_columns(a);
        assert_eq!(scratch.chk.len(), a.cols, "{what}");
        for k in 0..a.cols {
            assert!(
                same_f32(scratch.chk[k], chk[k]),
                "{what} col {k}: {} vs {}",
                scratch.chk[k],
                chk[k]
            );
            assert!(same_f64(scratch.abs[k], abs[k]), "{what} col {k} magnitude");
        }
    }

    #[test]
    fn global_column_sums_are_bit_identical_on_row_major_panels() {
        // Dense row-major panels with a padded stride, every dtype.
        let mut cases: Vec<(usize, usize)> = Vec::new();
        for rows in 0..=33 {
            cases.extend((1..=17).map(|w| (rows, w)));
        }
        cases.extend([(3025, 17), (3025, 576), (12321, 27), (12321, 576)]);
        for dtype in Dtype::ALL {
            for (i, &(rows, cols)) in cases.iter().enumerate() {
                let specials = if rows > 64 { 6 } else { rows * cols / 6 };
                let data = codes(rows * cols, dtype, specials, 7000 + i as u64);
                let mut a = Matrix::from_fn(rows, cols, |r, c| data[r * cols + c]);
                a.dtype = dtype;
                let stride = cols + 3;
                let mut panel = vec![f32::NAN; rows * stride + 1];
                for r in 0..rows {
                    for c in 0..cols {
                        panel[r * stride + c] = a.get_f32(r, c);
                    }
                }
                let view = APanel {
                    data: &panel,
                    stride,
                };
                assert_columns_match(view, &a, &format!("{dtype:?} {rows}x{cols}"));
            }
        }
    }

    #[test]
    fn global_column_sums_are_bit_identical_on_engine_panels() {
        // The engine's own staged panels, from the zero-copy NCHW and
        // padded im2col views as well as row-major activations.
        use aiga_gpu::engine::{Im2colView, Workspace};
        let conv = |channels, height, kernel, stride, padding| {
            let out = (height + 2 * padding - kernel) / stride + 1;
            Im2colView {
                channels,
                height,
                width: height,
                kernel,
                stride,
                padding,
                out_h: out,
                out_w: out,
            }
        };
        let mut ws = Workspace::new();
        for dtype in Dtype::ALL {
            let mut views: Vec<(String, Matrix)> = Vec::new();
            for (images, channels, side) in [(2usize, 13usize, 5usize), (1, 16, 55)] {
                let len = images * channels * side * side;
                let data = codes(len, dtype, len / 50, 7100 + side as u64);
                let m = Matrix::nchw_lowered(images, channels, side * side, data);
                views.push((format!("nchw {images}x{channels}x{side}²"), m));
            }
            for (images, v) in [
                (2usize, conv(3, 9, 3, 2, 1)),
                (1, conv(5, 13, 3, 1, 1)),
                (1, conv(3, 224, 3, 2, 0)),
                (1, conv(2, 11, 7, 2, 3)),
            ] {
                let len = images * v.channels * v.height * v.width;
                let data = codes(len, dtype, 8, 7200 + v.height as u64);
                let m = Matrix::im2col_lowered(images, v, data);
                views.push((format!("im2col {v:?}"), m));
            }
            for rows in [1usize, 2, 7, 33] {
                let data = codes(rows * 17, dtype, rows, 7300 + rows as u64);
                views.push((
                    format!("row-major {rows}x17"),
                    Matrix::from_fn(rows, 17, |r, c| data[r * 17 + c]),
                ));
            }
            for (what, a) in views {
                let a = a.with_dtype(dtype);
                let b = Matrix::random_dtype(a.cols, 8, 7400, dtype);
                let shape = GemmShape::new(a.rows as u64, 8, a.cols as u64);
                let eng = GemmEngine::with_default_tiling(shape);
                eng.run_multi_into(&a, &b, || NoScheme, &[], &mut ws);
                let (panel, _, _) = ws.verify_split();
                assert_columns_match(panel, &a, &format!("{dtype:?} {what}"));
            }
        }
    }

    #[test]
    fn global_output_summation_is_bit_identical_to_the_reference() {
        let mut rng = Rng64::seed_from_u64(7500);
        let specials = [
            0.0,
            -0.0,
            1e-45,
            -1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut lens: Vec<usize> = (0..=64).collect();
        lens.push(788_544);
        for len in lens {
            for round in 0..3 {
                let mut v: Vec<f32> = (0..len).map(|_| rng.range_f32(-1e3, 1e3)).collect();
                // Round 0 stays finite; later rounds sprinkle specials.
                for _ in 0..round * len.min(8) {
                    let i = rng.range_usize(0, len);
                    v[i] = specials[rng.range_usize(0, specials.len())];
                }
                let (got, want) = (tree_sum_f32(&v), pairwise_sum_f32(&v));
                assert!(
                    same_f32(got, want),
                    "len {len} round {round}: {got} vs {want}"
                );
                if round == 0 {
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
                }
            }
        }
        // Signed zeros survive the unrolled leaves exactly.
        assert_eq!(tree_sum_f32(&[-0.0]).to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            tree_sum_f32(&[-0.0, -0.0, -0.0]).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn global_panel_verdicts_match_the_allocating_verify() {
        use aiga_gpu::engine::Workspace;
        let mut ws = Workspace::new();
        for (m, n, k, seed) in [(17usize, 9usize, 11usize, 7600u64), (56, 48, 64, 7601)] {
            let a = Matrix::random(m, k, seed);
            let b = Matrix::random(k, n, seed + 1);
            let abft = GlobalAbft::prepare(&b);
            let eng = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
            for fault in [
                None,
                Some(FaultPlan {
                    row: m / 2,
                    col: n / 2,
                    after_step: 2,
                    kind: FaultKind::BitFlip(29),
                }),
            ] {
                let faults: Vec<FaultPlan> = fault.into_iter().collect();
                eng.run_multi_into(&a, &b, || NoScheme, &faults, &mut ws);
                let (panel, out, check) = ws.verify_split();
                let hot = abft.verify_panel(panel, out, check);
                let cold = abft.verify(&a, out);
                assert_eq!(hot.fault_detected, cold.fault_detected);
                assert_eq!(hot.residual.to_bits(), cold.residual.to_bits());
                assert_eq!(hot.threshold.to_bits(), cold.threshold.to_bits());
            }
        }
    }
}
