//! Bit-exactness regression net for the engine's execution paths.
//!
//! The FNV-1a hashes below pin the engine's **canonical accumulation
//! order**: per output element, one FP32 accumulator updated by one
//! correctly-rounded FMA per K element, in K order
//! (`acc = a[kk].mul_add(b[kk], acc)`). Every execution path — the
//! AVX2+FMA microkernel, the scalar oracle, the hooked step-ordered
//! replay, sequential and block-parallel workspace runs — is required to
//! produce exactly this sequence per element, so any hash drift is a
//! real numerics regression, not tolerable noise. The hashes were
//! produced by the scalar reference walk; the SIMD sweep below proves
//! the microkernel reproduces them byte for byte.

use aiga_core::registry;
use aiga_core::schemes::Scheme;
use aiga_gpu::engine::simd;
use aiga_gpu::engine::{FaultKind, FaultPlan, Matrix};
use aiga_gpu::{GemmEngine, GemmPath, GemmShape};

fn fnv1a_of_c(c: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in c {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

const ALL_SCHEMES: [Scheme; 6] = [
    Scheme::Unprotected,
    Scheme::GlobalAbft,
    Scheme::ThreadLevelOneSided,
    Scheme::ThreadLevelTwoSided,
    Scheme::ReplicationSingleAcc,
    Scheme::ReplicationTraditional,
];

/// (m, n, k, seed, clean hash, faulted hash) — one row per shape; every
/// scheme must hit the same hashes (schemes never change the math).
const GOLDEN: &[(usize, usize, usize, u64, u64, u64)] = &[
    (17, 9, 11, 1000, 0x8a50a5e47da48ca4, 0x86f3cef29ba2967d),
    (32, 32, 32, 1017, 0xc0ff88eed11fa61c, 0x582af8c42132cba5),
    (48, 40, 56, 1034, 0x059aff3647451f98, 0x92431c5d8a600cfe),
    (64, 64, 64, 1051, 0x26301469fa43be22, 0x9e6bd37730ee8074),
    (33, 65, 40, 1068, 0xda55a6ff30a49f7f, 0xe973d276aa8e6bc3),
];

fn mid_fault(m: usize, n: usize) -> FaultPlan {
    FaultPlan {
        row: (m - 1) / 2,
        col: (n - 1) / 2,
        after_step: 3,
        kind: FaultKind::AddValue(64.0),
    }
}

#[test]
fn every_scheme_reproduces_the_canonical_outputs() {
    let reg = registry::shared();
    for &(m, n, k, seed, clean_hash, dirty_hash) in GOLDEN {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let engine = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
        let fault = mid_fault(m, n);
        for &scheme in &ALL_SCHEMES {
            let bound = reg.resolve(scheme).bind(&b);
            let clean = bound.run(&engine, &a, &[]);
            assert_eq!(
                fnv1a_of_c(&clean.output.c),
                clean_hash,
                "{scheme} clean output drifted on {m}x{n}x{k}"
            );
            let dirty = bound.run(&engine, &a, &[fault]);
            assert_eq!(
                fnv1a_of_c(&dirty.output.c),
                dirty_hash,
                "{scheme} faulted output drifted on {m}x{n}x{k}"
            );
        }
    }
}

#[test]
fn simd_and_scalar_paths_agree_byte_for_byte_across_all_schemes() {
    // The dispatcher's two paths must be indistinguishable: for every
    // scheme, every golden shape (odd/padded shapes included), clean and
    // mid-kernel-faulted, the AVX2+FMA microkernel must reproduce the
    // scalar oracle's bytes — outputs AND detection verdicts. All path
    // flipping happens inside this one test body so concurrent tests
    // (path-independent by this very guarantee) never observe a torn
    // override.
    if !simd::detect_path().is_simd() {
        eprintln!("host has no AVX2+FMA; scalar-only — sweep is vacuous here");
        return;
    }
    let reg = registry::shared();
    for &(m, n, k, seed, _, _) in GOLDEN {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let engine = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
        let fault = mid_fault(m, n);
        for &scheme in &ALL_SCHEMES {
            let bound = reg.resolve(scheme).bind(&b);
            for faults in [&[][..], &[fault][..]] {
                simd::force_path(Some(GemmPath::Scalar));
                let s = bound.run(&engine, &a, faults);
                simd::force_path(Some(GemmPath::Avx2Fma));
                let v = bound.run(&engine, &a, faults);
                simd::force_path(None);
                let sb: Vec<u32> = s.output.c.iter().map(|x| x.to_bits()).collect();
                let vb: Vec<u32> = v.output.c.iter().map(|x| x.to_bits()).collect();
                assert_eq!(sb, vb, "{scheme} paths diverged on {m}x{n}x{k}");
                assert_eq!(
                    s.output.detections.len(),
                    v.output.detections.len(),
                    "{scheme} detection count diverged on {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn fast_and_hooked_walks_are_byte_identical() {
    // The engine takes the fused per-accumulator fast path for schemes
    // without K-step hooks and the step-ordered replay otherwise; both
    // must produce identical bytes. Replication's hooked walk shares
    // loads with the engine, so comparing its output (hooked path)
    // against the unprotected output (fast path) covers the seam,
    // including with a mid-kernel fault.
    for &(m, n, k) in &[(48usize, 40usize, 64usize), (33, 65, 40)] {
        let a = Matrix::random(m, k, 7);
        let b = Matrix::random(k, n, 8);
        let engine = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
        let reg = registry::shared();
        let fast = reg.resolve(Scheme::Unprotected).bind(&b);
        let hooked = reg.resolve(Scheme::ReplicationTraditional).bind(&b);
        for faults in [
            &[][..],
            &[FaultPlan {
                row: 1,
                col: 1,
                after_step: 5,
                kind: FaultKind::BitFlip(30),
            }][..],
        ] {
            let f = fast.run(&engine, &a, faults);
            let h = hooked.run(&engine, &a, faults);
            let fb: Vec<u32> = f.output.c.iter().map(|v| v.to_bits()).collect();
            let hb: Vec<u32> = h.output.c.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, hb, "paths diverged on {m}x{n}x{k}");
        }
    }
}

/// (dtype, m, n, k, seed, clean hash, faulted hash) — the non-fp16
/// precision pins: one bf16 and one fp8 shape, hashed by the scalar
/// reference walk over dtype-decoded operands. One scheme per family
/// (thread-level, replication, global) must reproduce them, proving
/// the decoded-f32 panel currency keeps every family's math identical
/// across storage formats.
const GOLDEN_DTYPE: &[(aiga_gpu::engine::Dtype, usize, usize, usize, u64, u64, u64)] = &[
    (
        aiga_gpu::engine::Dtype::Bf16,
        48,
        40,
        56,
        1034,
        0xbfeb79d3dbe6b11a,
        0xe16798225d9fdb0e,
    ),
    (
        aiga_gpu::engine::Dtype::Fp8E4M3,
        32,
        32,
        32,
        1017,
        0x2da8c99718dfffac,
        0x29ac2c01261e00a5,
    ),
];

#[test]
fn every_scheme_family_reproduces_the_canonical_outputs_per_dtype() {
    const FAMILY_REPS: [Scheme; 4] = [
        Scheme::Unprotected,
        Scheme::ThreadLevelTwoSided,
        Scheme::ReplicationTraditional,
        Scheme::GlobalAbft,
    ];
    let reg = registry::shared();
    for &(dtype, m, n, k, seed, clean_hash, dirty_hash) in GOLDEN_DTYPE {
        let a = Matrix::random_dtype(m, k, seed, dtype);
        let b = Matrix::random_dtype(k, n, seed + 1, dtype);
        let engine = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
        let fault = mid_fault(m, n);
        for &scheme in &FAMILY_REPS {
            let bound = reg.resolve(scheme).bind(&b);
            let clean = bound.run(&engine, &a, &[]);
            assert_eq!(
                fnv1a_of_c(&clean.output.c),
                clean_hash,
                "{scheme} clean {dtype} output drifted on {m}x{n}x{k}"
            );
            let dirty = bound.run(&engine, &a, &[fault]);
            assert_eq!(
                fnv1a_of_c(&dirty.output.c),
                dirty_hash,
                "{scheme} faulted {dtype} output drifted on {m}x{n}x{k}"
            );
        }
    }
}

/// The thread-level schemes, whose per-lane verdicts carry provenance.
const THREAD_SCHEMES: [Scheme; 4] = [
    Scheme::ThreadLevelOneSided,
    Scheme::ThreadLevelTwoSided,
    Scheme::ReplicationSingleAcc,
    Scheme::ReplicationTraditional,
];

/// FNV-1a over every detection's `(block, warp, lane, residual bits,
/// threshold bits)` of one scheme's faulted runs: the golden shapes
/// under a mid-walk and an epilogue fault, plus the bf16/fp8 pins under
/// the mid-walk fault. Pins what the output hashes cannot see — that
/// verdicts, their residuals, thresholds and detection order stay
/// bit-identical across changes to how a scheme computes its checks.
fn verdict_hash(scheme: Scheme) -> u64 {
    let reg = registry::shared();
    let mut h = 0xcbf29ce484222325u64;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    let mut runs: Vec<(Matrix, Matrix, FaultPlan)> = Vec::new();
    for &(m, n, k, seed, _, _) in GOLDEN {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let epilogue = FaultPlan {
            row: m / 3,
            col: n - 1,
            after_step: u64::MAX,
            kind: FaultKind::BitFlip(27),
        };
        runs.push((a.clone(), b.clone(), mid_fault(m, n)));
        runs.push((a, b, epilogue));
    }
    for &(dtype, m, n, k, seed, _, _) in GOLDEN_DTYPE {
        let a = Matrix::random_dtype(m, k, seed, dtype);
        let b = Matrix::random_dtype(k, n, seed + 1, dtype);
        runs.push((a, b, mid_fault(m, n)));
    }
    for (a, b, fault) in &runs {
        let shape = GemmShape::new(a.rows as u64, b.cols as u64, a.cols as u64);
        let engine = GemmEngine::with_default_tiling(shape);
        let report = reg.resolve(scheme).bind(b).run(&engine, a, &[*fault]);
        feed(report.output.detections.len() as u64);
        for d in &report.output.detections {
            feed(d.block.0);
            feed(d.block.1);
            feed(d.warp);
            feed(d.lane as u64);
            feed(d.residual.to_bits());
            feed(d.threshold.to_bits());
        }
    }
    h
}

/// (scheme, verdict hash) — recorded before the one-sided scheme's
/// checks moved to shared per-GEMM/per-block passes.
const VERDICT_GOLDEN: &[(Scheme, u64)] = &[
    (Scheme::ThreadLevelOneSided, 0x0d82b2f0f090b818),
    (Scheme::ThreadLevelTwoSided, 0xaeee87c95f877f89),
    (Scheme::ReplicationSingleAcc, 0xc9131ffe2d5c4ff7),
    (Scheme::ReplicationTraditional, 0xb6f80507d6324a61),
];

#[test]
fn thread_level_verdicts_reproduce_their_golden_bits() {
    for &scheme in &THREAD_SCHEMES {
        let want = VERDICT_GOLDEN.iter().find(|(s, _)| *s == scheme).unwrap().1;
        let got = verdict_hash(scheme);
        assert_eq!(got, want, "{scheme} verdict bits drifted: {got:#018x}");
    }
}

/// FNV-1a over global ABFT's `(detected, residual bits, threshold
/// bits)` for the golden shapes — clean, under the mid-walk fault, and
/// under an epilogue bit flip — plus one implicit-GEMM conv (a strided,
/// padded `Im2col` view, so the activation checksum reads padding taps).
/// Pins the verdict bits that the output hashes cannot see, however the
/// activation checksum and `Σ C` are computed.
fn global_verdict_hash() -> u64 {
    use aiga_core::kernel::Verdict;
    use aiga_core::schemes::GlobalAbft;
    use aiga_gpu::engine::{Im2colView, NoScheme, Workspace};
    let reg = registry::shared();
    let mut h = 0xcbf29ce484222325u64;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    let mut runs: Vec<(Matrix, Matrix, Vec<FaultPlan>)> = Vec::new();
    for &(m, n, k, seed, _, _) in GOLDEN {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let epilogue = FaultPlan {
            row: m / 3,
            col: n - 1,
            after_step: u64::MAX,
            kind: FaultKind::BitFlip(27),
        };
        runs.push((a.clone(), b.clone(), vec![]));
        runs.push((a.clone(), b.clone(), vec![mid_fault(m, n)]));
        runs.push((a, b, vec![epilogue]));
    }
    let view = Im2colView {
        channels: 3,
        height: 9,
        width: 9,
        kernel: 3,
        stride: 2,
        padding: 1,
        out_h: 5,
        out_w: 5,
    };
    let images = 2;
    let t = Matrix::random(1, images * 3 * 9 * 9, 1101);
    let a = Matrix::im2col_lowered(images, view, t.data);
    let b = Matrix::random(view.cols(), 16, 1102);
    runs.push((a.clone(), b.clone(), vec![]));
    runs.push((a, b, vec![mid_fault(view.rows(images), 16)]));
    for (a, b, faults) in &runs {
        let shape = GemmShape::new(a.rows as u64, b.cols as u64, a.cols as u64);
        let engine = GemmEngine::with_default_tiling(shape);
        let out = engine.run_multi(a, b, || NoScheme, faults);
        let v = GlobalAbft::prepare(b).verify(a, &out);
        feed(v.fault_detected as u64);
        feed(v.residual.to_bits());
        feed(v.threshold.to_bits());
        // The workspace hot path must reach the same verdict bits.
        let mut ws = Workspace::new();
        let hot = reg.resolve(Scheme::GlobalAbft).bind(b);
        match hot.run_into(&engine, a, faults, &mut ws) {
            Verdict::Detected {
                residual,
                threshold,
            } => {
                feed(residual.to_bits());
                feed(threshold.to_bits());
            }
            other => assert!(other.is_clean(), "{other:?}"),
        }
    }
    h
}

/// Recorded before global ABFT read its checksums from the staged panels.
const GLOBAL_VERDICT_GOLDEN: u64 = 0x2d4434a9fbe87af0;

#[test]
fn global_verdicts_reproduce_their_golden_bits() {
    let got = global_verdict_hash();
    assert_eq!(
        got, GLOBAL_VERDICT_GOLDEN,
        "global verdict bits drifted: {got:#018x}"
    );
}

/// Several faults on one cell — two mid-walk steps and two epilogue
/// strikes, interleaved in the plan list — plus one fault in another
/// block, so the per-cell order (mid-walk in step order, then epilogue
/// in list order) is pinned.
fn stacked_faults(m: usize, n: usize) -> Vec<FaultPlan> {
    let (r, c) = (m / 2, n / 3);
    vec![
        FaultPlan {
            row: r,
            col: c,
            after_step: 5,
            kind: FaultKind::AddValue(3.0),
        },
        FaultPlan {
            row: r,
            col: c,
            after_step: u64::MAX,
            kind: FaultKind::BitFlip(27),
        },
        FaultPlan {
            row: r,
            col: c,
            after_step: 2,
            kind: FaultKind::BitFlip(20),
        },
        FaultPlan {
            row: r,
            col: c,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(-1.5),
        },
        FaultPlan {
            row: m - 1,
            col: n - 1,
            after_step: 1,
            kind: FaultKind::SetValue(7.0),
        },
    ]
}

/// FNV-1a over the workspace-path output bytes, `threads`,
/// `baseline_mmas` and `k_steps` of Unprotected and Global ABFT under
/// [`stacked_faults`], for one sequential shape and one shape large
/// enough for the block-parallel regime (run both forced sequential and
/// forced onto 3 stripe workers).
fn fault_pass_hash(scheme: Scheme) -> u64 {
    use aiga_gpu::engine::{force_block_workers, Workspace};
    let reg = registry::shared();
    let mut h = 0xcbf29ce484222325u64;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &(m, n, k, seed, workers) in &[
        (48usize, 40usize, 56usize, 1201u64, None),
        (256, 256, 256, 1202, Some(1)),
        (256, 256, 256, 1202, Some(3)),
    ] {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let engine = GemmEngine::with_default_tiling(GemmShape::new(m as u64, n as u64, k as u64));
        let bound = reg.resolve(scheme).bind(&b);
        let mut ws = Workspace::new();
        force_block_workers(workers);
        bound.run_into(&engine, &a, &stacked_faults(m, n), &mut ws);
        force_block_workers(None);
        let out = ws.output();
        feed(fnv1a_of_c(&out.c));
        feed(out.counters.threads);
        feed(out.counters.baseline_mmas);
        feed(out.counters.k_steps);
    }
    h
}

/// (scheme, fault-pass hash) — recorded before faults moved into one
/// per-block pass ahead of the lanes.
const FAULT_PASS_GOLDEN: &[(Scheme, u64)] = &[
    (Scheme::Unprotected, 0x844ed6c332fc991c),
    (Scheme::GlobalAbft, 0x844ed6c332fc991c),
];

#[test]
fn stacked_faults_reproduce_their_golden_bytes_and_counters() {
    for &(scheme, want) in FAULT_PASS_GOLDEN {
        let got = fault_pass_hash(scheme);
        assert_eq!(got, want, "{scheme} fault-pass bytes drifted: {got:#018x}");
    }
}
