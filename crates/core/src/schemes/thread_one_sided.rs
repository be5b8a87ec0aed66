//! One-sided thread-level ABFT (§5.2.2) — the scheme intensity-guided
//! ABFT deploys on bandwidth-bound layers.
//!
//! Per K-step, the thread generates a checksum only for its `Bt` chunk
//! (one FP16 row-sum per k-lane, on traditional ALUs) and multiplies the
//! *entirety* of its `At` chunk by that checksum on Tensor Cores —
//! `Mt/2` extra MMAs and `O(Nt)` checksum ops per step (Table 1). The
//! running ABFT results are `Mt` per-row sums; at the end the thread
//! compares each against the row sum of its own accumulators. Everything
//! reuses the loads the thread already performed: zero extra memory
//! traffic (the §3.5 design principle).
//!
//! [`ThreadLocalScheme::on_k_step`] is that per-step arithmetic, and the
//! replay oracle. On the host the scheme opts into the engine's shared
//! passes instead ([`ThreadLocalScheme::uses_row_checksums`]): each
//! column group's B checksums are built once per GEMM and each row's
//! running sums once per block, with the same operations in the same
//! order, so a lane only picks up its `Mt` finished values.

use crate::tolerance::Tolerance;
use aiga_dtype::Dtype;
use aiga_gpu::engine::{
    KStep, LaneWalk, SchemeCounters, ThreadCtx, ThreadLocalScheme, ThreadVerdict,
};
use aiga_gpu::tiling::MAX_THREAD_MT;

/// Per-thread state of one-sided thread-level ABFT.
///
/// The running checksums live in fixed-size arrays bounded by the
/// register-file limit on thread tiles ([`MAX_THREAD_MT`]) — exactly as
/// the real kernel keeps them in registers — so constructing one
/// instance per simulated thread never touches the heap.
#[derive(Clone, Debug)]
pub struct OneSidedThreadAbft {
    tolerance: Tolerance,
    /// Running ABFT outputs: `abft[i] ≈ Σ_k At[i][k] · (Σ_j Bt[k][j])`.
    abft: [f32; MAX_THREAD_MT],
    /// Running `Σ_k |At[i][k]| · Σ_j |Bt[k][j]|` for the error bound.
    magnitude: [f64; MAX_THREAD_MT],
    steps: u64,
    /// Storage dtype of the GEMM being verified, captured per K-step —
    /// selects the checksum chain's arithmetic ([`Dtype::chain_add`]) and
    /// its unit roundoff in the detection threshold.
    dtype: Dtype,
    counters: SchemeCounters,
}

impl OneSidedThreadAbft {
    /// Creates a scheme instance with the default analytical tolerance.
    pub fn new() -> Self {
        Self::with_tolerance(Tolerance::Analytical)
    }

    /// Creates a scheme instance with an explicit tolerance policy.
    pub fn with_tolerance(tolerance: Tolerance) -> Self {
        OneSidedThreadAbft {
            tolerance,
            abft: [0.0; MAX_THREAD_MT],
            magnitude: [0.0; MAX_THREAD_MT],
            steps: 0,
            dtype: Dtype::F16,
            counters: SchemeCounters::default(),
        }
    }
}

impl Default for OneSidedThreadAbft {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadLocalScheme for OneSidedThreadAbft {
    fn begin(&mut self, ctx: &ThreadCtx) {
        debug_assert!(ctx.rows.len() <= MAX_THREAD_MT);
        self.abft.fill(0.0);
        self.magnitude.fill(0.0);
        self.steps = 0;
        self.counters = SchemeCounters::default();
    }

    fn on_k_step(&mut self, step: &KStep<'_>) {
        let (mt, nt) = (step.mt, step.nt);
        self.dtype = step.dtype;
        // Row checksums of the Bt chunk, one per k-lane, generated with
        // sequential adds in the dtype's checksum-chain format (the HADD2
        // path for fp16) — [`Dtype::chain_add`] rounds each partial sum
        // exactly as the hardware chain would; the magnitude bound reads
        // the engine's pre-decoded values.
        let mut w = [0.0f32; 2];
        let mut w_abs = [0.0f64; 2];
        for lane in 0..2 {
            let row_f32 = &step.b_f32[lane * nt..(lane + 1) * nt];
            let mut sum = 0.0f32;
            for &v in row_f32 {
                sum = self.dtype.chain_add(sum, v);
                w_abs[lane] += (v as f64).abs();
            }
            w[lane] = sum;
        }
        // The redundant MMAs: multiply the whole At chunk by the checksum
        // (low-precision products, FP32 accumulation — same datapath as
        // the MMA).
        let w0 = w[0];
        let w1 = w[1];
        for i in 0..mt {
            let a0 = step.a_f32[i * 2];
            let a1 = step.a_f32[i * 2 + 1];
            self.abft[i] += a0 * w0 + a1 * w1;
            self.magnitude[i] += (a0 as f64).abs() * w_abs[0] + (a1 as f64).abs() * w_abs[1];
        }
        self.steps += 1;
        self.counters.extra_mmas += (mt as u64) / 2;
        self.counters.checksum_ops += (nt as u64) / 2;
    }

    // Only the pre-decoded views are consumed, so the engine never
    // stages the raw FP16 panels for this scheme.
    fn uses_raw_fragments(&self) -> bool {
        false
    }

    // The per-step product above is shared work: the engine builds each
    // column group's B chains once per GEMM and each row's running sums
    // once per block, operation for operation as `on_k_step` would.
    fn uses_row_checksums(&self) -> bool {
        true
    }

    /// Takes the lane's finished running checksums from the engine's
    /// shared passes (see [`Self::uses_row_checksums`]) — bit-identical
    /// to replaying [`Self::on_k_step`] over every K-step (pinned by
    /// test) — and books the same counters the replay would.
    fn walk_lane(&mut self, walk: &LaneWalk<'_>) {
        let (mt, nt) = (walk.rows.len(), walk.cols.len());
        assert_eq!(walk.row_abft.len(), mt, "row checksums must be staged");
        self.dtype = walk.dtype;
        self.abft[..mt].copy_from_slice(walk.row_abft);
        self.magnitude[..mt].copy_from_slice(walk.row_magnitude);
        self.steps += walk.k_steps;
        self.counters.extra_mmas += walk.k_steps * ((mt as u64) / 2);
        self.counters.checksum_ops += walk.k_steps * ((nt as u64) / 2);
    }

    fn finalize(&mut self, _ctx: &ThreadCtx, acc: &[f32], mt: usize, nt: usize) -> ThreadVerdict {
        let mut worst = ThreadVerdict::clean();
        for i in 0..mt {
            let row_sum: f64 = acc[i * nt..(i + 1) * nt].iter().map(|&v| v as f64).sum();
            let residual = (row_sum - self.abft[i] as f64).abs();
            // Low-precision rounds: Nt-term B-checksum per step at the
            // chain's unit roundoff; FP32 rounds: the two running
            // accumulations plus the final row sum.
            let rounds_lp = nt as f64;
            let rounds32 = (2 * self.steps) as f64 + nt as f64;
            let threshold = self.tolerance.threshold_lp(
                rounds_lp,
                self.dtype.chain_unit(),
                rounds32,
                self.magnitude[i],
            );
            if residual > threshold && residual > worst.residual {
                worst = ThreadVerdict {
                    fault_detected: true,
                    residual,
                    threshold,
                };
            } else if !worst.fault_detected && residual > worst.residual {
                worst = ThreadVerdict {
                    fault_detected: false,
                    residual,
                    threshold,
                };
            }
        }
        worst
    }

    fn counters(&self) -> SchemeCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::{replay_walk, FaultKind, FaultPlan, GemmEngine, Matrix, Workspace};
    use aiga_gpu::{GemmShape, TilingConfig};
    use std::sync::{Arc, Mutex};

    fn engine() -> GemmEngine {
        GemmEngine::new(
            GemmShape::new(32, 32, 64),
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
    fn clean_run_raises_no_detection() {
        let a = Matrix::random(32, 64, 21);
        let b = Matrix::random(64, 32, 22);
        let out = engine().run(&a, &b, OneSidedThreadAbft::new, None);
        assert!(!out.fault_detected(), "{:?}", out.detections.first());
    }

    #[test]
    fn detects_an_injected_additive_fault() {
        let a = Matrix::random(32, 64, 23);
        let b = Matrix::random(64, 32, 24);
        let fault = FaultPlan {
            row: 10,
            col: 3,
            after_step: 7,
            kind: FaultKind::AddValue(64.0),
        };
        let out = engine().run(&a, &b, OneSidedThreadAbft::new, Some(fault));
        assert!(out.fault_detected());
        // Exactly one thread owns the element, so exactly one detection.
        assert_eq!(out.detections.len(), 1);
        assert!(out.detections[0].residual > out.detections[0].threshold);
    }

    #[test]
    fn detects_exponent_bit_flips() {
        let a = Matrix::random(32, 64, 25);
        let b = Matrix::random(64, 32, 26);
        for bit in [23u8, 25, 28, 30] {
            let fault = FaultPlan {
                row: 1,
                col: 1,
                after_step: u64::MAX,
                kind: FaultKind::BitFlip(bit),
            };
            let out = engine().run(&a, &b, OneSidedThreadAbft::new, Some(fault));
            assert!(out.fault_detected(), "bit {bit} escaped detection");
        }
    }

    #[test]
    fn counters_match_table_1() {
        let a = Matrix::random(32, 64, 27);
        let b = Matrix::random(64, 32, 28);
        let out = engine().run(&a, &b, OneSidedThreadAbft::new, None);
        let t = engine().tiling();
        let steps = out.counters.threads * out.counters.k_steps;
        assert_eq!(out.counters.scheme.extra_mmas, steps * t.thread_mt() / 2);
        assert_eq!(out.counters.scheme.checksum_ops, steps * t.thread_nt() / 2);
    }

    #[test]
    fn fused_walk_is_bit_identical_to_the_replayed_walk() {
        // A wrapper that inherits the trait's default `walk_lane` (the
        // per-step fragment replay) while delegating every hook to a
        // real one-sided instance: running both against the same GEMM
        // pins the shared-pass path to the replay bit for bit —
        // verdicts, residuals, thresholds, and counters.
        struct ReplayOnly(OneSidedThreadAbft);
        impl ThreadLocalScheme for ReplayOnly {
            fn begin(&mut self, ctx: &ThreadCtx) {
                self.0.begin(ctx)
            }
            fn on_k_step(&mut self, step: &KStep<'_>) {
                self.0.on_k_step(step)
            }
            fn finalize(
                &mut self,
                ctx: &ThreadCtx,
                acc: &[f32],
                mt: usize,
                nt: usize,
            ) -> ThreadVerdict {
                self.0.finalize(ctx, acc, mt, nt)
            }
            fn counters(&self) -> SchemeCounters {
                self.0.counters()
            }
        }
        let a = Matrix::random(32, 64, 31);
        let b = Matrix::random(64, 32, 32);
        for fault in [
            None,
            Some(FaultPlan {
                row: 5,
                col: 11,
                after_step: 3,
                kind: FaultKind::AddValue(48.0),
            }),
        ] {
            let fused = engine().run(&a, &b, OneSidedThreadAbft::new, fault);
            let replayed = engine().run(&a, &b, || ReplayOnly(OneSidedThreadAbft::new()), fault);
            assert_eq!(fused.c, replayed.c);
            assert_eq!(fused.detections.len(), replayed.detections.len());
            for (f, r) in fused.detections.iter().zip(&replayed.detections) {
                assert_eq!(f.residual.to_bits(), r.residual.to_bits());
                assert_eq!(f.threshold.to_bits(), r.threshold.to_bits());
                assert_eq!((f.block, f.warp, f.lane), (r.block, r.warp, r.lane));
            }
            assert_eq!(fused.counters.scheme, replayed.counters.scheme);
        }
    }

    /// One lane's full check state at `finalize`: identity, the bits of
    /// every owned row's running checksum and magnitude, the step count,
    /// and the real verdict's flag and bits.
    #[derive(Debug, PartialEq)]
    struct LaneState {
        id: ((u64, u64), u64, usize),
        abft: Vec<u32>,
        magnitude: Vec<u64>,
        steps: u64,
        verdict: (bool, u64, u64),
    }

    /// A real one-sided instance that takes either the engine's shared
    /// passes (`staged`) or the per-step `on_k_step` replay, logging
    /// every lane's [`LaneState`].
    struct Logged {
        inner: OneSidedThreadAbft,
        staged: bool,
        log: Arc<Mutex<Vec<LaneState>>>,
    }

    impl ThreadLocalScheme for Logged {
        fn uses_raw_fragments(&self) -> bool {
            !self.staged
        }
        fn uses_row_checksums(&self) -> bool {
            self.staged
        }
        fn begin(&mut self, ctx: &ThreadCtx) {
            self.inner.begin(ctx)
        }
        fn on_k_step(&mut self, step: &KStep<'_>) {
            self.inner.on_k_step(step)
        }
        fn walk_lane(&mut self, walk: &LaneWalk<'_>) {
            if self.staged {
                self.inner.walk_lane(walk)
            } else {
                replay_walk(&mut self.inner, walk)
            }
        }
        fn finalize(
            &mut self,
            ctx: &ThreadCtx,
            acc: &[f32],
            mt: usize,
            nt: usize,
        ) -> ThreadVerdict {
            let v = self.inner.finalize(ctx, acc, mt, nt);
            self.log.lock().unwrap().push(LaneState {
                id: (ctx.block, ctx.warp, ctx.lane),
                abft: self.inner.abft[..mt].iter().map(|x| x.to_bits()).collect(),
                magnitude: self.inner.magnitude[..mt]
                    .iter()
                    .map(|x| x.to_bits())
                    .collect(),
                steps: self.inner.steps,
                verdict: (
                    v.fault_detected,
                    v.residual.to_bits(),
                    v.threshold.to_bits(),
                ),
            });
            v
        }
        fn counters(&self) -> SchemeCounters {
            self.inner.counters()
        }
    }

    /// Runs the GEMM once through the shared passes (the workspace hot
    /// path, reusing `ws`) and once through the per-step replay (the
    /// allocating path), and asserts the two agree bit for bit: output,
    /// detections in order with their residual/threshold bits, counters,
    /// and every lane's state. NaN checksums (a chain overflowed and met
    /// a zero) compare as equal whatever their payload — a NaN never
    /// reaches a verdict.
    fn assert_staged_matches_replay(
        engine: &GemmEngine,
        a: &Matrix,
        b: &Matrix,
        faults: &[FaultPlan],
        ws: &mut Workspace,
        label: &str,
    ) {
        let run = |staged: bool, ws: &mut Workspace| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let make = || Logged {
                inner: OneSidedThreadAbft::new(),
                staged,
                log: log.clone(),
            };
            let out = if staged {
                engine.run_multi_into(a, b, make, faults, ws).clone()
            } else {
                engine.run_multi(a, b, make, faults)
            };
            let mut lanes = std::mem::take(&mut *log.lock().unwrap());
            lanes.sort_by_key(|l| l.id);
            (out, lanes)
        };
        let (staged, staged_lanes) = run(true, ws);
        let (replayed, replayed_lanes) = run(false, ws);
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&staged.c), bits(&replayed.c), "{label}: output");
        assert_eq!(
            staged.detections.len(),
            replayed.detections.len(),
            "{label}"
        );
        for (s, r) in staged.detections.iter().zip(&replayed.detections) {
            assert_eq!(
                (s.block, s.warp, s.lane),
                (r.block, r.warp, r.lane),
                "{label}"
            );
            assert_eq!(s.residual.to_bits(), r.residual.to_bits(), "{label}");
            assert_eq!(s.threshold.to_bits(), r.threshold.to_bits(), "{label}");
        }
        assert_eq!(staged.counters.scheme, replayed.counters.scheme, "{label}");
        assert_eq!(
            staged.counters.threads, replayed.counters.threads,
            "{label}"
        );
        assert_eq!(staged_lanes.len(), replayed_lanes.len(), "{label}");
        for (s, r) in staged_lanes.iter().zip(&replayed_lanes) {
            let same = s.abft.iter().zip(&r.abft).all(|(&x, &y)| {
                x == y || (f32::from_bits(x).is_nan() && f32::from_bits(y).is_nan())
            });
            assert!(
                same,
                "{label}: lane {:?} abft {:?} vs {:?}",
                s.id, s.abft, r.abft
            );
            assert_eq!(s.magnitude, r.magnitude, "{label}: lane {:?}", s.id);
            assert_eq!(
                (s.id, s.steps, s.verdict),
                (r.id, r.steps, r.verdict),
                "{label}"
            );
        }
    }

    #[test]
    fn staged_checks_match_the_replay_across_tilings_dtypes_and_faults() {
        // Every tiling candidate × storage dtype × padded odd shape,
        // clean and under a mid-walk and an epilogue fault; one
        // workspace carries all the staged runs, so the ratcheting
        // chain and row buffers are re-armed across shapes too.
        let mut ws = Workspace::new();
        for tiling in TilingConfig::candidates() {
            for dtype in Dtype::ALL {
                for &(m, n, k, seed) in &[(17usize, 9usize, 11usize, 90u64), (70, 136, 40, 91)] {
                    let a = Matrix::random_dtype(m, k, seed, dtype);
                    let b = Matrix::random_dtype(k, n, seed + 1, dtype);
                    let engine =
                        GemmEngine::new(GemmShape::new(m as u64, n as u64, k as u64), tiling);
                    let mid = FaultPlan {
                        row: m / 2,
                        col: n - 2,
                        after_step: 2,
                        kind: FaultKind::AddValue(40.0),
                    };
                    let epilogue = FaultPlan {
                        row: m - 1,
                        col: n / 3,
                        after_step: u64::MAX,
                        kind: FaultKind::BitFlip(27),
                    };
                    for faults in [&[][..], &[mid][..], &[epilogue][..]] {
                        let label = format!("{tiling:?} {dtype} {m}x{n}x{k} {faults:?}");
                        assert_staged_matches_replay(&engine, &a, &b, faults, &mut ws, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn staged_checks_match_the_replay_in_the_block_parallel_regime() {
        // 256×128×512 clears BLOCK_PAR_MIN_FLOPS with ≥ 2 block-row
        // stripes under every tiling; forcing 3 workers runs the row
        // pass inside the stripe workers even on a single-core runner.
        let (m, n, k) = (256usize, 128usize, 512usize);
        let a = Matrix::random(m, k, 92);
        let b = Matrix::random(k, n, 93);
        let faults = [
            FaultPlan {
                row: 200,
                col: 17,
                after_step: 5,
                kind: FaultKind::AddValue(96.0),
            },
            FaultPlan {
                row: 3,
                col: 100,
                after_step: u64::MAX,
                kind: FaultKind::BitFlip(28),
            },
        ];
        let mut ws = Workspace::new();
        aiga_gpu::engine::force_block_workers(Some(3));
        for tiling in TilingConfig::candidates() {
            let engine = GemmEngine::new(GemmShape::new(m as u64, n as u64, k as u64), tiling);
            for faults in [&[][..], &faults[..]] {
                let label = format!("{tiling:?} parallel {faults:?}");
                assert_staged_matches_replay(&engine, &a, &b, faults, &mut ws, &label);
            }
        }
        aiga_gpu::engine::force_block_workers(None);
    }

    #[test]
    fn staged_chains_are_bit_identical_on_adversarial_values() {
        // The staged B chains and the block row pass must agree with the
        // per-step `on_k_step` replay on the values where a wrong
        // rounding or a reordered operation would hide: fp16
        // subnormals, quantum-boundary ties, the 65504/65520 overflow
        // edge, signed zeros, and sign cancellations.
        use aiga_fp16::F16;
        let specials = [
            0x0000u16, 0x8000, // ±0
            0x0001, 0x03ff, 0x8001, // subnormals
            0x0400, 0x8400, // smallest normals
            0x3c00, 0xbc00, 0x3c01, // ±1, 1+ulp
            0x57ff, 0xd800, // near the 128 quantum step
            0x7bff, 0xfbff, // ±65504
            0x7800, 0xf800, // ±32768 (chains toward overflow)
        ];
        let mut state = 12345u32;
        let mut fill = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if (r + c) % 3 == 0 {
                    F16::from_bits(specials[(state >> 8) as usize % specials.len()])
                } else {
                    F16::from_f32(((state >> 16) as f32 - 32768.0) / 256.0)
                }
            })
        };
        let (m, n, k) = (40usize, 72usize, 64usize);
        let a = fill(m, k);
        let b = fill(k, n);
        let mut ws = Workspace::new();
        for tiling in TilingConfig::candidates() {
            let engine = GemmEngine::new(GemmShape::new(m as u64, n as u64, k as u64), tiling);
            let label = format!("{tiling:?} adversarial");
            assert_staged_matches_replay(&engine, &a, &b, &[], &mut ws, &label);
        }
    }

    #[test]
    fn detection_localizes_to_the_owning_thread_rows() {
        // One-sided ABFT checks per accumulator row: a fault in row r is
        // flagged by the thread owning row r.
        let a = Matrix::random(32, 64, 29);
        let b = Matrix::random(64, 32, 30);
        let fault = FaultPlan {
            row: 9,
            col: 20,
            after_step: 0,
            kind: FaultKind::SetValue(1000.0),
        };
        let out = engine().run(&a, &b, OneSidedThreadAbft::new, Some(fault));
        assert_eq!(out.detections.len(), 1);
        let d = &out.detections[0];
        // Row 9: group = 9 - 8 = 1 in the upper-half granule => lanes 4..8.
        assert!(d.lane / 4 == 1, "lane {}", d.lane);
    }
}
