//! Seeded workload inputs. Everything the program receives is generated
//! here from the `--seed` argument: the same seed gives the same
//! images, rows and faults; any other seed gives other ones.

use aiga::core::pipeline::PipelineFault;
use aiga::fp16::F16;
use aiga::gpu::engine::{FaultKind, FaultPlan, Matrix};
use aiga::gpu::tiling::STEP_K;
use aiga::gpu::GemmShape;
use aiga::util::rng::Rng64;

/// Image side of the SqueezeNet workload.
pub const IMAGE_SIDE: usize = 224;
/// DLRM embedding tables, rows per table, and embedding width.
pub const DLRM_TABLES: usize = 8;
pub const DLRM_TABLE_ROWS: usize = 1000;
pub const DLRM_DIM: usize = 64;
/// DLRM request width: 13 dense features then one index per table.
pub const DLRM_FEATURES: usize = 13 + DLRM_TABLES;

/// A distinct stream of randomness per (seed, purpose, index).
fn rng(seed: u64, stream: u64, index: u64) -> Rng64 {
    Rng64::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ index.wrapping_mul(0x1656_67B1_9E37_79F9),
    )
}

/// Image `i` of a run: one flattened 3×224×224 NCHW row.
pub fn image(seed: u64, i: u64) -> Matrix {
    let mut r = rng(seed, 1, i);
    Matrix::random(1, 3 * IMAGE_SIDE * IMAGE_SIDE, r.next_u64())
}

/// `rows` DLRM request rows from stream `stream`, index `i`: dense
/// features in [-1, 1), then one valid integer index per table.
pub fn dlrm_rows(seed: u64, stream: u64, i: u64, rows: usize) -> Matrix {
    let mut r = rng(seed, 2 + stream, i);
    Matrix::from_fn(rows, DLRM_FEATURES, |_, c| {
        if c < 13 {
            F16::from_f32(r.range_f32(-1.0, 1.0))
        } else {
            F16::from_f32(r.range_u64(0, DLRM_TABLE_ROWS as u64) as f32)
        }
    })
}

/// `n` single faults over GEMM layers with the given *unpadded* shapes:
/// layer uniform, row/column uniform over the unpadded output, K-step
/// uniform over the unpadded K; even-numbered faults add a value
/// (random sign, magnitude log-uniform in [1e-2, 1e3)), odd-numbered
/// ones flip a uniform bit 0–31 of the accumulator.
pub fn fault_list(seed: u64, shapes: &[GemmShape], n: usize) -> Vec<PipelineFault> {
    let mut r = rng(seed, 100, 0);
    (0..n)
        .map(|i| {
            let layer = r.range_usize(0, shapes.len());
            let s = shapes[layer];
            let row = r.range_u64(0, s.m) as usize;
            let col = r.range_u64(0, s.n) as usize;
            let after_step = r.range_u64(0, s.k.div_ceil(STEP_K));
            let kind = if i % 2 == 0 {
                let sign = if r.gen_bool(0.5) { 1.0 } else { -1.0 };
                FaultKind::AddValue(sign * 10f32.powf(r.range_f32(-2.0, 3.0)))
            } else {
                FaultKind::BitFlip(r.range_u64(0, 32) as u8)
            };
            PipelineFault {
                layer,
                fault: FaultPlan {
                    row,
                    col,
                    after_step,
                    kind,
                },
            }
        })
        .collect()
}
