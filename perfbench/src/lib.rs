//! Benchmark support for the `perfbench` binary: quantiles, spans,
//! open-loop accounting, seeded inputs and the result stamp. The binary
//! (`src/main.rs`) runs the workloads; everything here is pure enough
//! to unit-test in `tests/`.

pub mod inputs;
pub mod openloop;
pub mod stamp;
pub mod stats;
pub mod trace;
