//! `squeezenet224_b1`: one closed-loop client sends seeded 224×224
//! images through `Session::serve`, round-robin over the planned,
//! uniform-global and unprotected configurations, at batch 1.

use crate::common::*;
use aiga::prelude::*;
use aiga_perfbench::inputs;
use aiga_perfbench::trace::Trace;
use std::time::{Duration, Instant};

/// |got − want| ≤ TOL + TOL·|want| against the f64 reference (the
/// tolerance `tests/compiled_models.rs` holds SqueezeNet-1.1 to).
const TOL: f64 = 4e-2;

fn session(cfg: Cfg) -> Session {
    Session::builder_network(
        cfg.planner(),
        format!("squeezenet224-{}", cfg.name()),
        squeeze_net,
    )
    .buckets([1])
    .build()
}

pub fn run(seed: u64, seconds: f64, tr: &mut Trace) -> Res<RunResult> {
    let warm = inputs::image(seed, u64::MAX);

    // Set-up: build, plan and compile every configuration, then one
    // warm-up request each.
    let (sessions, setups) = set_up(|| warm_sessions(tr, &CFGS, 1, &warm, session))?;

    // Timed closed loop. In a traced run every other round records its
    // spans, so the run measures its own tracing overhead.
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut traced_lat = (Vec::new(), Vec::new());
    let mut outputs: Vec<[Vec<u32>; 3]> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < budget {
        let img = inputs::image(seed, i);
        let traced = tr.enabled() && i.is_multiple_of(2);
        let mut outs: [Vec<u32>; 3] = Default::default();
        for (c, s) in sessions.iter().enumerate() {
            attempted += 1;
            let t = Instant::now();
            let r = s.serve(&img);
            let end = Instant::now();
            if traced {
                let name = format!("session.serve.{}", CFGS[c].name());
                tr.record(&name, None, i * 3 + c as u64, t, end);
            }
            match r {
                Ok(r) => {
                    if r.report.fault_detected() || r.report.fault_corrected() {
                        return Err(format!(
                            "image {i}: {} flagged a fault on a clean request",
                            CFGS[c].name()
                        ));
                    }
                    let l = ms(end - t);
                    lat[c].push(l);
                    if c == 0 && tr.enabled() {
                        if traced {
                            &mut traced_lat.0
                        } else {
                            &mut traced_lat.1
                        }
                        .push(l);
                    }
                    outs[c] = bits(&r.report.output);
                }
                Err(_) => failed += 1,
            }
        }
        outputs.push(outs);
        i += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    // Correctness, outside the timed loop: the three configurations
    // agree byte for byte on every image, and the first and last
    // images match the f64 reference.
    for (i, o) in outputs.iter().enumerate() {
        if o[0] != o[1] || o[0] != o[2] {
            return Err(format!("image {i}: configurations disagree byte-wise"));
        }
    }
    let net = squeeze_net(1);
    for idx in [0, outputs.len() - 1] {
        let want = net.reference_f64(&inputs::image(seed, idx as u64));
        let got = &outputs[idx][0];
        if got.len() != want.len() {
            return Err(format!(
                "image {idx}: output length differs from the reference"
            ));
        }
        for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
            let g = f32::from_bits(g) as f64;
            let err = (g - w).abs();
            if err.is_nan() || err > TOL + TOL * w.abs() {
                return Err(format!("image {idx} elem {j}: got {g}, reference {w}"));
            }
        }
    }

    let s: Vec<_> = CFGS
        .iter()
        .zip(&lat)
        .map(|(c, l)| summary(c.name(), l))
        .collect::<Res<_>>()?;
    let ok = attempted - failed;
    let mut out = RunResult {
        attempted,
        failed,
        ..Default::default()
    };
    out.e2e.put("setup_s", "s", median_setup_s(&setups));
    out.e2e.put("p50_ms", "ms", s[0].p50);
    out.layer.put("tail_ms", "ms", s[0].tail);
    out.e2e.put("alt_p50_ms", "ms", s[1].p50);
    out.layer.put("alt_tail_ms", "ms", s[1].tail);
    out.e2e.put("base_p50_ms", "ms", s[2].p50);
    out.e2e.put("goodput_rps", "req/s", ok as f64 / loop_s);
    out.e2e.put("ok_frac", "frac", ok as f64 / attempted as f64);
    // Every reply passed the byte-equality gate above.
    out.e2e
        .put("exact_frac", "frac", ok as f64 / attempted as f64);
    out.e2e
        .put("trusted_frac", "frac", ok as f64 / attempted as f64);

    let stats = sessions.iter().map(|s| s.stats());
    let (builds, hits) = stats.fold((0, 0), |(b, h), s| (b + s.plan_builds, h + s.cache_hits));
    out.layer.put("session.plan_builds", "count", builds as f64);
    out.layer.put("session.cache_hits", "count", hits as f64);
    out.layer.put(
        "trace.overhead_pct",
        "pct",
        overhead_pct(&traced_lat.0, &traced_lat.1),
    );
    for (c, s) in CFGS.iter().zip(&s) {
        out.notes.push(describe(&format!("{} clean", c.name()), s));
    }
    out.notes.push(format!(
        "set-ups (s): {setups:.3?}; reference-checked images 0 and {}",
        outputs.len() - 1
    ));
    Ok(out)
}
