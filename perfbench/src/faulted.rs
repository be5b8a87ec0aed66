//! `dlrm_faulted`: one closed-loop client calls `serve_with_fault` on
//! bucket-8 DLRM recovery sessions, alternating the planned and the
//! uniform-global configuration; every request carries one seeded
//! fault. Outcomes of the first pass over the fault list are graded
//! bitwise against the clean reply, so they repeat exactly for a seed.

use crate::common::*;
use aiga::prelude::*;
use aiga_perfbench::inputs;
use aiga_perfbench::trace::Trace;
use std::time::{Duration, Instant};

/// Faults graded per run (half per configuration).
pub const FAULTS: usize = 800;
/// Distinct 8-row request batches; request `j` uses batch `j % POOL`.
const POOL: usize = 16;
const BUCKET: u64 = 8;
const GRADED: [Cfg; 2] = [Cfg::Planned, Cfg::Global];

fn session(cfg: Cfg) -> Session {
    Session::builder_network(cfg.planner(), format!("dlrm-{}", cfg.name()), dlrm_net)
        .buckets([BUCKET])
        .recovery(true)
        .build()
}

/// The unpadded GEMM shapes faults are drawn over.
pub fn fault_shapes() -> Vec<GemmShape> {
    dlrm_net(BUCKET)
        .to_model()
        .layers
        .iter()
        .map(|l| l.shape)
        .collect()
}

/// How one faulted request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grade {
    /// Repaired in place; the reply equals the clean reply.
    Corrected,
    /// Flagged and not repaired.
    Detected,
    /// Not flagged, and the reply equals the clean reply.
    Masked,
    /// Not flagged, and the reply differs from the clean reply.
    Unflagged,
}

pub const GRADES: [Grade; 4] = [
    Grade::Corrected,
    Grade::Detected,
    Grade::Masked,
    Grade::Unflagged,
];

impl Grade {
    pub fn name(self) -> &'static str {
        match self {
            Grade::Corrected => "corrected",
            Grade::Detected => "detected",
            Grade::Masked => "masked",
            Grade::Unflagged => "unflagged",
        }
    }
}

struct Reply {
    fault: usize,
    /// Graded replies come from the first pass over the fault list.
    graded: bool,
    corrected: bool,
    detected: bool,
    out: Vec<u32>,
}

pub fn run(seed: u64, seconds: f64, tr: &mut Trace) -> Res<RunResult> {
    let pool: Vec<Matrix> = (0..POOL as u64)
        .map(|i| inputs::dlrm_rows(seed, 1, i, BUCKET as usize))
        .collect();
    let faults = inputs::fault_list(seed, &fault_shapes(), FAULTS);

    let (sessions, setups) = set_up(|| warm_sessions(tr, &GRADED, BUCKET, &pool[0], session))?;

    // Timed closed loop over the fault list, repeated until the time is
    // up (the first pass always completes). Each planned request is
    // preceded by the same request without a fault: the base latency.
    let mut lat: [Vec<f64>; 2] = Default::default();
    let mut clean_lat = Vec::new();
    let mut traced_lat = (Vec::new(), Vec::new());
    let mut replies: [Vec<Reply>; 2] = Default::default();
    let mut clean_seen: Vec<(usize, Vec<u32>)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut req = 0u64;
    'passes: for pass in 0.. {
        for (j, f) in faults.iter().enumerate() {
            if pass > 0 && start.elapsed() >= budget {
                break 'passes;
            }
            let c = j % 2;
            let x = &pool[j % POOL];
            let traced = tr.enabled() && j % 4 < 2;
            if c == 0 {
                attempted += 1;
                let t = Instant::now();
                match sessions[0].serve(x) {
                    Ok(r) => {
                        clean_lat.push(ms_since(t));
                        clean_seen.push((j % POOL, bits(&r.report.output)));
                    }
                    Err(_) => failed += 1,
                }
            }
            attempted += 1;
            req += 1;
            let t = Instant::now();
            let r = sessions[c].serve_with_fault(x, Some(*f));
            let end = Instant::now();
            if traced {
                let name = format!("session.serve_with_fault.{}", GRADED[c].name());
                tr.record(&name, None, req, t, end);
            }
            let r = match r {
                Ok(r) => r,
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
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
            // Later passes keep only corrected replies, for the gate.
            if pass == 0 || r.report.fault_corrected() {
                replies[c].push(Reply {
                    fault: j,
                    graded: pass == 0,
                    corrected: r.report.fault_corrected(),
                    detected: r.report.fault_detected(),
                    out: bits(&r.report.output),
                });
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64();

    // Correctness, outside the timed loop. Clean replies agree across
    // configurations and with every clean reply seen in the loop; every
    // corrected reply equals its clean reply byte for byte. Anything
    // else that differs is counted as unflagged, never hidden.
    let clean: Vec<Vec<u32>> = pool
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let outs: Vec<Vec<u32>> = sessions
                .iter()
                .map(|s| {
                    let r = s.serve(x).map_err(|e| format!("clean serve {i}: {e}"))?;
                    if r.report.fault_detected() || r.report.fault_corrected() {
                        return Err(format!("clean serve {i} flagged a fault"));
                    }
                    Ok(bits(&r.report.output))
                })
                .collect::<Res<_>>()?;
            if outs[0] != outs[1] {
                return Err(format!(
                    "input {i}: clean replies differ across configurations"
                ));
            }
            Ok(outs[0].clone())
        })
        .collect::<Res<_>>()?;
    for (i, out) in &clean_seen {
        if out != &clean[*i] {
            return Err(format!("input {i}: a clean reply in the loop changed"));
        }
    }

    let mut counts = [[0u64; 4]; 2];
    for (c, rs) in replies.iter().enumerate() {
        for r in rs {
            let want = &clean[r.fault % POOL];
            if r.corrected && &r.out != want {
                return Err(format!(
                    "fault {}: {} reported a correction but the reply differs from clean",
                    r.fault,
                    GRADED[c].name()
                ));
            }
            if !r.graded {
                continue;
            }
            let g = if r.corrected {
                Grade::Corrected
            } else if r.detected {
                Grade::Detected
            } else if &r.out == want {
                Grade::Masked
            } else {
                Grade::Unflagged
            };
            counts[c][GRADES.iter().position(|&x| x == g).expect("known grade")] += 1;
        }
    }
    let graded: u64 = counts.iter().flatten().sum();
    let exact: u64 = counts.iter().map(|k| k[0] + k[2]).sum();
    let trusted: u64 = counts.iter().map(|k| k[0] + k[1] + k[2]).sum();

    let s: Vec<_> = GRADED
        .iter()
        .zip(&lat)
        .map(|(c, l)| summary(c.name(), l))
        .collect::<Res<_>>()?;
    let base = summary("planned clean", &clean_lat)?;
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
    out.e2e.put("base_p50_ms", "ms", base.p50);
    out.e2e.put("goodput_rps", "req/s", ok as f64 / loop_s);
    out.e2e.put("ok_frac", "frac", ok as f64 / attempted as f64);
    out.e2e
        .put("exact_frac", "frac", exact as f64 / graded.max(1) as f64);
    out.e2e.put(
        "trusted_frac",
        "frac",
        trusted as f64 / graded.max(1) as f64,
    );

    for (c, k) in GRADED.iter().zip(&counts) {
        for (g, n) in GRADES.iter().zip(k) {
            out.layer.put(
                format!("schemes.{}.{}", g.name(), c.name()),
                "count",
                *n as f64,
            );
        }
        let unmasked = (k[0] + k[1] + k[3]).max(1) as f64;
        out.notes.push(format!(
            "{}: corrected {} detected {} masked {} unflagged {}; covered {:.4} corrected {:.4} of unmasked",
            c.name(),
            k[0],
            k[1],
            k[2],
            k[3],
            (k[0] + k[1]) as f64 / unmasked,
            k[0] as f64 / unmasked
        ));
    }
    let stats = sessions.iter().map(|s| s.stats());
    let (builds, hits) = stats.fold((0, 0), |(b, h), s| (b + s.plan_builds, h + s.cache_hits));
    out.layer.put("session.plan_builds", "count", builds as f64);
    out.layer.put("session.cache_hits", "count", hits as f64);
    out.layer.put(
        "trace.overhead_pct",
        "pct",
        overhead_pct(&traced_lat.0, &traced_lat.1),
    );
    for (c, s) in GRADED.iter().zip(&s) {
        out.notes
            .push(describe(&format!("{} faulted", c.name()), s));
    }
    out.notes.push(describe("planned clean", &base));
    out.notes.push(format!("set-ups (s): {setups:.3?}"));
    Ok(out)
}
