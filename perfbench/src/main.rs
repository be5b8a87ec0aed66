//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <squeezenet224_b1|dlrm_open|dlrm_faulted> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from inputs generated from `--seed`, checks every
//! output, prints each metric by name with its unit, writes the result
//! (and, when traced, every span) under `.bench_out/`, and prints one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload with
//! spans plus the layer attribution of `suite.rs`, and reports the
//! per-layer metrics. A failed check exits non-zero and records
//! nothing. See `README.md` for what each metric means per workload.

mod common;
mod faulted;
mod open;
mod squeeze;
mod suite;

use aiga::util::json::Json;
use aiga_perfbench::stamp::Stamp;
use aiga_perfbench::trace::Trace;
use common::{Metrics, Res, RunResult};
use std::collections::HashMap;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["squeezenet224_b1", "dlrm_open", "dlrm_faulted"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Res<String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-layer metrics that only some workloads produce. Every traced
/// run reports all of them; a workload that bypasses a layer reports 0.
fn workload_layer_defaults() -> Metrics {
    let mut m = Metrics::default();
    for phase in ["low", "high"] {
        for (name, unit) in [
            ("submit_us", "us"),
            ("queue_wait_ms", "ms"),
            ("rows_per_pass", "rows"),
            ("bucket_fill", "frac"),
            ("max_in_flight", "count"),
            ("p50_ms", "ms"),
            ("failed", "count"),
            ("hist_p99_ms", "ms"),
            ("raw_p99_ms", "ms"),
        ] {
            m.put(format!("serve.{name}.{phase}"), unit, 0.0);
        }
    }
    m.put("gen.late_max_ms", "ms", 0.0);
    for cfg in ["planned", "global"] {
        for g in faulted::GRADES {
            m.put(format!("schemes.{}.{cfg}", g.name()), "count", 0.0);
        }
    }
    m
}

fn run(a: &Args, tr: &mut Trace) -> Res<(RunResult, Metrics)> {
    // The traced run attributes layers first, so the open loop can
    // estimate queue wait from measured pass times.
    let (suite_layer, pass_ms) = if a.trace {
        let s = suite::run(a.seed, tr);
        (s.layer, s.pass_ms)
    } else {
        (Metrics::default(), HashMap::new())
    };
    let out = match a.workload.as_str() {
        "squeezenet224_b1" => squeeze::run(a.seed, a.seconds, tr)?,
        "dlrm_open" => open::run(a.seed, a.seconds, tr, &pass_ms)?,
        "dlrm_faulted" => faulted::run(a.seed, a.seconds, tr)?,
        w => unreachable!("workload {w} was validated"),
    };
    let mut layer = suite_layer;
    for d in workload_layer_defaults().0 {
        let v = out.layer.get(&d.name).unwrap_or(d.value);
        layer.put(d.name, d.unit, v);
    }
    for m in &out.layer.0 {
        if layer.get(&m.name).is_none() {
            layer.put(m.name.clone(), m.unit, m.value);
        }
    }
    Ok((out, layer))
}

fn metrics_json(m: &Metrics) -> Json {
    Json::obj(m.0.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = Stamp::collect();
    let mut tr = Trace::new(Instant::now(), args.trace);
    let (out, layer) = match run(&args, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: check failed, nothing recorded: {e}");
            std::process::exit(1);
        }
    };
    let reported = if args.trace { &layer } else { &out.e2e };
    if let Some(m) = reported.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: metric {} is not finite ({}); nothing recorded",
            m.name, m.value
        );
        std::process::exit(1);
    }

    let spans = tr.by_name();
    let record = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("stamp", stamp.to_json()),
        ("attempted", Json::num(out.attempted as f64)),
        ("failed", Json::num(out.failed as f64)),
        ("end_to_end", metrics_json(&out.e2e)),
        ("per_layer", metrics_json(&layer)),
        (
            "notes",
            Json::Arr(out.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
        (
            "spans_by_name",
            Json::obj(spans.iter().map(|(name, s)| {
                (
                    name.clone(),
                    Json::obj([
                        ("count", Json::num(s.count as f64)),
                        ("total_ms", Json::num(s.total_ms)),
                        ("self_ms", Json::num(s.self_ms)),
                    ]),
                )
            })),
        ),
        ("spans", tr.to_json()),
    ]);
    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, record.render()))
    {
        eprintln!("perfbench: writing {}: {e}", file.display());
        std::process::exit(1);
    }

    println!(
        "stamp: {} rev={} dirty={:?} nproc={} gemm_path={} aiga_env={:?} rustc={:?}",
        stamp.label(),
        stamp.git_rev.as_deref().unwrap_or("none"),
        stamp.dirty,
        stamp.nproc,
        stamp.gemm_path.as_str(),
        stamp.aiga_env,
        stamp.rustc
    );
    println!(
        "workload {} seed {} seconds {} trace {}: attempted {} failed {}",
        args.workload, args.seed, args.seconds, args.trace as u8, out.attempted, out.failed
    );
    for n in &out.notes {
        println!("  {n}");
    }
    if args.trace {
        println!("spans (count, total ms, self ms):");
        for (name, s) in &spans {
            println!("  {name}: {} {:.3} {:.3}", s.count, s.total_ms, s.self_ms);
        }
    }
    for m in &reported.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("recorded {}", file.display());
    let last = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::num(out.attempted as f64)),
        ("failed", Json::num(out.failed as f64)),
        ("metrics", metrics_json(reported)),
    ]);
    println!("{}", last.render());
}
