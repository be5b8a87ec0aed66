//! The traced run's layer attribution: every call is timed from
//! outside through a public entry point, recorded as a span, and
//! reported as the median of its spans.
//!
//! - `graph`/`planner`/`compiled`: network build, `Planner::plan`,
//!   `CompiledModel::compile`.
//! - `engine`/`schemes`: `ProtectedGemm::run_into` replays of every
//!   planned layer at its padded shape on a warm workspace, unprotected
//!   against the chosen and the global scheme; `run_corrected_into` on
//!   a faulted layer against the clean run.
//! - `pipeline`: `CompiledModel::infer_into` on a warm workspace, for
//!   the three configurations, and the zoo triple.
//! - `session`: `Session::serve` against `infer_into` of the same
//!   compiled model.

use crate::common::*;
use crate::faulted::fault_shapes;
use aiga::prelude::*;
use aiga_perfbench::inputs;
use aiga_perfbench::stats::{median, sorted};
use aiga_perfbench::trace::Trace;
use std::collections::HashMap;
use std::time::Instant;

/// Timed repetitions per measured call (after one untimed warm-up).
const REPS: usize = 3;
/// The zoo triple times one call per network and configuration: VGG-11
/// alone takes seconds per planned pass.
const ZOO_REPS: usize = 1;
/// Alternating pass/serve pairs per DLRM bucket (a pass is ~10 ms).
const PASS_REPS: usize = 21;
/// Faulted layer replays behind `schemes.correct_ms`.
const CORRECT_FAULTS: usize = 12;

/// Executable zoo networks at the resolutions `tests/compiled_models.rs`
/// runs them.
fn zoo_nets() -> [(&'static str, Network); 5] {
    [
        ("squeezenet32_b4", zoo::squeezenet_net(4, 32, 32, 7)),
        ("squeezenet11_48_b2", zoo::squeezenet_v11_net(2, 48, 48, 9)),
        ("vgg11_32_b1", zoo::vgg11_net(1, 32, 32, 21)),
        ("resnet_block16_b4", zoo::resnet_block_net(4, 16, 16, 11)),
        ("dlrm_small_b3", zoo::dlrm_net(3, 4, 50, 16, 11)),
    ]
}

/// Times one call (ms), recording it as a span named `name`.
fn span<R>(tr: &mut Trace, name: &str, f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    let end = Instant::now();
    tr.record(name, None, 0, t, end);
    ms(end - t)
}

/// Median duration (ms) of `REPS` timed calls, each recorded as a span
/// named `name`; one untimed call first warms caches and workspaces.
fn timed<R>(tr: &mut Trace, name: &str, f: impl FnMut() -> R) -> f64 {
    timed_n(tr, name, REPS, f)
}

fn timed_n<R>(tr: &mut Trace, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let d = (0..reps).map(|_| span(tr, name, &mut f)).collect();
    median(&sorted(d))
}

/// Times `f` and `g` in adjacent pairs, `reps` pairs after one warm-up
/// call of each, so that drift in the machine's speed hits both alike.
/// Returns the median of `f` and the median of the paired differences
/// `g − f` (ms).
fn timed_pair<A, B>(
    tr: &mut Trace,
    names: [&str; 2],
    reps: usize,
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> (f64, f64) {
    std::hint::black_box((f(), g()));
    let (mut df, mut diff) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..reps {
        // Alternate which call goes first: the second of a pair runs on
        // caches the first warmed.
        let (a, b) = if i % 2 == 0 {
            let a = span(tr, names[0], &mut f);
            (a, span(tr, names[1], &mut g))
        } else {
            let b = span(tr, names[1], &mut g);
            (span(tr, names[0], &mut f), b)
        };
        diff.push(b - a);
        df.push(a);
    }
    (median(&sorted(df)), median(&sorted(diff)))
}

/// Per-layer replay of a compiled plan: unprotected, chosen-scheme and
/// global time of each layer at its planned (padded) shape.
struct Replay {
    unprotected_ms: Vec<f64>,
    chosen_ms: Vec<f64>,
    global_ms: Vec<f64>,
    flops: f64,
}

fn replay(tr: &mut Trace, tag: &str, plan: &ModelPlan, seed: u64) -> Replay {
    let mut ws = Workspace::new();
    let mut r = Replay {
        unprotected_ms: Vec::new(),
        chosen_ms: Vec::new(),
        global_ms: Vec::new(),
        flops: 0.0,
    };
    for (l, layer) in plan.layers.iter().enumerate() {
        let s = layer.shape;
        r.flops += 2.0 * (s.m * s.n * s.k) as f64;
        let mut time_under = |scheme: Scheme, what: &str| {
            let g = ProtectedGemm::random(s, scheme, seed + l as u64);
            timed(tr, &format!("{tag}.L{l:02}.{what}"), || {
                g.run_into(&[], &mut ws)
            })
        };
        let unprotected = time_under(Scheme::Unprotected, "unprotected");
        let chosen = match layer.chosen {
            Scheme::Unprotected => unprotected,
            c => time_under(c, "chosen"),
        };
        let global = match layer.chosen {
            Scheme::GlobalAbft => chosen,
            _ => time_under(Scheme::GlobalAbft, "global"),
        };
        r.unprotected_ms.push(unprotected);
        r.chosen_ms.push(chosen);
        r.global_ms.push(global);
    }
    r
}

impl Replay {
    /// Per-layer time over the unprotected replay of the same layer.
    fn extra(&self, scheme_ms: &[f64]) -> Vec<f64> {
        scheme_ms
            .iter()
            .zip(&self.unprotected_ms)
            .map(|(a, u)| a - u)
            .collect()
    }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// What the traced run's attribution measured.
pub struct Suite {
    pub layer: Metrics,
    /// Pass time (ms) of the planned DLRM model per bucket.
    pub pass_ms: HashMap<u64, f64>,
}

pub fn run(seed: u64, tr: &mut Trace) -> Suite {
    let mut m = Metrics::default();
    let planner = Cfg::Planned.planner();

    // graph / planner / compiled, and how many layers went thread-level.
    for (tag, build) in [
        ("squeezenet224", squeeze_net as fn(u64) -> Network),
        ("dlrm", dlrm_net),
    ] {
        let batch = if tag == "dlrm" { 8 } else { 1 };
        m.put(
            format!("graph.build_ms.{tag}"),
            "ms",
            timed(tr, &format!("graph.build.{tag}"), || build(batch)),
        );
        let net = build(batch);
        let model = net.to_model();
        m.put(
            format!("planner.plan_ms.{tag}"),
            "ms",
            timed(tr, &format!("planner.plan.{tag}"), || planner.plan(&model)),
        );
        m.put(
            format!("compiled.compile_ms.{tag}"),
            "ms",
            timed(tr, &format!("compiled.compile.{tag}"), || {
                CompiledModel::compile(&planner, &net)
            }),
        );
        let plan = planner.plan(&model);
        let thread = plan.layers.iter().filter(|l| l.chosen.is_thread_level());
        m.put(
            format!("planner.thread_level_layers.{tag}"),
            "count",
            thread.count() as f64,
        );
    }

    // SqueezeNet: per-layer replays against whole-pipeline passes.
    let net = squeeze_net(1);
    let img = inputs::image(seed, 0);
    let compiled: Vec<CompiledModel> = CFGS
        .iter()
        .map(|c| CompiledModel::compile(&c.planner(), &net))
        .collect();
    let rep = replay(tr, "squeezenet224", compiled[0].plan(), seed);
    for (l, u) in rep.unprotected_ms.iter().enumerate() {
        m.put(format!("engine.L{l:02}.unprotected_ms"), "ms", *u);
    }
    let engine_sum = sum(&rep.unprotected_ms);
    m.put("engine.unprotected_sum_ms", "ms", engine_sum);
    m.put(
        "engine.unprotected_gflops",
        "GFLOP/s",
        rep.flops / engine_sum / 1e6,
    );
    let planned = rep.extra(&rep.chosen_ms);
    for (l, e) in planned.iter().enumerate() {
        m.put(format!("schemes.L{l:02}.planned_extra_ms"), "ms", *e);
    }
    let planned_extra = sum(&planned);
    let global_extra = sum(&rep.extra(&rep.global_ms));
    m.put("schemes.planned_extra_sum_ms", "ms", planned_extra);
    m.put("schemes.global_extra_sum_ms", "ms", global_extra);

    // The planned pass is timed through the session's own compiled
    // model, alternating with `Session::serve`, so their difference is
    // the session's overhead.
    let sq = Session::builder_network(planner.clone(), "squeezenet224", squeeze_net)
        .buckets([1])
        .build();
    let sq_model = sq.compiled_for_bucket(1);
    let mut ws = Workspace::new();
    let (infer, overhead) = timed_pair(
        tr,
        ["compiled.infer_into.planned", "session.serve.squeezenet224"],
        REPS,
        || sq_model.infer_into(&img, None, &mut ws),
        || sq.serve(&img).expect("clean SqueezeNet request"),
    );
    m.put("session.overhead_ms.squeezenet224", "ms", overhead);
    for (c, cm) in CFGS.iter().zip(&compiled) {
        let (infer, attributed) = match c {
            Cfg::Planned => (infer, engine_sum + planned_extra),
            Cfg::Global => (
                timed(tr, "compiled.infer_into.global", || {
                    cm.infer_into(&img, None, &mut ws)
                }),
                engine_sum + global_extra,
            ),
            Cfg::Unprotected => (
                timed(tr, "compiled.infer_into.unprotected", || {
                    cm.infer_into(&img, None, &mut ws)
                }),
                engine_sum,
            ),
        };
        m.put(format!("pipeline.infer_ms.{}", c.name()), "ms", infer);
        m.put(
            format!("pipeline.unattributed_ms.{}", c.name()),
            "ms",
            infer - attributed,
        );
    }
    m.put(
        "pipeline.parallel_levels",
        "count",
        compiled[0].pipeline().parallel_level_count() as f64,
    );
    drop((sq, sq_model, compiled));

    // DLRM at bucket 8: replays, the cost of a correction, and pass
    // and session overhead per bucket.
    let dlrm8 = CompiledModel::compile(&planner, &dlrm_net(8));
    let rep = replay(tr, "dlrm", dlrm8.plan(), seed);
    m.put(
        "engine.dlrm.unprotected_sum_ms",
        "ms",
        sum(&rep.unprotected_ms),
    );
    m.put(
        "schemes.dlrm.planned_extra_sum_ms",
        "ms",
        sum(&rep.extra(&rep.chosen_ms)),
    );

    let faults = inputs::fault_list(seed, &fault_shapes(), CORRECT_FAULTS);
    for c in [Cfg::Planned, Cfg::Global] {
        let plan = c.planner().plan(&dlrm_net(8).to_model());
        let mut extra = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            let layer = &plan.layers[f.layer];
            let g = ProtectedGemm::random(layer.shape, layer.chosen, seed + i as u64);
            let clean = timed(tr, &format!("schemes.clean.{}.{i}", c.name()), || {
                g.run_into(&[], &mut ws)
            });
            let name = format!("schemes.run_corrected_into.{}", c.name());
            let corrected = span(tr, &name, || g.run_corrected_into(&[f.fault], &mut ws));
            extra.push(corrected - clean);
        }
        m.put(
            format!("schemes.correct_ms.{}", c.name()),
            "ms",
            median(&sorted(extra)),
        );
    }

    let mut pass_ms = HashMap::new();
    let session = Session::builder_network(planner.clone(), "dlrm", dlrm_net)
        .buckets(crate::open::BUCKETS)
        .build();
    for (b, rows) in [(8u64, 1usize), (32, 9)] {
        let x = inputs::dlrm_rows(seed, 3, b, rows);
        let cm = session.compiled_for_bucket(b);
        let mut ws = Workspace::new();
        let (pass, overhead) = timed_pair(
            tr,
            [
                &format!("compiled.infer_into.b{b}"),
                &format!("session.serve.b{b}"),
            ],
            PASS_REPS,
            || cm.infer_into(&x, None, &mut ws),
            || session.serve(&x).expect("clean DLRM request"),
        );
        m.put(format!("session.pass_ms.b{b}"), "ms", pass);
        m.put(format!("session.overhead_ms.b{b}"), "ms", overhead);
        pass_ms.insert(b, pass);
    }

    // The zoo triple: every executable zoo network under all three
    // configurations.
    for (name, net) in zoo_nets() {
        let x = Matrix::random(net.batch, net.input_features(), seed);
        for c in CFGS {
            let cm = CompiledModel::compile(&c.planner(), &net);
            let mut ws = Workspace::new();
            let t = timed_n(
                tr,
                &format!("pipeline.{name}.{}", c.name()),
                ZOO_REPS,
                || cm.infer_into(&x, None, &mut ws),
            );
            m.put(format!("pipeline.{name}.{}_ms", c.name()), "ms", t);
        }
    }
    Suite { layer: m, pass_ms }
}
