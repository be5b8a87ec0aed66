//! Unit tests of the benchmark's own arithmetic: quantiles, span self
//! time, open-loop accounting, ladder selection and seeded inputs.

use aiga::core::pipeline::PipelineFault;
use aiga::gpu::engine::FaultKind;
use aiga::gpu::GemmShape;
use aiga_perfbench::inputs;
use aiga_perfbench::openloop::{self, Step};
use aiga_perfbench::stats::{self, Summary};
use aiga_perfbench::trace::{covered_ns, Trace};
use std::time::{Duration, Instant};

#[test]
fn nearest_rank_picks_the_ceiling_rank() {
    let s: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::nearest_rank(&s, 0.5), 5.0);
    assert_eq!(stats::nearest_rank(&s, 0.51), 6.0);
    assert_eq!(stats::nearest_rank(&s, 0.9), 9.0);
    assert_eq!(stats::nearest_rank(&s, 0.99), 10.0);
    assert_eq!(stats::nearest_rank(&s, 0.0), 1.0);
    assert_eq!(stats::nearest_rank(&s, 1.0), 10.0);
    // Unsorted input is sorted first; the value is always a sample.
    let s = stats::sorted(vec![3.0, 1.0, 2.0]);
    assert_eq!(stats::median(&s), 2.0);
}

#[test]
fn tail_keeps_ten_samples_beyond_and_caps_at_p99() {
    let few: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::tail(&few), None);

    // 40 samples: rank 30 is the highest with ten beyond, p75.
    let s: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(stats::tail(&s), Some((75.0, 30.0)));

    // 2000 samples: the rule would allow p99.5; the cap holds p99.
    let s: Vec<f64> = (1..=2000).map(f64::from).collect();
    assert_eq!(stats::tail(&s), Some((99.0, 1980.0)));

    let sum = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0]).unwrap();
    assert_eq!((sum.n, sum.p50, sum.tail), (11, 6.0, 1.0));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let mut tr = Trace::new(t0, true);
    let root = tr.record("root", None, 1, at(0), at(100));
    // Two overlapping children (10..40 and 30..60) cover 50 ms, and a
    // third sticks out past the parent's end (90..120 covers 10 ms).
    let a = tr.record("a", root, 1, at(10), at(40));
    tr.record("b", root, 1, at(30), at(60));
    tr.record("c", root, 1, at(90), at(120));
    // A grandchild counts against its parent only.
    tr.record("a.inner", a, 1, at(15), at(25));
    let self_ms: Vec<u64> = tr.self_times_ns().iter().map(|ns| ns / 1_000_000).collect();
    assert_eq!(self_ms, vec![40, 20, 30, 30, 10]);

    let by = tr.by_name();
    assert_eq!(by["root"].count, 1);
    assert!((by["root"].self_ms - 40.0).abs() < 1e-9);
    assert_eq!(covered_ns(0, 10, vec![(2, 4), (3, 5), (8, 20)]), 5);
}

#[test]
fn a_disabled_trace_records_nothing() {
    let t0 = Instant::now();
    let mut off = Trace::new(t0, false);
    assert_eq!(off.record("x", None, 0, t0, t0), None);
    assert_eq!(off.time("y", None, 0, || 3), 3);
    assert!(off.spans().is_empty());
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let due = openloop::schedule_ms(100.0, 50.0);
    assert_eq!(due, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
    // The generator stalls 25 ms on request 1: it and the two after it
    // go out late, and each is charged from its due time.
    let sent = [0.0, 35.0, 35.5, 36.0, 40.0];
    let done: Vec<f64> = sent.iter().map(|s| s + 2.0).collect();
    assert_eq!(openloop::late_max_ms(&due, &sent), 25.0);
    assert_eq!(
        openloop::latency_from_due_ms(&due, &done),
        vec![2.0, 27.0, 17.5, 8.0, 2.0]
    );
    // Never negative: early sends do not offset late ones.
    assert_eq!(openloop::late_max_ms(&[10.0], &[5.0]), 0.0);
}

#[test]
fn in_flight_counts_unanswered_requests_at_each_send() {
    // Sent at 0, 1, 2, 3; answered at 5, 1.5, 6, 3.5 (the second before
    // the third is sent). At t=3 requests 0 and 2 are still open.
    let sent = [0.0, 1.0, 2.0, 3.0];
    let done = [5.0, 1.5, 6.0, 3.5];
    assert_eq!(openloop::max_in_flight(&sent, &done), 2);
    assert_eq!(openloop::max_in_flight(&[], &[]), 0);
}

#[test]
fn backlog_growth_is_a_rising_latency() {
    let flat: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64).collect();
    assert!(!openloop::backlog_growing(&flat));
    let rising: Vec<f64> = (0..100).map(|i| 10.0 + i as f64).collect();
    assert!(openloop::backlog_growing(&rising));
}

#[test]
fn goodput_is_the_last_rate_of_the_passing_prefix() {
    let step = |rate, p99_ms, refused, backlog_growing| Step {
        rate,
        p99_ms,
        refused,
        backlog_growing,
    };
    let steps = [
        step(1000.0, 20.0, 0, false),
        step(1100.0, 30.0, 0, false),
        step(1210.0, 120.0, 0, false), // misses the limit: the climb stops
        step(1331.0, 20.0, 0, false),  // a lucky later step does not count
    ];
    assert_eq!(openloop::goodput(&steps, 100.0), Some(1100.0));
    assert_eq!(
        openloop::goodput(&[step(1000.0, 20.0, 1, false)], 100.0),
        None,
        "a refusal fails the step"
    );
    assert_eq!(
        openloop::goodput(
            &[step(1000.0, 20.0, 0, false), step(1100.0, 20.0, 0, true)],
            100.0
        ),
        Some(1000.0),
        "a growing backlog fails the step"
    );
}

fn fault_key(f: &PipelineFault) -> (usize, usize, usize, u64, String) {
    let k = match f.fault.kind {
        FaultKind::AddValue(v) => format!("add {}", v.to_bits()),
        other => format!("{other:?}"),
    };
    (f.layer, f.fault.row, f.fault.col, f.fault.after_step, k)
}

#[test]
fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
    let image = |seed, i| inputs::image(seed, i).data;
    assert_eq!(image(1, 0), image(1, 0));
    assert_ne!(image(1, 0), image(2, 0));
    assert_ne!(image(1, 0), image(1, 1));

    let rows = |seed, i| inputs::dlrm_rows(seed, 0, i, 8).data;
    assert_eq!(rows(1, 3), rows(1, 3));
    assert_ne!(rows(1, 3), rows(2, 3));

    let shapes = [GemmShape::new(8, 512, 13), GemmShape::new(8, 1, 256)];
    let faults = |seed| -> Vec<_> {
        inputs::fault_list(seed, &shapes, 64)
            .iter()
            .map(fault_key)
            .collect()
    };
    assert_eq!(faults(1), faults(1));
    assert_ne!(faults(1), faults(2));
}

#[test]
fn generated_inputs_stay_in_range() {
    let m = inputs::dlrm_rows(9, 0, 0, 32);
    for r in 0..m.rows {
        for c in 13..inputs::DLRM_FEATURES {
            let v = m.get_f32(r, c);
            assert!(v.fract() == 0.0 && (0.0..inputs::DLRM_TABLE_ROWS as f32).contains(&v));
        }
    }
    let shapes = [GemmShape::new(8, 512, 13), GemmShape::new(8, 1, 256)];
    for (i, f) in inputs::fault_list(9, &shapes, 200).iter().enumerate() {
        let s = shapes[f.layer];
        assert!((f.fault.row as u64) < s.m && (f.fault.col as u64) < s.n);
        assert!(f.fault.after_step < s.k.div_ceil(2));
        match f.fault.kind {
            FaultKind::AddValue(_) => assert_eq!(i % 2, 0),
            FaultKind::BitFlip(b) => assert!(i % 2 == 1 && b < 32),
            FaultKind::SetValue(_) => unreachable!("never generated"),
        }
    }
}
