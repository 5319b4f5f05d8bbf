//! Self-tests of the benchmark harness: seeded inputs are reproducible,
//! a short run emits every metric `BENCHMARK.json` names with its unit,
//! and each correctness oracle catches a fault injected into the harness.

use hhc_perfbench::gen::{
    serve_ops, study_ops, validate_ops, MIX_BLOCK, SERVE_HITS, STUDY_LIGHT, VALIDATE_LIGHT,
};
use hhc_perfbench::{run, Config, Fault, Report, Workload, END_TO_END, PER_LAYER};
use serde::Value;
use std::sync::{Mutex, MutexGuard};

/// Tests that run workloads take turns: each run times itself, and
/// `trace.coverage` compares two timed passes, so a workload running
/// beside another test would measure the other test too.
static RUNS: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    RUNS.lock().unwrap_or_else(|e| e.into_inner())
}

fn config(workload: Workload, trace: bool, fault: Fault) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        fault,
    }
}

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let Value::Map(top) = serde_json::from_str(&text).expect("BENCHMARK.json parses") else {
        panic!("BENCHMARK.json is an object");
    };
    let Some((_, Value::Seq(metrics))) = top.iter().find(|(k, _)| k == list) else {
        panic!("BENCHMARK.json has a '{list}' list");
    };
    metrics
        .iter()
        .map(|m| {
            let Value::Map(fields) = m else {
                panic!("metric is an object")
            };
            let field = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                Some((_, Value::Str(s))) => s.clone(),
                other => panic!("metric field '{key}': {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn names_and_units(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let pairs = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(END_TO_END), declared("end_to_end"));
    assert_eq!(pairs(PER_LAYER), declared("per_layer"));
}

#[test]
fn same_seed_generates_identical_inputs() {
    let study = |seed| study_ops(seed).take(200).collect::<Vec<_>>();
    let validate = |seed| validate_ops(seed).take(200).collect::<Vec<_>>();
    let serve = |seed, conn| serve_ops(seed, conn).take(2000).collect::<Vec<_>>();
    assert_eq!(study(3), study(3));
    assert_ne!(study(3), study(4));
    assert_eq!(validate(3), validate(3));
    assert_ne!(validate(3), validate(4));
    for conn in 0..2 {
        assert_eq!(serve(3, conn), serve(3, conn));
        assert_ne!(serve(3, conn), serve(4, conn));
    }
    // The mix is exact per block, whatever the seed.
    let per_block = |flags: Vec<bool>, want: usize| {
        flags
            .chunks(MIX_BLOCK)
            .all(|b| b.iter().filter(|&&l| l).count() == want)
    };
    assert!(per_block(
        study(5).iter().map(|o| o.light).collect(),
        STUDY_LIGHT
    ));
    assert!(per_block(
        validate(5).iter().map(|o| o.light).collect(),
        VALIDATE_LIGHT
    ));
    assert!(per_block(
        serve(5, 1).iter().map(|o| !o.miss).collect(),
        SERVE_HITS
    ));
    // Misses never repeat, across both clients.
    let mut misses: Vec<String> = (0..2)
        .flat_map(|c| serve(5, c))
        .filter(|o| o.miss)
        .map(|o| o.line.split_once(',').expect("id first").1.to_string())
        .collect();
    let n = misses.len();
    misses.sort();
    misses.dedup();
    assert_eq!(misses.len(), n);
}

#[test]
fn short_runs_emit_every_metric_and_pass_their_oracles() {
    let _turn = one_at_a_time();
    for w in Workload::ALL {
        let untraced = run(&config(w, false, Fault::None));
        assert!(untraced.correct(), "{w:?}: {}", untraced.result_line());
        assert!(untraced.attempted > 0);
        assert_eq!(names_and_units(&untraced), declared("end_to_end"), "{w:?}");
        for m in &untraced.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{w:?} {m:?}");
        }
        // Long enough that the replay's comparison with the untraced
        // pass averages over a few dozen ops.
        let traced = run(&Config {
            seconds: 6.0,
            ..config(w, true, Fault::None)
        });
        assert!(traced.correct(), "{w:?}: {}", traced.result_line());
        assert_eq!(names_and_units(&traced), declared("per_layer"), "{w:?}");
        let coverage = traced.metric("trace.coverage").expect("coverage");
        assert!(coverage >= 0.9, "{w:?}: coverage {coverage}");
    }
}

#[test]
fn each_oracle_catches_its_injected_fault() {
    let _turn = one_at_a_time();
    for (w, fault) in [
        (Workload::Study, Fault::PerturbWithin),
        (Workload::Validate, Fault::PerturbGridCell),
        (Workload::Serve, Fault::FlipAnswerByte),
    ] {
        let r = run(&config(w, false, fault));
        assert!(!r.correct(), "{w:?} missed {fault:?}");
        assert_eq!(r.failed, r.attempted, "{w:?}: every op carries the fault");
        assert!(r.metric("ok_rate").expect("ok_rate") < 1.0);
    }
}

#[test]
fn coverage_drops_when_the_replay_leaves_out_a_call() {
    let _turn = one_at_a_time();
    let r = run(&config(Workload::Validate, true, Fault::DropReplayedCall));
    let coverage = r.metric("trace.coverage").expect("coverage");
    assert!(coverage < 0.9, "coverage {coverage}");
}
