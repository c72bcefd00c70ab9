//! Every workload at the reduced size, untraced and traced: outputs pass
//! their checks, every metric `BENCHMARK.json` names is reported, and the
//! self-time rows add up to the traced total.
//!
//! Run with `cargo test --release` from `perfbench/`.

use behaviot_perfbench::{run, Opts, Outcome, Size, Workload, DEFAULT_SEED};
use std::path::PathBuf;

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section is a list")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    run(&Opts {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::smoke(),
        work_dir,
    })
}

fn assert_reports(o: &Outcome, names: &[String]) {
    let got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(
        got, want,
        "reported metrics must be exactly the listed ones, in order"
    );
    for m in &o.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0 || m.name == "trace.overhead_frac",
            "{m:?}"
        );
    }
}

// One test: the tracer and metrics registry are process-wide, so the
// workloads must not run concurrently.
#[test]
fn every_workload_runs_checks_and_accounts_its_time() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for w in Workload::ALL {
        let o = smoke(w, false);
        assert!(o.correct(), "{} failed: {:?}", w.name(), o.failures);
        assert_reports(&o, &end_to_end);
        assert!(o.metric("setup_s").unwrap() > 0.0);
        assert_eq!(o.metric("ok_frac"), Some(1.0));

        let t = smoke(w, true);
        assert!(t.correct(), "{} traced failed: {:?}", w.name(), t.failures);
        assert_reports(&t, &per_layer);
        let rows: f64 = per_layer
            .iter()
            .filter(|n| n.ends_with(".self_s"))
            .map(|n| t.metric(n).unwrap())
            .sum();
        let total = t.metric("trace.total_s").unwrap();
        assert!(
            (rows - total).abs() <= 1e-9 * total.max(1.0),
            "{rows} != {total}"
        );
        assert!(t.metric("unattributed.frac").unwrap() <= 0.05);
        assert_eq!(t.metric("fail_frac"), Some(0.0));
    }
}
