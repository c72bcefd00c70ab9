//! Byte-format gate for `behaviot-store`.
//!
//! Saves one deterministic snapshot of the quick-scale pipeline (device
//! models, system model, monitor state and health registry, trained under
//! `Parallelism::Off`) and compares its `MANIFEST` with
//! `tests/golden/store_manifest.txt`. The manifest records the FxHash64 and
//! byte length of every artifact, so equal manifest bytes mean every
//! artifact file is byte-identical too: a renderer that changes one byte of
//! any artifact fails here.
//!
//! Regenerate the golden (only legitimate when the store format itself is
//! meant to change, never to absorb a rendering regression) with:
//! `BEHAVIOT_BLESS_GOLDEN=1 cargo test -p behaviot-harness --test store_golden`

use behaviot::{HealthConfig, Monitor, MonitorConfig, SystemModel, SystemModelConfig};
use behaviot_bench::{Prepared, Scale};
use behaviot_flows::FlowRecord;
use behaviot_par::Parallelism;
use behaviot_store::{ModelStore, SnapshotSpec};
use std::fs;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/store_manifest.txt")
}

#[test]
fn quick_snapshot_manifest_matches_golden() {
    let par = Parallelism::Off;
    let prepared = Prepared::build_with(Scale::quick(), par);
    let routine: Vec<FlowRecord> = prepared.routine.iter().map(|l| l.flow.clone()).collect();
    let events = prepared.models.infer_events_with(&routine, par);
    let system = SystemModel::build(&events, &prepared.names, &SystemModelConfig::default());

    // One monitor window over the routine day(s), so the monitor and
    // health artifacts carry real timers, flags and device rows.
    let mut monitor = Monitor::new(prepared.models.clone(), system, MonitorConfig::default());
    monitor.enable_health(HealthConfig::default());
    let start = routine.iter().map(|f| f.start).fold(f64::MAX, f64::min);
    let end = routine.iter().map(|f| f.end).fold(f64::MIN, f64::max);
    monitor.process_window(&routine, start, end);

    let dir = std::env::temp_dir().join(format!("behaviot-store-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).unwrap();
    store
        .save(&SnapshotSpec {
            models: monitor.models(),
            system: Some(monitor.system()),
            monitor: Some((monitor.config(), monitor.export_state())),
            health: monitor.health().map(|h| h.export()),
            metrics_jsonl: None,
            include_interner: false,
        })
        .unwrap();
    let manifest = fs::read_to_string(dir.join("MANIFEST")).unwrap();
    fs::remove_dir_all(&dir).unwrap();

    let path = golden_path();
    if std::env::var_os("BEHAVIOT_BLESS_GOLDEN").is_some() {
        fs::write(&path, &manifest).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert!(
        expected == manifest,
        "store MANIFEST diverged from the golden: some artifact's bytes changed.\n\
         --- expected ---\n{expected}\n--- actual ---\n{manifest}"
    );
}
