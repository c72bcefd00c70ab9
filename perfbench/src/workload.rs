//! The three workloads: training from pcap bytes, and serving day-sized or
//! hour-sized capture windows through the audited monitor.

use crate::host::{cpu_seconds, digest, peak_rss_mb, quantile};
use crate::selftime::Accounting;
use behaviot::{
    BehavIoT, HealthConfig, Monitor, MonitorConfig, SystemModel, SystemModelConfig, TrainConfig,
    TrainingData, WindowIngest,
};
use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions, Ingested};
use behaviot_flows::{
    assemble_flows, classify_frame, DomainTable, FlowConfig, FlowRecord, FrameClass,
    StreamingAssembler,
};
use behaviot_intern::{FxHashSet, Symbol};
use behaviot_net::pcap::PcapRecord;
use behaviot_net::IngestReport;
use behaviot_obs::{FileSink, LedgerSink};
use behaviot_par::Parallelism;
use behaviot_sim::gen::capture_to_frames;
use behaviot_sim::{
    self as sim, write_pcap, Capture, Catalog, ExpectedCounts, FaultPlan, IncidentScript,
    TruthLabel, UncontrolledConfig,
};
use behaviot_store::{ModelStore, SnapshotSpec};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed used when none is given; the committed reference digests are for
/// this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Thread policy of the measured training path.
const TRAIN_PAR: Parallelism = Parallelism::Fixed(2);

/// Seeded corruptions per hourly window: about 0.05% of its records.
const FAULTS_PER_WINDOW: usize = 16;

/// Flow-to-truth matching tolerance of `label_flows`, in seconds.
const LABEL_TOLERANCE: f64 = 0.75;

/// Reference digests for [`DEFAULT_SEED`]: `<size> <workload> <what> <hex>`.
const REFERENCE: &str = include_str!("../reference.txt");

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Train every model from pcap bytes and persist them.
    Train,
    /// Serve one clean pcap per uncontrolled day.
    ServeDaily,
    /// Serve one pcap per hour, each carrying seeded corruptions.
    ServeHourlyFaulty,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Train,
        Workload::ServeDaily,
        Workload::ServeHourlyFaulty,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::ServeDaily => "serve-daily",
            Workload::ServeHourlyFaulty => "serve-hourly-faulty",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Name used in the reference file (`full` or `smoke`).
    pub name: &'static str,
    /// Idle capture length in days.
    pub idle_days: f64,
    /// Repetitions per activity in the activity capture.
    pub activity_reps: usize,
    /// Routine capture length in days.
    pub routine_days: usize,
    /// Uncontrolled days replayed by the serve workloads.
    pub serve_days: usize,
    /// Cap on windows per serve pass.
    pub max_windows: usize,
    /// Set-ups per untraced `train` run (their median is `setup_s`).
    pub setups: usize,
    /// Training passes in a serve workload's set-up (their median is
    /// `train_s` there).
    pub serve_train_passes: usize,
}

impl Size {
    /// The benchmark's sizes: the quick-scale training captures and five
    /// uncontrolled days.
    pub fn full() -> Self {
        Self {
            name: "full",
            idle_days: 1.5,
            activity_reps: 12,
            routine_days: 3,
            serve_days: 5,
            max_windows: usize::MAX,
            setups: 3,
            serve_train_passes: 2,
        }
    }

    /// A reduced size that runs every workload through measurement, output
    /// checks and the self-time invariants in seconds.
    pub fn smoke() -> Self {
        Self {
            name: "smoke",
            idle_days: 0.2,
            activity_reps: 4,
            routine_days: 1,
            serve_days: 2,
            max_windows: 2,
            setups: 1,
            serve_train_passes: 1,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measure until this much timed work has run (at least one pass).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Scratch directory for stores and ledgers; removed afterwards.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (passes and windows) attempted.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Run metadata: sizes, counts and digests.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    /// Did every operation and output check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Look up a metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one operation; `err` says why it failed, if it did.
    fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// A run-level check outside any single operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Run one workload.
pub fn run(opts: &Opts) -> Outcome {
    let _ = fs::remove_dir_all(&opts.work_dir);
    let mut out = Outcome::default();
    if let Err(e) = fs::create_dir_all(&opts.work_dir) {
        out.op(Some(format!(
            "cannot create {}: {e}",
            opts.work_dir.display()
        )));
        return out;
    }
    match opts.workload {
        Workload::Train => run_train(opts, &mut out),
        Workload::ServeDaily => run_serve(opts, false, &mut out),
        Workload::ServeHourlyFaulty => run_serve(opts, true, &mut out),
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    if opts.trace {
        out.push("fail_frac", fail_frac, "frac");
    } else {
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        out.push("ok_frac", 1.0 - fail_frac, "frac");
    }
    out.meta("workload", opts.workload.name());
    out.meta("size", opts.size.name);
    out.meta("seed", opts.seed);
    out.meta("train_threads", TRAIN_PAR);
    let _ = fs::remove_dir_all(&opts.work_dir);
    out
}

/// `<hex>` of the committed reference digest, if one is listed.
fn reference(size: &Size, workload: &str, what: &str) -> Option<&'static str> {
    REFERENCE.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == size.name && f[1] == workload && f[2] == what).then_some(f[3])
    })
}

/// Check a digest against the first one seen in this run and, for the
/// default seed, against the committed reference.
fn check_digest(
    opts: &Opts,
    workload: &str,
    what: &'static str,
    value: u64,
    first: &mut Option<u64>,
    out: &mut Outcome,
) -> Option<String> {
    let hex = format!("{value:016x}");
    let prev = *first.get_or_insert(value);
    if prev != value {
        return Some(format!(
            "{workload} {what} digest {hex} differs from this run's first {prev:016x}"
        ));
    }
    let key = format!("{workload}.{what}");
    if !out.meta.iter().any(|(k, _)| *k == key) {
        out.meta(&key, &hex);
    }
    if opts.seed == DEFAULT_SEED {
        if let Some(r) = reference(&opts.size, workload, what) {
            if r != hex {
                return Some(format!(
                    "{workload} {what} digest {hex} differs from the reference {r}"
                ));
            }
        }
    }
    None
}

/// Timings as a compact comma-separated list for the metadata line.
fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5).unwrap_or(f64::NAN)
}

fn span(name: &'static str) -> behaviot_obs::SpanGuard<'static> {
    behaviot_obs::tracer().span(name)
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    fs::create_dir_all(dir)
}

// ---------------------------------------------------------------- training

/// The training captures, rendered to pcap bytes.
struct TrainInputs {
    catalog: Catalog,
    names: HashMap<Ipv4Addr, String>,
    /// Idle, activity and routine captures as pcap files.
    pcaps: [Vec<u8>; 3],
    /// The activity capture's ground truth (its packets are dropped);
    /// `label_flows` reads only the truth events.
    activity_truth: Capture,
    records: u64,
}

fn render(cap: &Capture, catalog: &Catalog) -> (Vec<u8>, u64) {
    let frames = capture_to_frames(cap, catalog);
    (write_pcap(&frames), frames.len() as u64)
}

fn render_train_inputs(size: &Size, seed: u64) -> TrainInputs {
    let catalog = Catalog::standard();
    let names = (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect();
    // Largest capture first, each dropped once rendered, so set-up holds
    // at most one capture's frames next to the pcaps.
    let routine = sim::routine_dataset(&catalog, seed + 2, size.routine_days);
    let (routine_pcap, n_routine) = render(&routine, &catalog);
    drop(routine);
    let idle = sim::idle_dataset(&catalog, seed, size.idle_days);
    let (idle_pcap, n_idle) = render(&idle, &catalog);
    drop(idle);
    let mut activity = sim::activity_dataset(&catalog, seed + 1, size.activity_reps);
    let (activity_pcap, n_activity) = render(&activity, &catalog);
    activity.packets = Vec::new();
    TrainInputs {
        catalog,
        names,
        pcaps: [idle_pcap, activity_pcap, routine_pcap],
        activity_truth: activity,
        records: n_idle + n_activity + n_routine,
    }
}

/// What one training pass produced.
struct Trained {
    models: BehavIoT,
    system: SystemModel,
    manifest: u64,
    /// Per capture: ms from its pcap bytes to its (labeled) flows.
    front_end_ms: [f64; 3],
    records: u64,
    dropped: u64,
    flows: u64,
}

/// The timed training path: pcap bytes → ingest → flows → labels →
/// `BehavIoT::train` → routine events → system model → persisted store.
fn train_pass(inp: &TrainInputs, par: Parallelism, dir: &Path) -> Result<Trained, String> {
    let _root = span("bench.pass");
    let fc = FlowConfig::default();
    let mut front_end_ms = [0.0; 3];
    let mut flows: Vec<Vec<FlowRecord>> = Vec::with_capacity(3);
    let (mut records, mut dropped) = (0u64, 0u64);
    let mut labeled = Vec::new();
    for (i, bytes) in inp.pcaps.iter().enumerate() {
        let t0 = Instant::now();
        let ing = {
            let _s = span("bench.ingest");
            ingest_pcap_bytes(bytes, &IngestOptions::default())
                .map_err(|e| format!("training capture {i}: ingest failed: {e}"))?
        };
        if !ing.report.is_clean() {
            return Err(format!(
                "training capture {i} is clean but ingest reported {}",
                ing.report
            ));
        }
        records += ing.records_seen;
        dropped += ing.report.dropped_records();
        let f = {
            let _s = span("bench.assemble");
            assemble_flows(&ing.packets, &ing.domains, &fc)
        };
        drop(ing);
        if i == 1 {
            let _s = span("bench.label");
            labeled = sim::label_flows(&f, &inp.activity_truth, &inp.catalog, LABEL_TOLERANCE);
        }
        front_end_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
        flows.push(f);
    }
    let n_flows = flows.iter().map(|f| f.len() as u64).sum();
    let routine = flows.pop().expect("three captures");
    let idle = flows.swap_remove(0);
    let data = {
        let _s = span("bench.prepare");
        let samples = labeled.iter().map(|l| {
            let activity = match &l.label {
                Some(TruthLabel::User(a)) => Some(a.as_str()),
                _ => None,
            };
            (&l.flow, activity)
        });
        TrainingData::from_flows(idle, samples, inp.names.clone())
    };
    let models = {
        let _s = span("bench.train");
        BehavIoT::train(
            &data,
            &TrainConfig {
                parallelism: par,
                ..Default::default()
            },
        )
    };
    let events = {
        let _s = span("bench.events");
        models.infer_events_with(&routine, par)
    };
    let system = {
        let _s = span("bench.pfsm");
        SystemModel::build(&events, &inp.names, &SystemModelConfig::default())
    };
    {
        let _s = span("bench.store");
        let spec = SnapshotSpec {
            system: Some(&system),
            ..SnapshotSpec::new(&models)
        };
        ModelStore::open(dir)
            .and_then(|store| store.save(&spec))
            .map_err(|e| format!("saving the trained models failed: {e}"))?;
    }
    let manifest = {
        let _s = span("bench.check");
        let bytes = fs::read(dir.join("MANIFEST")).map_err(|e| format!("reading MANIFEST: {e}"))?;
        if models.periodic.is_empty() || system.pfsm.n_states() == 0 || events.is_empty() {
            return Err("training produced empty models".to_string());
        }
        digest(&bytes)
    };
    Ok(Trained {
        models,
        system,
        manifest,
        front_end_ms,
        records,
        dropped,
        flows: n_flows,
    })
}

/// Run one training pass into a fresh store directory, timing it and
/// checking its manifest digest.
fn timed_train_pass(
    opts: &Opts,
    inp: &TrainInputs,
    par: Parallelism,
    first: &mut Option<u64>,
    out: &mut Outcome,
) -> Option<(Trained, f64)> {
    let dir = opts.work_dir.join("train-store");
    if let Err(e) = fresh_dir(&dir) {
        out.op(Some(format!("cannot reset {}: {e}", dir.display())));
        return None;
    }
    let t0 = Instant::now();
    let res = train_pass(inp, par, &dir);
    let secs = t0.elapsed().as_secs_f64();
    match res {
        Ok(t) => {
            let err = check_digest(opts, "train", "manifest", t.manifest, first, out);
            let ok = err.is_none();
            out.op(err);
            ok.then_some((t, secs))
        }
        Err(e) => {
            out.op(Some(e));
            None
        }
    }
}

fn run_train(opts: &Opts, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if opts.trace { 1 } else { opts.size.setups } {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(render_train_inputs(&opts.size, opts.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("at least one set-up");
    out.meta("records", inp.records);
    out.meta(
        "pcap_bytes",
        inp.pcaps.iter().map(|p| p.len()).sum::<usize>(),
    );
    let mut first = None;

    if opts.trace {
        // Process CPU over wall time of the measured (2-thread) path.
        let cpu0 = cpu_seconds();
        let par_pass = timed_train_pass(opts, &inp, TRAIN_PAR, &mut first, out);
        let cpu_per_wall = par_pass.map(|(_, s)| (cpu_seconds() - cpu0) / s);
        // Spans nest per thread, so the traced pass runs on one thread and
        // its self times partition its wall time; the untraced pass it is
        // compared with runs the same way.
        let untraced = timed_train_pass(opts, &inp, Parallelism::Off, &mut first, out);
        let counters0 = behaviot_obs::metrics().snapshot();
        let (pass, acc) =
            traced(|| timed_train_pass(opts, &inp, Parallelism::Off, &mut first, out));
        let counters = counters_since(counters0);
        if let (Some(cpw), Some((_, base_s)), Some((t, _))) = (cpu_per_wall, untraced, pass) {
            let counts = Counts {
                records: t.records,
                dropped: t.dropped,
                flows: t.flows,
                periodic_models: t.models.periodic.len() as u64,
                pfsm_states: t.system.pfsm.n_states() as u64,
                pfsm_transitions: t.system.pfsm.n_transitions() as u64,
                ..Counts::default()
            };
            report_traced(out, &acc, base_s, &counts, counters, cpw);
        }
        return;
    }

    out.push("setup_s", median(&setup_s), "s");
    let mut pass_s = Vec::new();
    let mut front_end_ms = Vec::new();
    let t_measure = Instant::now();
    while pass_s.is_empty() || t_measure.elapsed().as_secs_f64() < opts.seconds {
        let Some((t, secs)) = timed_train_pass(opts, &inp, TRAIN_PAR, &mut first, out) else {
            break;
        };
        pass_s.push(secs);
        front_end_ms.extend(t.front_end_ms);
    }
    let train_s = median(&pass_s);
    out.meta("pass_s", fmt_list(&pass_s));
    out.push("train_s", train_s, "s");
    out.push("pkts_per_s", inp.records as f64 / train_s, "1/s");
    out.push(
        "window_p50_ms",
        quantile(&front_end_ms, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    out.push(
        "window_p90_ms",
        quantile(&front_end_ms, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
}

// ----------------------------------------------------------------- serving

/// The trained models the serve windows run through.
struct Serving {
    /// Device address by display name, to turn deviation subjects and
    /// health transitions into the store's changed-device set.
    device_by_name: HashMap<String, Ipv4Addr>,
    models: BehavIoT,
    system: SystemModel,
}

/// One window, rendered and ready to hand over.
struct WindowInput {
    pcap: Vec<u8>,
    start: f64,
    end: f64,
    /// Gate counters the corruption must produce; `None` for a clean
    /// window, whose ingest report must be all-zero.
    expected: Option<ExpectedCounts>,
}

fn is_flow(records: &[PcapRecord]) -> Vec<bool> {
    records
        .iter()
        .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
        .collect()
}

/// Render the uncontrolled days, each as one clean window or as 24 hourly
/// windows with seeded corruptions.
fn serve_windows(catalog: &Catalog, size: &Size, seed: u64, hourly: bool) -> Vec<WindowInput> {
    let cfg = UncontrolledConfig {
        incidents: IncidentScript::paper_like_scaled(catalog, size.serve_days),
        ..Default::default()
    };
    let mut windows = Vec::new();
    for day in 0..size.serve_days {
        if windows.len() >= size.max_windows {
            break;
        }
        windows.extend(day_windows(catalog, &cfg, seed, day, hourly));
    }
    windows.truncate(size.max_windows);
    windows
}

fn day_windows(
    catalog: &Catalog,
    cfg: &UncontrolledConfig,
    seed: u64,
    day: usize,
    hourly: bool,
) -> Vec<WindowInput> {
    let cap = sim::uncontrolled_day(catalog, seed + 9, day, cfg);
    let (start, end) = (cap.start, cap.end);
    let records = capture_to_frames(&cap, catalog);
    drop(cap);
    if !hourly {
        return vec![WindowInput {
            pcap: write_pcap(&records),
            start,
            end,
            expected: None,
        }];
    }
    let mut hours: Vec<Vec<PcapRecord>> = (0..24).map(|_| Vec::new()).collect();
    for r in records {
        let h = ((r.ts - start) / 3600.0).floor().clamp(0.0, 23.0) as usize;
        hours[h].push(r);
    }
    hours
        .into_iter()
        .enumerate()
        .map(|(h, recs)| {
            let plan_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (day * 24 + h) as u64;
            let plan = FaultPlan::generate(plan_seed, &recs, &is_flow(&recs), FAULTS_PER_WINDOW);
            WindowInput {
                pcap: plan.corrupt(&recs),
                start: start + h as f64 * 3600.0,
                end: start + (h + 1) as f64 * 3600.0,
                expected: Some(plan.expected),
            }
        })
        .collect()
}

/// `FileSink` with its time and volume measured: each call records a
/// `ledger.*` span when tracing is on.
struct TimedSink {
    inner: FileSink,
    records: u64,
    bytes: u64,
}

impl LedgerSink for TimedSink {
    fn append(&mut self, line: &str) {
        let _s = span("ledger.append");
        self.records += 1;
        self.bytes += line.len() as u64 + 1;
        self.inner.append(line);
    }

    fn flush(&mut self) -> io::Result<()> {
        let _s = span("ledger.flush");
        self.inner.flush()
    }
}

/// State that carries across the windows of one serve pass.
struct ServeState {
    monitor: Monitor,
    assembler: StreamingAssembler,
    domains: DomainTable,
    flows: Vec<FlowRecord>,
    changed: FxHashSet<Symbol>,
    sink: TimedSink,
    store: ModelStore,
}

/// What one window produced that the checks and counters need.
struct WindowResult {
    report: IngestReport,
    records: u64,
    flows: u64,
    deviations: u64,
}

/// The timed window path: pcap bytes → ingest → streaming assembly →
/// audited monitor → ledger flush → checkpoint.
fn serve_window(
    srv: &Serving,
    st: &mut ServeState,
    w: &WindowInput,
) -> Result<WindowResult, String> {
    let _root = span("bench.window");
    let ing: Ingested = {
        let _s = span("bench.ingest");
        ingest_pcap_bytes(&w.pcap, &IngestOptions::default())
            .map_err(|e| format!("window at {}: ingest failed: {e}", w.start))?
    };
    {
        let _s = span("bench.assemble");
        st.domains.merge(&ing.domains);
        st.flows.clear();
        for p in &ing.packets {
            st.assembler.push_into(p, &st.domains, &mut st.flows);
        }
        st.assembler.tick_into(w.end, &st.domains, &mut st.flows);
    }
    let deviations = {
        let _s = span("bench.monitor");
        let ingest = WindowIngest {
            report: &ing.report,
            records_total: ing.records_seen,
        };
        st.monitor
            .process_window_audited(&st.flows, w.start, w.end, Some(ingest), &mut st.sink)
    };
    st.sink
        .flush()
        .map_err(|e| format!("window at {}: ledger flush failed: {e}", w.start))?;
    {
        let _s = span("bench.changed");
        st.changed.clear();
        let subjects = deviations
            .iter()
            .flat_map(|d| d.subject.split(" -> "))
            .map(|part| part.split(':').next().unwrap_or(part));
        let transitions = st
            .monitor
            .health()
            .into_iter()
            .flat_map(|h| h.last_transitions().iter().map(|t| t.device.as_str()));
        for name in subjects.chain(transitions) {
            if let Some(&ip) = srv.device_by_name.get(name) {
                st.changed.insert(Symbol::intern_ipv4(ip));
            }
        }
    }
    {
        let _s = span("bench.store");
        let m = &st.monitor;
        let spec = SnapshotSpec {
            models: m.models(),
            system: Some(m.system()),
            monitor: Some((m.config(), m.export_state())),
            health: m.health().map(|h| h.export()),
            metrics_jsonl: None,
            include_interner: false,
        };
        st.store
            .checkpoint(&spec, &st.changed)
            .map_err(|e| format!("window at {}: checkpoint failed: {e}", w.start))?;
    }
    Ok(WindowResult {
        records: ing.records_seen,
        report: ing.report,
        flows: st.flows.len() as u64,
        deviations: deviations.len() as u64,
    })
}

/// What one serve pass measured.
#[derive(Default)]
struct ServePass {
    window_ms: Vec<f64>,
    /// Process CPU seconds spent inside the timed windows.
    cpu_s: f64,
    records: u64,
    dropped: u64,
    flows: u64,
    deviations: u64,
    ledger_records: u64,
    ledger_bytes: u64,
}

impl ServePass {
    fn timed_s(&self) -> f64 {
        self.window_ms.iter().sum::<f64>() * 1e-3
    }
}

/// Replay every window once, in a closed loop with one window in flight,
/// from a fresh monitor, assembler, ledger and store.
fn serve_pass(
    opts: &Opts,
    srv: &Serving,
    windows: &[WindowInput],
    digests: &mut [Option<u64>; 2],
    out: &mut Outcome,
) -> Option<ServePass> {
    let workload = opts.workload.name();
    let dir = opts.work_dir.join("serve");
    let setup = fresh_dir(&dir).and_then(|()| {
        let mut monitor = Monitor::new(
            srv.models.clone(),
            srv.system.clone(),
            MonitorConfig::default(),
        );
        monitor.enable_health(HealthConfig::default());
        Ok(ServeState {
            monitor,
            assembler: StreamingAssembler::new(FlowConfig::default()),
            domains: DomainTable::new(),
            flows: Vec::new(),
            changed: FxHashSet::default(),
            sink: TimedSink {
                inner: FileSink::create(dir.join("ledger.jsonl"))?,
                records: 0,
                bytes: 0,
            },
            store: ModelStore::open(dir.join("store")).map_err(io::Error::other)?,
        })
    });
    let mut st = match setup {
        Ok(st) => st,
        Err(e) => {
            out.op(Some(format!(
                "cannot set up a serve pass in {}: {e}",
                dir.display()
            )));
            return None;
        }
    };
    let mut pass = ServePass::default();
    for w in windows {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let res = serve_window(srv, &mut st, w);
        pass.window_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.cpu_s += cpu_seconds() - cpu0;
        let err = match res {
            Err(e) => Some(e),
            Ok(r) => {
                pass.records += r.records;
                pass.dropped += r.report.dropped_records();
                pass.flows += r.flows;
                pass.deviations += r.deviations;
                match w.expected {
                    Some(exp) if !exp.matches(&r.report) => Some(format!(
                        "window at {}: gate counters {} differ from the fault plan's {exp:?}",
                        w.start, r.report
                    )),
                    None if !r.report.is_clean() => Some(format!(
                        "window at {}: clean capture but ingest reported {}",
                        w.start, r.report
                    )),
                    _ => None,
                }
            }
        };
        out.op(err);
    }
    pass.ledger_records = st.sink.records;
    pass.ledger_bytes = st.sink.bytes;
    let ledger = st
        .sink
        .inner
        .finish()
        .and_then(|()| fs::read(dir.join("ledger.jsonl")))
        .map_err(|e| format!("ledger: {e}"));
    let manifest =
        fs::read(dir.join("store").join("MANIFEST")).map_err(|e| format!("MANIFEST: {e}"));
    let err = match (ledger, manifest) {
        (Ok(l), Ok(m)) => {
            let [first_l, first_m] = digests;
            check_digest(opts, workload, "ledger", digest(&l), first_l, out)
                .or_else(|| check_digest(opts, workload, "manifest", digest(&m), first_m, out))
        }
        (Err(e), _) | (_, Err(e)) => Some(e),
    };
    let ok = err.is_none();
    out.op(err);
    ok.then_some(pass)
}

fn run_serve(opts: &Opts, hourly: bool, out: &mut Outcome) {
    // Set-up: train the models exactly as the train workload does, then
    // render the serve windows. One set-up per run, as it holds the
    // training passes `train_s` is the median of.
    let t0 = Instant::now();
    let inp = render_train_inputs(&opts.size, opts.seed);
    let mut first = None;
    let mut train_s = Vec::new();
    let mut trained = None;
    for _ in 0..opts.size.serve_train_passes {
        trained = timed_train_pass(opts, &inp, TRAIN_PAR, &mut first, out);
        match &trained {
            Some((_, s)) => train_s.push(*s),
            None => return,
        }
    }
    let Some((t, _)) = trained else {
        return;
    };
    let catalog = inp.catalog;
    drop(inp.pcaps);
    let windows = serve_windows(&catalog, &opts.size, opts.seed, hourly);
    let setup_s = t0.elapsed().as_secs_f64();
    let device_by_name = (0..catalog.devices.len())
        .map(|i| (catalog.devices[i].name.clone(), catalog.device_ip(i)))
        .collect();
    let srv = Serving {
        device_by_name,
        models: t.models,
        system: t.system,
    };
    out.meta("windows", windows.len());
    out.meta(
        "pcap_bytes",
        windows.iter().map(|w| w.pcap.len()).sum::<usize>(),
    );
    let mut digests = [None, None];

    if opts.trace {
        let untraced = serve_pass(opts, &srv, &windows, &mut digests, out);
        let cpu_per_wall = untraced.as_ref().map(|p| p.cpu_s / p.timed_s());
        let counters0 = behaviot_obs::metrics().snapshot();
        let (pass, acc) = traced(|| serve_pass(opts, &srv, &windows, &mut digests, out));
        let counters = counters_since(counters0);
        if let (Some(cpw), Some(base), Some(p)) = (cpu_per_wall, untraced, pass) {
            let counts = Counts {
                records: p.records,
                dropped: p.dropped,
                flows: p.flows,
                windows: p.window_ms.len() as u64,
                deviations: p.deviations,
                ledger_records: p.ledger_records,
                ledger_bytes: p.ledger_bytes,
                ..Counts::default()
            };
            report_traced(out, &acc, base.timed_s(), &counts, counters, cpw);
        }
        return;
    }

    out.push("setup_s", setup_s, "s");
    out.push("train_s", median(&train_s), "s");
    let mut window_ms = Vec::new();
    let (mut records, mut timed_s) = (0u64, 0.0);
    let mut pass_s = Vec::new();
    while pass_s.is_empty() || timed_s < opts.seconds {
        let Some(p) = serve_pass(opts, &srv, &windows, &mut digests, out) else {
            break;
        };
        if pass_s.is_empty() {
            out.meta("records", p.records);
            out.meta("deviations", p.deviations);
        }
        pass_s.push(p.timed_s());
        records += p.records;
        timed_s += p.timed_s();
        window_ms.extend(p.window_ms);
    }
    out.meta("pass_s", fmt_list(&pass_s));
    out.push("pkts_per_s", records as f64 / timed_s, "1/s");
    out.push(
        "window_p50_ms",
        quantile(&window_ms, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    out.push(
        "window_p90_ms",
        quantile(&window_ms, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
}

// ----------------------------------------------------------- traced passes

/// Run `f` with span recording on and account the spans it left.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Accounting) {
    let tracer = behaviot_obs::tracer();
    tracer.clear();
    tracer.set_enabled(true);
    let r = f();
    tracer.set_enabled(false);
    (r, Accounting::of(&tracer.take_spans()))
}

/// Counter deltas since `before`, as a lookup function.
fn counters_since(before: behaviot_obs::MetricsSnapshot) -> impl Fn(&str) -> f64 {
    let after = behaviot_obs::metrics().snapshot();
    move |name| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// Work counts of one traced pass that come from return values; layers the
/// workload does not run stay 0.
#[derive(Default)]
struct Counts {
    records: u64,
    dropped: u64,
    flows: u64,
    periodic_models: u64,
    pfsm_states: u64,
    pfsm_transitions: u64,
    windows: u64,
    deviations: u64,
    ledger_records: u64,
    ledger_bytes: u64,
}

/// Every per-layer metric of a traced run, in `BENCHMARK.json` order, plus
/// the accounting invariants.
fn report_traced(
    out: &mut Outcome,
    acc: &Accounting,
    untraced_s: f64,
    c: &Counts,
    counters: impl Fn(&str) -> f64,
    cpu_per_wall: f64,
) {
    use crate::selftime::LAYERS;
    const NAMES: [&str; LAYERS.len()] = [
        "ingest.self_s",
        "assemble.self_s",
        "periodic.self_s",
        "dsp.self_s",
        "forest.self_s",
        "events.self_s",
        "pfsm.self_s",
        "monitor.self_s",
        "ledger.self_s",
        "store.self_s",
        "harness.self_s",
        "unattributed.self_s",
    ];
    for (name, layer) in NAMES.into_iter().zip(LAYERS) {
        out.push(name, acc.self_s(layer), "s");
    }
    let total_s = acc.total_ns as f64 / 1e9;
    out.push("trace.total_s", total_s, "s");
    out.push("trace.overhead_frac", total_s / untraced_s - 1.0, "frac");
    out.push("unattributed.frac", acc.unattributed_frac(), "frac");
    out.check(acc.rows_sum_to_total(), || {
        format!(
            "layer rows sum to {} ns, traced total is {} ns",
            acc.self_ns.iter().sum::<u64>(),
            acc.total_ns
        )
    });
    out.check(acc.unattributed_frac() <= 0.05, || {
        format!(
            "unattributed time is {:.2}% of the traced total (limit 5%)",
            acc.unattributed_frac() * 100.0
        )
    });

    let written = counters("store.artifacts_written");
    let reused = counters("store.artifacts_reused");
    for (name, value, unit) in [
        ("ingest.records", c.records as f64, "count"),
        ("ingest.dropped", c.dropped as f64, "count"),
        ("assemble.flows", c.flows as f64, "count"),
        ("periodic.models", c.periodic_models as f64, "count"),
        ("forest.fits", counters("forest.fits"), "count"),
        ("events.user", counters("events.user"), "count"),
        ("events.periodic", counters("events.periodic"), "count"),
        ("events.aperiodic", counters("events.aperiodic"), "count"),
        ("pfsm.states", c.pfsm_states as f64, "count"),
        ("pfsm.transitions", c.pfsm_transitions as f64, "count"),
        ("monitor.windows", c.windows as f64, "count"),
        ("monitor.deviations", c.deviations as f64, "count"),
        ("ledger.records", c.ledger_records as f64, "count"),
        ("ledger.bytes", c.ledger_bytes as f64, "B"),
        ("store.artifacts_written", written, "count"),
        ("store.artifacts_reused", reused, "count"),
        (
            "store.reuse_frac",
            reused / (written + reused).max(1.0),
            "frac",
        ),
        ("par.cpu_per_wall", cpu_per_wall, "ratio"),
    ] {
        out.push(name, value, unit);
    }
}
