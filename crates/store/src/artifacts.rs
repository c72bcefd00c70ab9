//! Per-artifact render/parse pairs.
//!
//! Every artifact is pipe-separated text built on [`crate::format`]. Each
//! `render_*` is the exact inverse of its `parse_*`: save→load→save is
//! byte-identical (pinned by the round-trip proptests), and every parse
//! failure is a typed [`StoreError`] naming the artifact and line — a
//! corrupted snapshot never panics and never half-loads.
//!
//! Each `render_*` is one traversal generic over a [`Sink`]. A `String`
//! sink appends the artifact's text to a caller-owned buffer; an
//! [`FxHasher`] sink folds the same fields (float bits, integers, string
//! bytes, separators) into the model fingerprint the store's checkpoint
//! memo compares. Text and fingerprint come from the same code, so they
//! cannot drift apart.

use crate::format::{parse_f64, push_escaped, push_f64, unescape};
use crate::StoreError;
use behaviot::{
    HealthConfig, HealthExport, HealthState, MonitorConfig, MonitorState, PeriodicModel,
    PeriodicTrainConfig, SystemModel, SystemModelConfig,
};
use behaviot_cluster::{DbscanModel, Standardizer};
use behaviot_forest::{DecisionTree, NodeSpec, RandomForest};
use behaviot_intern::{FxHashSet, FxHasher, Symbol};
use behaviot_net::Proto;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::Hasher;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// render sinks

/// A model held a NaN or infinity: it is already corrupt in memory and must
/// not be persisted. The caller names the artifact
/// ([`StoreError::NonFinite`]).
pub(crate) struct NonFinite;

/// Where a `render_*` traversal sends an artifact's fields. Every field is
/// preceded by a separator (`""` for none).
pub(crate) trait Sink {
    /// Structural text: record tags, line ends, fixed labels.
    fn lit(&mut self, s: &str);
    /// `sep`, then an unsigned integer field.
    fn uint(&mut self, sep: &str, v: u64);
    /// `sep`, then a finite float field; NaN and infinities fail.
    fn float(&mut self, sep: &str, v: f64) -> Result<(), NonFinite>;
    /// `sep`, then a string field (percent-escaped in text).
    fn text(&mut self, sep: &str, s: &str);
    /// `sep`, then an IPv4 address field.
    fn ip(&mut self, sep: &str, ip: Ipv4Addr);
}

impl Sink for String {
    fn lit(&mut self, s: &str) {
        self.push_str(s);
    }
    fn uint(&mut self, sep: &str, v: u64) {
        let _ = write!(self, "{sep}{v}");
    }
    fn float(&mut self, sep: &str, v: f64) -> Result<(), NonFinite> {
        self.push_str(sep);
        push_f64(self, v).then_some(()).ok_or(NonFinite)
    }
    fn text(&mut self, sep: &str, s: &str) {
        self.push_str(sep);
        push_escaped(self, s);
    }
    fn ip(&mut self, sep: &str, ip: Ipv4Addr) {
        let _ = write!(self, "{sep}{ip}");
    }
}

impl Sink for FxHasher {
    fn lit(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
    fn uint(&mut self, sep: &str, v: u64) {
        self.lit(sep);
        self.write_u64(v);
    }
    fn float(&mut self, sep: &str, v: f64) -> Result<(), NonFinite> {
        if !v.is_finite() {
            return Err(NonFinite);
        }
        self.lit(sep);
        self.write_u64(v.to_bits());
        Ok(())
    }
    fn text(&mut self, sep: &str, s: &str) {
        self.lit(sep);
        // Length first: the raw bytes may contain separators.
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }
    fn ip(&mut self, sep: &str, ip: Ipv4Addr) {
        self.lit(sep);
        self.write_u32(ip.to_bits());
    }
}

/// Render `items` with `sep` between them: `each` gets the separator to
/// put before its item (`""` for the first).
fn join<S: Sink, T>(
    out: &mut S,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut each: impl FnMut(&mut S, &str, T) -> Result<(), NonFinite>,
) -> Result<(), NonFinite> {
    for (i, item) in items.into_iter().enumerate() {
        each(out, if i == 0 { "" } else { sep }, item)?;
    }
    Ok(())
}

/// `sep`-joined floats.
fn floats<S: Sink>(out: &mut S, vals: &[f64], sep: &str) -> Result<(), NonFinite> {
    join(out, vals, sep, |o, s, &v| o.float(s, v))
}

fn proto_label(p: Proto) -> &'static str {
    match p {
        Proto::Tcp => "TCP",
        Proto::Udp => "UDP",
    }
}

/// One device's models, as stored in its per-device artifact.
pub(crate) enum DeviceModels<'a> {
    /// `periodic@<device>`: models pre-sorted by destination/proto.
    Periodic(&'a [&'a PeriodicModel]),
    /// `user@<device>`: `(activity, forest)` pairs in classifier order.
    User(&'a [(Symbol, RandomForest)]),
}

impl DeviceModels<'_> {
    /// Render the artifact into `out` — its text, or its fingerprint.
    pub(crate) fn render<S: Sink>(&self, out: &mut S) -> Result<(), NonFinite> {
        match self {
            DeviceModels::Periodic(models) => render_periodic_device(out, models),
            DeviceModels::User(list) => render_user_device(out, list),
        }
    }
}

// ---------------------------------------------------------------------------
// shared parse helpers

fn bad(artifact: &str, line: usize, reason: impl Into<String>) -> StoreError {
    StoreError::BadRecord {
        artifact: artifact.to_string(),
        line,
        reason: reason.into(),
    }
}

fn pf(artifact: &str, line: usize, s: &str, what: &str) -> Result<f64, StoreError> {
    parse_f64(s).ok_or_else(|| bad(artifact, line, format!("bad {what}")))
}

fn pu(artifact: &str, line: usize, s: &str, what: &str) -> Result<usize, StoreError> {
    s.parse()
        .map_err(|_| bad(artifact, line, format!("bad {what}")))
}

fn pu32(artifact: &str, line: usize, s: &str, what: &str) -> Result<u32, StoreError> {
    s.parse()
        .map_err(|_| bad(artifact, line, format!("bad {what}")))
}

fn pip(artifact: &str, line: usize, s: &str) -> Result<Ipv4Addr, StoreError> {
    s.parse()
        .map_err(|_| bad(artifact, line, "bad IPv4 address"))
}

fn pstr(artifact: &str, line: usize, s: &str) -> Result<String, StoreError> {
    unescape(s).ok_or_else(|| bad(artifact, line, "bad escape sequence"))
}

fn pproto(artifact: &str, line: usize, s: &str) -> Result<Proto, StoreError> {
    match s {
        "TCP" => Ok(Proto::Tcp),
        "UDP" => Ok(Proto::Udp),
        _ => Err(bad(artifact, line, "bad protocol")),
    }
}

fn parse_f64_list(
    artifact: &str,
    line: usize,
    s: &str,
    what: &str,
) -> Result<Vec<f64>, StoreError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|p| pf(artifact, line, p, what)).collect()
}

// ---------------------------------------------------------------------------
// periodic.cfg — training configuration + coverage

/// Render the periodic training configuration plus coverage fraction.
pub(crate) fn render_periodic_cfg<S: Sink>(
    out: &mut S,
    cfg: &PeriodicTrainConfig,
    coverage: f64,
) -> Result<(), NonFinite> {
    let d = &cfg.detector;
    out.float("train|", cfg.timer_tolerance)?;
    out.uint("|", cfg.max_missed.into());
    out.float("|", cfg.dbscan_eps)?;
    out.uint("|", cfg.dbscan_min_pts as u64);
    out.uint("|", cfg.dbscan_max_train as u64);
    out.uint("\ndetector|", d.min_events as u64);
    out.uint("|", d.max_bins as u64);
    out.float("|", d.power_sigma)?;
    out.float("|", d.acf_threshold)?;
    out.uint("|", d.max_candidates as u64);
    out.float("|", d.merge_tolerance)?;
    out.float("|", d.min_cycles)?;
    out.float("\ncoverage|", coverage)?;
    out.lit("\n");
    Ok(())
}

/// Parse [`render_periodic_cfg`]'s output.
pub(crate) fn parse_periodic_cfg(
    artifact: &str,
    content: &str,
) -> Result<(PeriodicTrainConfig, f64), StoreError> {
    let lines: Vec<&str> = content.lines().collect();
    if lines.len() != 3 {
        return Err(bad(artifact, lines.len(), "expected exactly 3 lines"));
    }
    let t: Vec<&str> = lines[0].split('|').collect();
    if t.len() != 6 || t[0] != "train" {
        return Err(bad(artifact, 1, "bad train line"));
    }
    let d: Vec<&str> = lines[1].split('|').collect();
    if d.len() != 8 || d[0] != "detector" {
        return Err(bad(artifact, 2, "bad detector line"));
    }
    let c: Vec<&str> = lines[2].split('|').collect();
    if c.len() != 2 || c[0] != "coverage" {
        return Err(bad(artifact, 3, "bad coverage line"));
    }
    let mut cfg = PeriodicTrainConfig {
        timer_tolerance: pf(artifact, 1, t[1], "timer tolerance")?,
        max_missed: pu32(artifact, 1, t[2], "max missed")?,
        dbscan_eps: pf(artifact, 1, t[3], "dbscan eps")?,
        dbscan_min_pts: pu(artifact, 1, t[4], "dbscan min pts")?,
        dbscan_max_train: pu(artifact, 1, t[5], "dbscan max train")?,
        ..Default::default()
    };
    cfg.detector.min_events = pu(artifact, 2, d[1], "min events")?;
    cfg.detector.max_bins = pu(artifact, 2, d[2], "max bins")?;
    cfg.detector.power_sigma = pf(artifact, 2, d[3], "power sigma")?;
    cfg.detector.acf_threshold = pf(artifact, 2, d[4], "acf threshold")?;
    cfg.detector.max_candidates = pu(artifact, 2, d[5], "max candidates")?;
    cfg.detector.merge_tolerance = pf(artifact, 2, d[6], "merge tolerance")?;
    cfg.detector.min_cycles = pf(artifact, 2, d[7], "min cycles")?;
    let coverage = pf(artifact, 3, c[1], "coverage")?;
    Ok((cfg, coverage))
}

// ---------------------------------------------------------------------------
// periodic@<device> — one device's periodic models

/// Render one device's periodic models (pre-sorted by destination/proto).
pub(crate) fn render_periodic_device<S: Sink>(
    out: &mut S,
    models: &[&PeriodicModel],
) -> Result<(), NonFinite> {
    for m in models {
        out.text("model|", m.destination.as_str());
        out.lit("|");
        out.lit(proto_label(m.proto));
        out.uint("|", m.n_train as u64);
        out.lit("\nperiods|");
        floats(out, &m.periods, "|")?;
        let (means, stds) = m.standardizer().params();
        out.lit("\nstd|");
        floats(out, means, ",")?;
        out.lit("|");
        floats(out, stds, ",")?;
        let c = m.cluster();
        out.float("\ncluster|", c.eps())?;
        out.uint("|", c.dim() as u64);
        out.lit("\noffsets|");
        join(out, c.label_offsets(), "|", |o, s, &v| {
            o.uint(s, v as u64);
            Ok(())
        })?;
        out.lit("\n");
        let dim = c.dim();
        for (i, &orig) in c.core_orig().iter().enumerate() {
            out.uint("core|", orig.into());
            out.lit("|");
            floats(out, &c.cores()[i * dim..(i + 1) * dim], ",")?;
            out.lit("\n");
        }
    }
    Ok(())
}

/// Accumulator for one in-flight `model|` group during device parsing.
struct PendingPeriodic {
    line: usize,
    dest: Symbol,
    proto: Proto,
    n_train: usize,
    periods: Option<Vec<f64>>,
    std: Option<(Vec<f64>, Vec<f64>)>,
    cluster: Option<(f64, usize)>,
    offsets: Option<Vec<usize>>,
    cores: Vec<(u32, Vec<f64>)>,
}

impl PendingPeriodic {
    fn finish(self, artifact: &str, device: Ipv4Addr) -> Result<PeriodicModel, StoreError> {
        let line = self.line;
        let err = move |reason: &str| bad(artifact, line, reason.to_string());
        let periods = self.periods.ok_or_else(|| err("missing periods line"))?;
        let (means, stds) = self.std.ok_or_else(|| err("missing std line"))?;
        let (eps, dim) = self.cluster.ok_or_else(|| err("missing cluster line"))?;
        let offsets = self.offsets.ok_or_else(|| err("missing offsets line"))?;
        let mut cores = Vec::with_capacity(self.cores.len() * dim);
        let mut core_orig = Vec::with_capacity(self.cores.len());
        for (orig, row) in self.cores {
            if row.len() != dim {
                return Err(err("core row dimension mismatch"));
            }
            core_orig.push(orig);
            cores.extend_from_slice(&row);
        }
        let standardizer = Standardizer::from_params(means, stds).map_err(err)?;
        let cluster =
            DbscanModel::from_parts(eps, dim, cores, core_orig, offsets).map_err(err)?;
        PeriodicModel::from_parts(
            device,
            self.dest,
            self.proto,
            periods,
            self.n_train,
            standardizer,
            cluster,
        )
        .map_err(err)
    }
}

/// Parse [`render_periodic_device`]'s output back into models for `device`.
pub(crate) fn parse_periodic_device(
    artifact: &str,
    device: Ipv4Addr,
    content: &str,
) -> Result<Vec<PeriodicModel>, StoreError> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<(Symbol, Proto)> = FxHashSet::default();
    let mut pending: Option<PendingPeriodic> = None;
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        match fields[0] {
            "model" => {
                if let Some(p) = pending.take() {
                    out.push(p.finish(artifact, device)?);
                }
                if fields.len() != 4 {
                    return Err(bad(artifact, ln, "bad model line"));
                }
                let dest = Symbol::intern(&pstr(artifact, ln, fields[1])?);
                let proto = pproto(artifact, ln, fields[2])?;
                if !seen.insert((dest, proto)) {
                    return Err(StoreError::Duplicate {
                        artifact: artifact.to_string(),
                        key: format!("{dest}|{proto}"),
                    });
                }
                pending = Some(PendingPeriodic {
                    line: ln,
                    dest,
                    proto,
                    n_train: pu(artifact, ln, fields[3], "n_train")?,
                    periods: None,
                    std: None,
                    cluster: None,
                    offsets: None,
                    cores: Vec::new(),
                });
            }
            kind @ ("periods" | "std" | "cluster" | "offsets" | "core") => {
                let p = pending
                    .as_mut()
                    .ok_or_else(|| bad(artifact, ln, "record before model line"))?;
                match kind {
                    "periods" => {
                        let vals: Result<Vec<f64>, StoreError> = fields[1..]
                            .iter()
                            .map(|s| pf(artifact, ln, s, "period"))
                            .collect();
                        p.periods = Some(vals?);
                    }
                    "std" => {
                        if fields.len() != 3 {
                            return Err(bad(artifact, ln, "bad std line"));
                        }
                        p.std = Some((
                            parse_f64_list(artifact, ln, fields[1], "mean")?,
                            parse_f64_list(artifact, ln, fields[2], "std dev")?,
                        ));
                    }
                    "cluster" => {
                        if fields.len() != 3 {
                            return Err(bad(artifact, ln, "bad cluster line"));
                        }
                        p.cluster = Some((
                            pf(artifact, ln, fields[1], "eps")?,
                            pu(artifact, ln, fields[2], "dim")?,
                        ));
                    }
                    "offsets" => {
                        let vals: Result<Vec<usize>, StoreError> = fields[1..]
                            .iter()
                            .map(|s| pu(artifact, ln, s, "offset"))
                            .collect();
                        p.offsets = Some(vals?);
                    }
                    _ => {
                        if fields.len() != 3 {
                            return Err(bad(artifact, ln, "bad core line"));
                        }
                        p.cores.push((
                            pu32(artifact, ln, fields[1], "core origin")?,
                            parse_f64_list(artifact, ln, fields[2], "core coordinate")?,
                        ));
                    }
                }
            }
            _ => return Err(bad(artifact, ln, "unknown record kind")),
        }
    }
    if let Some(p) = pending.take() {
        out.push(p.finish(artifact, device)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// user.cfg — classification threshold

/// Render the user-action classification configuration.
pub(crate) fn render_user_cfg<S: Sink>(out: &mut S, confidence: f64) -> Result<(), NonFinite> {
    out.float("confidence|", confidence)?;
    out.lit("\n");
    Ok(())
}

/// Parse [`render_user_cfg`]'s output.
pub(crate) fn parse_user_cfg(artifact: &str, content: &str) -> Result<f64, StoreError> {
    let lines: Vec<&str> = content.lines().collect();
    if lines.len() != 1 {
        return Err(bad(artifact, lines.len(), "expected exactly 1 line"));
    }
    let f: Vec<&str> = lines[0].split('|').collect();
    if f.len() != 2 || f[0] != "confidence" {
        return Err(bad(artifact, 1, "bad confidence line"));
    }
    pf(artifact, 1, f[1], "confidence threshold")
}

// ---------------------------------------------------------------------------
// user@<device> — one device's per-activity forests

fn render_node<S: Sink>(out: &mut S, sep: &str, node: NodeSpec) -> Result<(), NonFinite> {
    out.lit(sep);
    match node {
        NodeSpec::Leaf { prob } => out.float("L:", prob),
        NodeSpec::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            out.uint("S:", feature as u64);
            out.float(":", threshold)?;
            out.uint(":", left as u64);
            out.uint(":", right as u64);
            Ok(())
        }
    }
}

fn parse_node(artifact: &str, line: usize, s: &str) -> Result<NodeSpec, StoreError> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts[0] {
        "L" if parts.len() == 2 => Ok(NodeSpec::Leaf {
            prob: pf(artifact, line, parts[1], "leaf probability")?,
        }),
        "S" if parts.len() == 5 => Ok(NodeSpec::Split {
            feature: pu(artifact, line, parts[1], "split feature")?,
            threshold: pf(artifact, line, parts[2], "split threshold")?,
            left: pu(artifact, line, parts[3], "left child")?,
            right: pu(artifact, line, parts[4], "right child")?,
        }),
        _ => Err(bad(artifact, line, "bad node encoding")),
    }
}

/// Render one device's `(activity, forest)` list, preserving order (the
/// classifier's first-wins tie-break makes order behavioral).
pub(crate) fn render_user_device<S: Sink>(
    out: &mut S,
    list: &[(Symbol, RandomForest)],
) -> Result<(), NonFinite> {
    for (act, forest) in list {
        out.text("activity|", act.as_str());
        out.uint("|", forest.n_trees() as u64);
        match forest.oob_score() {
            Some(score) => out.float("|", score)?,
            None => out.lit("|-"),
        }
        out.lit("\n");
        for tree in forest.trees() {
            out.uint("tree|", tree.n_features() as u64);
            out.lit("|");
            join(out, tree.export_nodes(), "|", render_node)?;
            out.lit("\n");
        }
    }
    Ok(())
}

/// One in-flight `activity|` group during device parsing.
struct PendingForest {
    act: Symbol,
    n_trees: usize,
    oob: Option<f64>,
    trees: Vec<DecisionTree>,
    line: usize,
}

/// Parse [`render_user_device`]'s output.
pub(crate) fn parse_user_device(
    artifact: &str,
    content: &str,
) -> Result<Vec<(Symbol, RandomForest)>, StoreError> {
    let mut out: Vec<(Symbol, RandomForest)> = Vec::new();
    let mut seen: FxHashSet<Symbol> = FxHashSet::default();
    let mut pending: Option<PendingForest> = None;
    let finish =
        |p: PendingForest, out: &mut Vec<(Symbol, RandomForest)>| -> Result<(), StoreError> {
            if p.trees.len() != p.n_trees {
                return Err(bad(artifact, p.line, "tree count mismatch"));
            }
            let forest = RandomForest::from_trees(p.trees, p.oob)
                .map_err(|e| bad(artifact, p.line, e.to_string()))?;
            out.push((p.act, forest));
            Ok(())
        };
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        match fields[0] {
            "activity" => {
                if let Some(p) = pending.take() {
                    finish(p, &mut out)?;
                }
                if fields.len() != 4 {
                    return Err(bad(artifact, ln, "bad activity line"));
                }
                let act = Symbol::intern(&pstr(artifact, ln, fields[1])?);
                if !seen.insert(act) {
                    return Err(StoreError::Duplicate {
                        artifact: artifact.to_string(),
                        key: act.as_str().to_string(),
                    });
                }
                let n_trees = pu(artifact, ln, fields[2], "tree count")?;
                let oob = if fields[3] == "-" {
                    None
                } else {
                    Some(pf(artifact, ln, fields[3], "oob score")?)
                };
                pending = Some(PendingForest {
                    act,
                    n_trees,
                    oob,
                    trees: Vec::new(),
                    line: ln,
                });
            }
            "tree" => {
                let p = pending
                    .as_mut()
                    .ok_or_else(|| bad(artifact, ln, "tree before activity line"))?;
                if fields.len() < 3 {
                    return Err(bad(artifact, ln, "bad tree line"));
                }
                let n_features = pu(artifact, ln, fields[1], "feature count")?;
                let nodes: Result<Vec<NodeSpec>, StoreError> = fields[2..]
                    .iter()
                    .map(|s| parse_node(artifact, ln, s))
                    .collect();
                let tree = DecisionTree::from_nodes(nodes?, n_features)
                    .map_err(|e| bad(artifact, ln, e.to_string()))?;
                p.trees.push(tree);
            }
            _ => return Err(bad(artifact, ln, "unknown record kind")),
        }
    }
    if let Some(p) = pending.take() {
        finish(p, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// names — device display names

/// Render device display names, sorted by address.
pub(crate) fn render_names<S: Sink>(
    out: &mut S,
    names: &HashMap<Ipv4Addr, String>,
) -> Result<(), NonFinite> {
    let mut entries: Vec<(&Ipv4Addr, &String)> = names.iter().collect();
    entries.sort_by_key(|(ip, _)| **ip);
    for (ip, name) in entries {
        out.ip("name|", *ip);
        out.text("|", name);
        out.lit("\n");
    }
    Ok(())
}

/// Parse [`render_names`]'s output.
pub(crate) fn parse_names(
    artifact: &str,
    content: &str,
) -> Result<HashMap<Ipv4Addr, String>, StoreError> {
    let mut out = HashMap::new();
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != 3 || fields[0] != "name" {
            return Err(bad(artifact, ln, "bad name line"));
        }
        let ip = pip(artifact, ln, fields[1])?;
        if out.contains_key(&ip) {
            return Err(StoreError::Duplicate {
                artifact: artifact.to_string(),
                key: ip.to_string(),
            });
        }
        out.insert(ip, pstr(artifact, ln, fields[2])?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// system — configuration + training traces (PFSM re-inferred on load)

/// Render the system model as its configuration plus training traces. The
/// PFSM itself is *not* persisted: [`SystemModel::from_traces`] is
/// deterministic, so config + traces rebuild it bit-identically, and the
/// artifact stays human-readable.
pub(crate) fn render_system<S: Sink>(out: &mut S, model: &SystemModel) -> Result<(), NonFinite> {
    let cfg = model.config();
    out.float("cfg|", cfg.trace_gap)?;
    out.uint("\npfsm|", cfg.pfsm.refine.into());
    out.uint("|", cfg.pfsm.max_splits as u64);
    out.float("|", cfg.pfsm.smoothing_alpha)?;
    out.lit("\n");
    for trace in model.log.labeled_traces() {
        out.lit("trace|");
        join(out, trace, "|", |o, s, label| {
            o.text(s, label);
            Ok(())
        })?;
        out.lit("\n");
    }
    Ok(())
}

/// Parse [`render_system`]'s output and re-infer the model.
pub(crate) fn parse_system(artifact: &str, content: &str) -> Result<SystemModel, StoreError> {
    let mut lines = content.lines().enumerate();
    let (_, cfg_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 1, "missing cfg line"))?;
    let c: Vec<&str> = cfg_line.split('|').collect();
    if c.len() != 2 || c[0] != "cfg" {
        return Err(bad(artifact, 1, "bad cfg line"));
    }
    let (_, pfsm_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 2, "missing pfsm line"))?;
    let p: Vec<&str> = pfsm_line.split('|').collect();
    if p.len() != 4 || p[0] != "pfsm" {
        return Err(bad(artifact, 2, "bad pfsm line"));
    }
    let mut cfg = SystemModelConfig {
        trace_gap: pf(artifact, 1, c[1], "trace gap")?,
        ..Default::default()
    };
    cfg.pfsm.refine = match p[1] {
        "0" => false,
        "1" => true,
        _ => return Err(bad(artifact, 2, "bad refine flag")),
    };
    cfg.pfsm.max_splits = pu(artifact, 2, p[2], "max splits")?;
    cfg.pfsm.smoothing_alpha = pf(artifact, 2, p[3], "smoothing alpha")?;
    let mut traces: Vec<Vec<String>> = Vec::new();
    for (i, line) in lines {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields[0] != "trace" {
            return Err(bad(artifact, ln, "unknown record kind"));
        }
        let labels: Result<Vec<String>, StoreError> = fields[1..]
            .iter()
            .map(|s| pstr(artifact, ln, s))
            .collect();
        traces.push(labels?);
    }
    Ok(SystemModel::from_traces(&traces, &cfg))
}

// ---------------------------------------------------------------------------
// monitor — streaming monitor configuration + cross-window state

/// Render the monitor configuration and exported streaming state.
pub(crate) fn render_monitor<S: Sink>(
    out: &mut S,
    cfg: &MonitorConfig,
    state: &MonitorState,
) -> Result<(), NonFinite> {
    out.float("cfg|", cfg.periodic_threshold)?;
    out.float("|", cfg.short_sigma)?;
    out.float("|", cfg.long_confidence)?;
    out.uint("|", cfg.long_min_n as u64);
    out.float("|", cfg.long_min_count_diff)?;
    out.float("|", cfg.trace_gap)?;
    out.uint("\nwindows|", state.windows);
    out.lit("\n");
    for &((ip, dest, proto), ts) in &state.last_seen {
        out.ip("timer|", ip);
        out.text("|", dest.as_str());
        out.lit("|");
        out.lit(proto_label(proto));
        out.float("|", ts)?;
        out.lit("\n");
    }
    for &ip in &state.absence_flagged {
        out.ip("absent|", ip);
        out.lit("\n");
    }
    for (from, to) in &state.long_flagged {
        out.text("long|", from.as_str());
        out.text("|", to.as_str());
        out.lit("\n");
    }
    Ok(())
}

/// Parse [`render_monitor`]'s output.
pub(crate) fn parse_monitor(
    artifact: &str,
    content: &str,
) -> Result<(MonitorConfig, MonitorState), StoreError> {
    let mut lines = content.lines().enumerate();
    let (_, cfg_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 1, "missing cfg line"))?;
    let c: Vec<&str> = cfg_line.split('|').collect();
    if c.len() != 7 || c[0] != "cfg" {
        return Err(bad(artifact, 1, "bad cfg line"));
    }
    let cfg = MonitorConfig {
        periodic_threshold: pf(artifact, 1, c[1], "periodic threshold")?,
        short_sigma: pf(artifact, 1, c[2], "short sigma")?,
        long_confidence: pf(artifact, 1, c[3], "long confidence")?,
        long_min_n: pu(artifact, 1, c[4], "long min n")?,
        long_min_count_diff: pf(artifact, 1, c[5], "long min count diff")?,
        trace_gap: pf(artifact, 1, c[6], "trace gap")?,
    };
    let mut state = MonitorState::default();
    // Duplicate keys are a hard error, matching every other artifact:
    // `Monitor::restore` collects these records into maps/sets, so
    // last-wins would silently mask a corrupted or hand-edited snapshot.
    let mut seen_timers: FxHashSet<(Ipv4Addr, Symbol, Proto)> = FxHashSet::default();
    let mut seen_absent: FxHashSet<Ipv4Addr> = FxHashSet::default();
    let mut seen_long: FxHashSet<(Symbol, Symbol)> = FxHashSet::default();
    let mut seen_windows = false;
    let dup = |key: String| StoreError::Duplicate {
        artifact: artifact.to_string(),
        key,
    };
    for (i, line) in lines {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        match fields[0] {
            // Ledger window counter; absent in pre-PR-10 snapshots, which
            // restart sequence numbering at 0.
            "windows" if fields.len() == 2 => {
                if seen_windows {
                    return Err(dup("windows".to_string()));
                }
                seen_windows = true;
                state.windows = fields[1]
                    .parse()
                    .map_err(|_| bad(artifact, ln, "bad window count"))?;
            }
            "timer" if fields.len() == 5 => {
                let ip = pip(artifact, ln, fields[1])?;
                let dest = Symbol::intern(&pstr(artifact, ln, fields[2])?);
                let proto = pproto(artifact, ln, fields[3])?;
                let ts = pf(artifact, ln, fields[4], "timer timestamp")?;
                if !seen_timers.insert((ip, dest, proto)) {
                    return Err(dup(format!("timer|{ip}|{dest}|{proto}")));
                }
                state.last_seen.push(((ip, dest, proto), ts));
            }
            "absent" if fields.len() == 2 => {
                let ip = pip(artifact, ln, fields[1])?;
                if !seen_absent.insert(ip) {
                    return Err(dup(format!("absent|{ip}")));
                }
                state.absence_flagged.push(ip);
            }
            "long" if fields.len() == 3 => {
                let from = Symbol::intern(&pstr(artifact, ln, fields[1])?);
                let to = Symbol::intern(&pstr(artifact, ln, fields[2])?);
                if !seen_long.insert((from, to)) {
                    return Err(dup(format!("long|{from}|{to}")));
                }
                state.long_flagged.push((from, to));
            }
            _ => return Err(bad(artifact, ln, "unknown record kind")),
        }
    }
    Ok((cfg, state))
}

// ---------------------------------------------------------------------------
// health — fleet health registry checkpoint

/// Render the health registry export: the hysteresis config plus one
/// `dev|` row per registered device, already in device-name order.
pub(crate) fn render_health<S: Sink>(out: &mut S, export: &HealthExport) -> Result<(), NonFinite> {
    let c = &export.cfg;
    out.float("cfg|", c.degrade_drop_frac)?;
    out.uint("|", c.recover_after.into());
    out.uint("|", c.stale_after.into());
    out.lit("\n");
    for (device, state, clean_streak, silent_windows) in &export.records {
        out.text("dev|", device.as_str());
        out.lit("|");
        out.lit(state.label());
        out.uint("|", (*clean_streak).into());
        out.uint("|", (*silent_windows).into());
        out.lit("\n");
    }
    Ok(())
}

/// Parse [`render_health`]'s output.
pub(crate) fn parse_health(artifact: &str, content: &str) -> Result<HealthExport, StoreError> {
    let mut lines = content.lines().enumerate();
    let (_, cfg_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 1, "missing cfg line"))?;
    let c: Vec<&str> = cfg_line.split('|').collect();
    if c.len() != 4 || c[0] != "cfg" {
        return Err(bad(artifact, 1, "bad cfg line"));
    }
    let cfg = HealthConfig {
        degrade_drop_frac: pf(artifact, 1, c[1], "degrade drop fraction")?,
        recover_after: pu32(artifact, 1, c[2], "recover after")?,
        stale_after: pu32(artifact, 1, c[3], "stale after")?,
    };
    let mut records = Vec::new();
    let mut seen: FxHashSet<Symbol> = FxHashSet::default();
    for (i, line) in lines {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != 5 || fields[0] != "dev" {
            return Err(bad(artifact, ln, "unknown record kind"));
        }
        let device = Symbol::intern(&pstr(artifact, ln, fields[1])?);
        let state = HealthState::parse(fields[2])
            .ok_or_else(|| bad(artifact, ln, "bad health state"))?;
        let clean_streak = pu32(artifact, ln, fields[3], "clean streak")?;
        let silent_windows = pu32(artifact, ln, fields[4], "silent windows")?;
        if !seen.insert(device) {
            return Err(StoreError::Duplicate {
                artifact: artifact.to_string(),
                key: format!("dev|{device}"),
            });
        }
        records.push((device, state, clean_streak, silent_windows));
    }
    Ok(HealthExport { cfg, records })
}

// ---------------------------------------------------------------------------
// interner — process-global symbol table warm start

/// Render the interner snapshot (id order).
pub(crate) fn render_interner<S: Sink>(out: &mut S, strings: &[&str]) -> Result<(), NonFinite> {
    for s in strings {
        out.text("sym|", s);
        out.lit("\n");
    }
    Ok(())
}

/// Parse [`render_interner`]'s output, re-interning every string in order.
/// Returns the number of symbols interned.
pub(crate) fn parse_interner(artifact: &str, content: &str) -> Result<usize, StoreError> {
    let mut n = 0;
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != 2 || fields[0] != "sym" {
            return Err(bad(artifact, ln, "bad symbol line"));
        }
        Symbol::intern(&pstr(artifact, ln, fields[1])?);
        n += 1;
    }
    Ok(n)
}
