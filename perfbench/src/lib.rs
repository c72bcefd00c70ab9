//! End-to-end and per-layer benchmark of the BehavIoT pipeline.
//!
//! Every workload starts from pcap bytes generated from a seed and drives
//! the public APIs the way a deployment would: `train` learns and persists
//! the models, `serve-daily` and `serve-hourly-faulty` replay uncontrolled
//! days through the audited monitor. See `README.md` for the metrics.

pub mod host;
pub mod selftime;
pub mod workload;

pub use workload::{run, Metric, Opts, Outcome, Size, Workload, DEFAULT_SEED};
