//! Command-line entry of the benchmark:
//!
//! ```text
//! behaviot-perfbench --workload <train|serve-daily|serve-hourly-faulty>
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR]
//!     [--meta key=value]...
//! ```
//!
//! Prints one metadata line (`{"meta": {...}}`), then, as the last line, the
//! result object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a check failed and 2 on a usage error.

use behaviot_perfbench::{run, Opts, Outcome, Size, Workload, DEFAULT_SEED};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("behaviot-perfbench: {msg}");
    ExitCode::from(2)
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn result_line(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted,
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json_str(&mut s, m.name);
        // Non-finite values are not JSON; such a run is already incorrect.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(s, ": {{\"value\": {value:?}, \"unit\": ");
        json_str(&mut s, m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn meta_line(meta: &[(String, String)]) -> String {
    let mut s = String::from("{\"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json_str(&mut s, k);
        s.push_str(": ");
        json_str(&mut s, v);
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::full();
    let mut work_dir = PathBuf::from(".bench_work");
    let mut extra_meta = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--smoke" {
            size = Size::smoke();
            continue;
        }
        let Some(v) = args.next() else {
            return usage(&format!("{a} requires a value"));
        };
        match a.as_str() {
            "--workload" => match Workload::parse(&v) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {v:?}")),
            },
            "--seed" => match v.parse() {
                Ok(n) => seed = n,
                Err(e) => return usage(&format!("invalid --seed {v:?}: {e}")),
            },
            "--seconds" => match v.parse::<f64>() {
                Ok(n) if n >= 0.0 && n.is_finite() => seconds = n,
                _ => return usage(&format!("invalid --seconds {v:?}")),
            },
            "--trace" => match v.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("invalid --trace {v:?}: expected 0 or 1")),
            },
            "--work-dir" => work_dir = PathBuf::from(v),
            "--meta" => match v.split_once('=') {
                Some((k, val)) => extra_meta.push((k.to_string(), val.to_string())),
                None => return usage(&format!("invalid --meta {v:?}: expected key=value")),
            },
            _ => return usage(&format!("unknown argument {a:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        size,
        work_dir,
    };
    let mut outcome = run(&opts);
    for f in &outcome.failures {
        eprintln!("behaviot-perfbench: check failed: {f}");
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    outcome.meta.push(("cores".to_string(), cores.to_string()));
    outcome.meta.extend(extra_meta);
    println!("{}", meta_line(&outcome.meta));
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
