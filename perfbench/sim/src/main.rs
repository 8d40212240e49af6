//! One benchmark simulation per process.
//!
//! ```text
//! perfbench-sim run     --workload <fleet_burst|clone_wanp|latex_wanc> --seed <n>
//!                       [--trace [--spans <file>]] [--checks]
//! perfbench-sim library --workload <name> --seed <n>
//! perfbench-sim local   --seed <n>
//! ```
//!
//! * `run` builds the workload from the public crate APIs and runs it once,
//!   with the host-speed probe before and after (`probe_cpu_s`, the median
//!   of [`PROBE_SAMPLES`] samples on each side).
//!   `--trace` splices the layer wrappers in and adds per-layer metrics
//!   (`--spans` also writes every span out); `--checks` adds the
//!   filesystem-digest output checks.
//! * `library` runs the library's own scenario (`run_fleet`,
//!   `run_parallel_cloning`, `run_app_scenario(WanC)`) at the workload's
//!   parameters, for the equivalence check.
//! * `local` runs `latex_wanc`'s guest-op sequence on a plain local
//!   filesystem and reports its digest, the reference for the flush.
//!
//! Each prints one JSON object on its last stdout line; `run.py` next to
//! this package orchestrates the runs and checks.

mod host;
mod layers;
mod topo;
mod trace;
mod work;

use simnet::telemetry::json_escape;
use work::{Outcome, RunCfg};

/// Host-speed probe samples taken before and again after a run.
const PROBE_SAMPLES: usize = 3;

// The result line is written by hand rather than with `simnet`'s
// `JsonValue`, which rounds floats to six decimals: virtual-time results
// are compared bit for bit, and metrics keep all their digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn object<K: AsRef<str>>(pairs: &[(K, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", json_escape(k.as_ref()), num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn hex(v: Option<u64>) -> String {
    v.map_or("null".into(), |d| format!("\"{d:016x}\""))
}

fn report_run(workload: &str, cfg: RunCfg, o: &Outcome, probe_cpu_s: f64) -> String {
    let layers = match &o.spans {
        Some(spans) => object(&layers::per_layer(o, spans, workload)),
        None => "null".into(),
    };
    let checks: Vec<String> = o
        .check_failures
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    format!(
        concat!(
            "{{\"mode\": \"run\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
            "\"vt\": {}, \"attempted\": {}, \"failed\": {}, \"setup_s\": {}, ",
            "\"wall_s\": {}, \"cpu_s\": {}, \"probe_cpu_s\": {}, \"ctx_switches\": {}, ",
            "\"peak_rss_mb\": {}, ",
            "\"events\": {}, \"procs\": {}, \"fingerprint\": \"{:016x}\", ",
            "\"server_digest\": {}, \"check_failures\": [{}], \"layers\": {}}}"
        ),
        workload,
        cfg.seed,
        cfg.trace,
        object(&o.vt),
        o.attempted,
        o.failed,
        num(o.setup_s),
        num(o.host.wall_s),
        num(o.host.cpu_s),
        num(probe_cpu_s),
        o.host.ctx_switches,
        num(o.host.peak_rss_mb),
        o.events,
        o.procs,
        work::fingerprint(&o.snapshot, o.events, o.procs, o.end_s),
        hex(o.server_digest),
        checks.join(", "),
        layers,
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-sim run|library --workload <fleet_burst|clone_wanp|latex_wanc> \
         --seed <n> [--trace] [--checks]\n       perfbench-sim local --seed <n>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_else(|| usage());
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").unwrap_or_default();
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let line = match mode.as_str() {
        "run" => {
            let cfg = RunCfg {
                seed,
                trace: args.iter().any(|a| a == "--trace"),
                checks: args.iter().any(|a| a == "--checks"),
            };
            let mut probes: Vec<f64> = (0..PROBE_SAMPLES).map(|_| host::probe()).collect();
            let o = match workload.as_str() {
                "fleet_burst" => work::fleet(cfg),
                "clone_wanp" => work::wanp(cfg),
                "latex_wanc" => work::latex(cfg),
                _ => usage(),
            };
            if let (Some(path), Some(spans)) = (value("--spans"), &o.spans) {
                trace::write_spans(std::path::Path::new(&path), spans).expect("write spans");
            }
            probes.extend((0..PROBE_SAMPLES).map(|_| host::probe()));
            probes.sort_by(f64::total_cmp);
            let probe_cpu_s = (probes[PROBE_SAMPLES - 1] + probes[PROBE_SAMPLES]) / 2.0;
            report_run(&workload, cfg, &o, probe_cpu_s)
        }
        "library" => {
            if !["fleet_burst", "clone_wanp", "latex_wanc"].contains(&workload.as_str()) {
                usage();
            }
            let r = work::library(&workload, seed);
            format!(
                "{{\"mode\": \"library\", \"workload\": \"{}\", \"seed\": {}, \"vt\": {}, \
                 \"fingerprint\": \"{:016x}\", \"server_digest\": {}}}",
                workload,
                seed,
                object(&r.vt),
                work::fingerprint(&r.snapshot, r.events, r.procs, r.end_s),
                hex(r.server_digest),
            )
        }
        "local" => format!(
            "{{\"mode\": \"local\", \"seed\": {}, \"server_digest\": {}}}",
            seed,
            hex(Some(work::latex_local_digest(seed)))
        ),
        _ => usage(),
    };
    println!("{line}");
}
