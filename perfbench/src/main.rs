//! One benchmark for ordered-logic: four workloads, each in its own
//! process, printing every end-to-end metric (untraced run) or every
//! per-layer metric (traced run) as the last line of stdout.
//!
//! ```text
//! perfbench --workload <cold_load|warm_reads|write_stream|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `perfbench/README.md` for what each workload and metric means.

mod cold_load;
mod gen;
mod openloop;
mod serve_mixed;
mod trace;
mod util;
mod warm_reads;
mod write_stream;

use olp_server::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Tracer, LAYERS};
use util::Samples;

/// How many times each workload sets itself up; `setup_s` and the
/// set-up `load` samples are medians over these.
pub const SETUP_REPS: usize = 5;

/// Answers checked and answers found wrong.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Counts one checked answer; a wrong one is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Time windows per measured phase. Latency quantiles are taken per
/// window and combined by their median (see `util::Samples`), so a
/// stretch of the run in which the host was slow cannot own its figure.
pub const WINDOWS: u32 = 6;

/// One measured phase: its latency samples and its spans.
pub struct Phase {
    pub s: Samples,
    pub tr: Tracer,
    start: Instant,
    seconds: f64,
}

impl Phase {
    pub fn new(traced: bool, seconds: f64) -> Phase {
        Phase {
            s: Samples::default(),
            tr: Tracer::new(traced),
            start: Instant::now(),
            seconds,
        }
    }

    /// Starts the phase's clock again (after set-up).
    pub fn restart(&mut self) {
        self.start = Instant::now();
    }

    pub fn done(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Records a latency of kind `group` in the window it ended in.
    pub fn record(&mut self, name: &'static str, group: u32, d: Duration) {
        let at = self.start.elapsed().as_secs_f64() / self.seconds;
        let window = ((at * f64::from(WINDOWS)) as u32).min(WINDOWS - 1);
        self.s.push_at(name, group, window, d);
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Set-up durations, one per repetition.
    pub setups: Vec<Duration>,
    /// The untraced phase (all of `--seconds` when untraced, half when
    /// traced).
    pub main: Phase,
    /// The traced phase (traced runs only).
    pub traced: Option<Phase>,
    /// Which sample set is the workload's own operation (`op_*`).
    pub op: &'static str,
    /// Per-layer values that are not span medians (counts, bytes,
    /// waits), keyed by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Workload parameters for the report line.
    pub info: Vec<(&'static str, Json)>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// End-to-end metrics besides `setup_s` and `peak_rss_mb`: (name,
/// unit, sample set, quantile, scale from ns). `op` is the workload's
/// own operation (see `Outcome::op`).
const E2E: [(&str, &str, &str, f64, f64); 4] = [
    ("op_p50_ms", "ms", "op", 0.5, 1e-6),
    ("op_p95_ms", "ms", "op", 0.95, 1e-6),
    ("read_p50_us", "us", "read", 0.5, 1e-3),
    ("read_p99_us", "us", "read", 0.99, 1e-3),
];

/// The finer-grained named metrics, reported (with sample counts) on the
/// workloads that produce them.
const NAMED: [(&str, &str, &str, f64, f64); 9] = [
    ("load_p50_ms", "ms", "load", 0.5, 1e-6),
    ("read_p50_us", "us", "read", 0.5, 1e-3),
    ("read_p99_us", "us", "read", 0.99, 1e-3),
    ("semantic_p50_ms", "ms", "semantic", 0.5, 1e-6),
    ("semantic_p95_ms", "ms", "semantic", 0.95, 1e-6),
    ("write_p50_ms", "ms", "write", 0.5, 1e-6),
    ("write_p95_ms", "ms", "write", 0.95, 1e-6),
    ("retract_p50_ms", "ms", "retract", 0.5, 1e-6),
    ("recover_ms", "ms", "recover", 0.5, 1e-6),
];

/// Per-layer metrics read from span medians: (metric, unit, span, scale).
const LAYER_SPANS: [(&str, &str, &str, f64); 27] = [
    ("parser.parse_ms", "ms", "parser.parse", 1e-6),
    ("analyze.lints_ms", "ms", "analyze.lints", 1e-6),
    ("analyze.profile_ms", "ms", "analyze.profile", 1e-6),
    ("ground.delta_new_ms", "ms", "ground.delta_new", 1e-6),
    ("ground.smart_ms", "ms", "ground.smart", 1e-6),
    ("ground.flat_ms", "ms", "ground.flat", 1e-6),
    ("semantics.view_ms", "ms", "semantics.view", 1e-6),
    ("semantics.lfp_ms", "ms", "semantics.lfp", 1e-6),
    ("semantics.search_ms", "ms", "semantics.search", 1e-6),
    ("semantics.explain_ms", "ms", "semantics.explain", 1e-6),
    ("kb.build_ms", "ms", "kb.build", 1e-6),
    ("kb.model_ms", "ms", "kb.model", 1e-6),
    ("kb.truth_us", "us", "kb.truth", 1e-3),
    ("kb.query_us", "us", "kb.query", 1e-3),
    ("kb.why_ms", "ms", "kb.why", 1e-6),
    ("kb.stable_ms", "ms", "kb.stable", 1e-6),
    ("kb.skeptical_ms", "ms", "kb.skeptical", 1e-6),
    ("kb.credulous_ms", "ms", "kb.credulous", 1e-6),
    ("kb.apply_assert_ms", "ms", "kb.apply_assert", 1e-6),
    ("kb.apply_retract_ms", "ms", "kb.apply_retract", 1e-6),
    ("kb.revalidate_ms", "ms", "kb.revalidate", 1e-6),
    ("kb.snapshot_ms", "ms", "kb.snapshot", 1e-6),
    ("kb.replay_ms", "ms", "kb.replay", 1e-6),
    ("store.wal_log_ms", "ms", "store.wal_log", 1e-6),
    ("store.compact_ms", "ms", "store.compact", 1e-6),
    ("store.open_ms", "ms", "store.open", 1e-6),
    ("server.request_us", "us", "server.request", 1e-3),
];

/// Per-layer metrics the workloads supply as values: (metric, unit).
const LAYER_VALUES: [(&str, &str); 10] = [
    ("ground.rules", "count"),
    ("ground.atoms", "count"),
    ("semantics.models", "count"),
    ("store.wal_bytes_per_op", "bytes"),
    ("store.snapshot_bytes", "bytes"),
    ("server.write_wait_ms", "ms"),
    ("server.read_wait_us", "us"),
    ("server.ops", "count"),
    ("server.busy", "count"),
    ("server.gen_late_pct", "%"),
];

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Float(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn median_secs(v: &[Duration]) -> f64 {
    let mut s: Vec<f64> = v.iter().map(Duration::as_secs_f64).collect();
    s.sort_by(f64::total_cmp);
    util::quantile(&s, 0.5)
}

/// The sample set behind `key` (the workload's own op for `op`).
fn samples_key<'a>(out: &'a Outcome, key: &'a str) -> &'a str {
    if key == "op" {
        out.op
    } else {
        key
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let run: fn(&Args, &mut Checks) -> Result<Outcome, String> = match args.workload.as_str() {
        "cold_load" => cold_load::run,
        "warm_reads" => warm_reads::run,
        "write_stream" => write_stream::run,
        "serve_mixed" => serve_mixed::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let out = match run(&args, &mut checks) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for n in &checks.notes {
        eprintln!("perfbench: wrong answer: {n}");
    }
    let rss = util::peak_rss_mb();
    let setup_s = median_secs(&out.setups);
    let s = &out.main.s;

    // Report line: parameters, host, and every named metric with its
    // unit and sample count.
    let threads_env = std::env::var("OLP_THREADS").map_or(Json::Null, Json::Str);
    let mut named = vec![
        (
            "setup_s".to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Float(setup_s)),
                ("unit".into(), Json::Str("s".into())),
                ("n".into(), Json::Int(out.setups.len() as i64)),
            ]),
        ),
        ("peak_rss_mb".to_string(), metric(rss, "MB")),
    ];
    for (name, unit, key, q, scale) in NAMED {
        if s.count(key) > 0 {
            named.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(s.q(key, q) * scale)),
                    ("unit".into(), Json::Str(unit.into())),
                    ("n".into(), Json::Int(s.count(key) as i64)),
                ]),
            ));
        }
    }
    named.push((
        "failed_share".to_string(),
        metric(
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "share",
        ),
    ));
    let mut report = vec![
        ("report".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Float(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "host_cores".to_string(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        (
            "default_threads".to_string(),
            Json::Int(olp_kb::default_threads() as i64),
        ),
        ("OLP_THREADS".to_string(), threads_env),
    ];
    report.extend(out.info.iter().map(|(k, v)| (k.to_string(), v.clone())));
    report.push(("metrics".to_string(), Json::Obj(named)));
    println!("{}", Json::Obj(report).render());

    let mut metrics: Vec<(String, Json)> = Vec::new();
    if !args.trace {
        metrics.push(("setup_s".into(), metric(setup_s, "s")));
        for (name, unit, key, q, scale) in E2E {
            metrics.push((
                name.into(),
                metric(s.q(samples_key(&out, key), q) * scale, unit),
            ));
        }
        metrics.push(("peak_rss_mb".into(), metric(rss, "MB")));
    } else {
        let ph = out
            .traced
            .as_ref()
            .expect("traced runs have a traced phase");
        let tr = &ph.tr;
        for (name, unit, span, scale) in LAYER_SPANS {
            metrics.push((name.into(), metric(tr.median_ns(span) * scale, unit)));
        }
        for (name, unit) in LAYER_VALUES {
            let v = out.layer.get(name).copied().unwrap_or(0.0);
            metrics.push((name.into(), metric(v, unit)));
        }
        let sum = tr.summary();
        for layer in LAYERS {
            let own = sum.self_ns.get(layer).copied().unwrap_or(0);
            let share = if sum.req_ns == 0 {
                0.0
            } else {
                100.0 * own as f64 / sum.req_ns as f64
            };
            metrics.push((format!("{layer}.self_pct"), metric(share, "%")));
        }
        metrics.push((
            "trace.unattributed_pct".into(),
            metric(100.0 * sum.unattributed, "%"),
        ));
        metrics.push((
            "trace.split_gap_pct".into(),
            metric(100.0 * sum.split_gap, "%"),
        ));
        // Tracing overhead: the workload's own op, traced phase minus
        // untraced phase of this same process.
        let key = out.op;
        let (untraced, traced) = (s.q(key, 0.5), ph.s.q(key, 0.5));
        let overhead = if untraced > 0.0 {
            100.0 * (traced - untraced) / untraced
        } else {
            0.0
        };
        metrics.push(("trace.overhead_pct".into(), metric(overhead, "%")));
        eprintln!("{}", self_time_table(&args.workload, &sum, overhead));
        let path = format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        match tr.dump(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("perfbench: span dump written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(checks.attempted as i64)),
        ("failed".into(), Json::Int(checks.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

/// The per-layer self-time table of a traced run, for stderr.
fn self_time_table(workload: &str, sum: &trace::Summary, overhead_pct: f64) -> String {
    let mut out = format!("per-layer self time, {workload} (traced phase):\n");
    let total = sum.req_ns.max(1) as f64;
    for layer in LAYERS {
        let own = sum.self_ns.get(layer).copied().unwrap_or(0) as f64;
        out.push_str(&format!(
            "  {layer:<10} {:>10.3} ms  {:>6.2}%\n",
            own / 1e6,
            100.0 * own / total
        ));
    }
    out.push_str(&format!(
        "  unattributed share of request time: {:.2}%\n  split gap: {:.2}%\n  tracing overhead on the workload's op p50: {overhead_pct:.2}%",
        100.0 * sum.unattributed,
        100.0 * sum.split_gap
    ));
    out
}
