//! The repository benchmark: three workloads driven through the crates'
//! public entry points, end-to-end metrics from an untraced timed pass,
//! and per-layer metrics from a separate traced replay.
//!
//! * `study` — `tile_opt::study` over seeded experiments (Figure 6);
//! * `validate` — `Advisor::advise` with `validate: true` (paper §6);
//! * `serve` — an in-process `advisor::Server` over a precomputed store,
//!   two closed-loop connections.
//!
//! See `README.md` beside this crate for the metric table and why each
//! workload exists.

pub mod gen;
mod serve;
mod study;
pub mod trace;
mod validate;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups a run spreads over its timed pass (see [`Setups`]).
const SETUP_SAMPLES: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    Validate,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Study, Workload::Validate, Workload::Serve];

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Validate => "validate",
            Workload::Serve => "serve",
        }
    }
}

/// A fault the self-tests inject into the harness to show that an
/// oracle catches it. Runs from the command line never inject one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// `study`: perturb one prediction of the composite's within-band set.
    PerturbWithin,
    /// `validate`: perturb one cell of the tiled output grid.
    PerturbGridCell,
    /// `serve`: flip one byte of the socket answer.
    FlipAnswerByte,
    /// `validate`, traced: the replay leaves out the candidates' runs,
    /// which `trace.coverage` must show.
    DropReplayedCall,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fault: Fault,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, printed with `--trace 0`. Every workload reports
/// every one; `light`/`heavy` are the cheap and costly op classes of the
/// workload's mix (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "frac"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("work_per_s", "1/s"),
    ("light_ms.p50", "ms"),
    ("heavy_ms.p50", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload
/// bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hhc-tiling.plan.calls", "count"),
    ("hhc-tiling.plan.us_per_call", "us"),
    ("hhc-tiling.plan.self_frac", "frac"),
    ("hhc-tiling.plan.reject_frac", "frac"),
    ("gpu-sim.lower.us_per_call", "us"),
    ("gpu-sim.lower.self_frac", "frac"),
    ("gpu-sim.simulate.calls", "count"),
    ("gpu-sim.simulate.us_per_call", "us"),
    ("gpu-sim.simulate.self_frac", "frac"),
    ("gpu-sim.simulate.launch_fail_frac", "frac"),
    ("tile-opt.evaluate.cache_hit_frac", "frac"),
    ("tile-opt.study.self_frac", "frac"),
    ("tile-opt.study.radius_model_mismatch_frac", "frac"),
    ("hhc-tiling.exec.calls", "count"),
    ("hhc-tiling.exec.mpoints_per_s", "Mpt/s"),
    ("hhc-tiling.exec.self_frac", "frac"),
    ("hhc-tiling.exec.speedup_vs_1t", "x"),
    ("hhc-tiling.exec.roofline_ratio", "frac"),
    ("hhc-tiling.exec.roofline_missing_frac", "frac"),
    ("tile-opt.run_candidates.executed_frac", "frac"),
    ("time-model.sweep.points", "count"),
    ("time-model.sweep.ns_per_point", "ns"),
    ("time-model.sweep.self_frac", "frac"),
    ("tile-opt.space.us_per_call", "us"),
    ("tile-opt.space.feasible_points", "count"),
    ("tile-opt.within.points", "count"),
    ("advisor.compute.ms_per_call", "ms"),
    ("advisor.compute.self_frac", "frac"),
    ("microbench.measure.calls", "count"),
    ("microbench.measure.ms_per_call", "ms"),
    ("microbench.measure.self_frac", "frac"),
    ("advisor.parse.us_per_call", "us"),
    ("advisor.key.us_per_call", "us"),
    ("advisor.lookup.us_per_call", "us"),
    ("advisor.serialize.us_per_call", "us"),
    ("advisor.store_hit_frac", "frac"),
    ("advisor.server.us_per_call", "us"),
    ("advisor.server.self_frac", "frac"),
    ("advisor.server.shed_frac", "frac"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run manifest entries, values already JSON-encoded.
    pub manifest: Vec<(&'static str, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    pub fn manifest_line(&self) -> String {
        let fields: Vec<String> = self
            .manifest
            .iter()
            .map(|(k, v)| format!(r#""{k}":{v}"#))
            .collect();
        format!(r#"{{"manifest":{{{}}}}}"#, fields.join(","))
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Rayon threads: the machine's, capped at two.
pub(crate) fn two_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Size the global rayon pool. The workspace's rayon stand-in lets a
/// process re-size it, which `validate` relies on to time the two-thread
/// executor between one-thread runs.
pub(crate) fn set_rayon_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("size the global rayon pool");
}

/// Run one workload.
pub fn run(cfg: &Config) -> Report {
    // `validate` runs the executor on one thread. On two vCPUs the
    // two-thread executor was no faster over the query mix, and a busy
    // loop on the other vCPU slowed it 1.36× where one thread did not
    // slow at all. The traced pass still times the two-thread executor
    // for `speedup_vs_1t`.
    set_rayon_threads(match cfg.workload {
        Workload::Validate => 1,
        Workload::Study | Workload::Serve => two_threads(),
    });
    let mut report = match cfg.workload {
        Workload::Study => study::run(cfg),
        Workload::Validate => validate::run(cfg),
        Workload::Serve => serve::run(cfg),
    };
    report.manifest.splice(0..0, manifest(cfg));
    report
}

/// What the untraced timed pass saw.
#[derive(Debug, Default)]
pub(crate) struct Timed {
    pub setup_s: f64,
    /// Peak resident set (MiB) at the end of the timed pass, before the
    /// oracles run.
    pub peak_rss_mb: f64,
    /// Per-op latency (ms) and whether the op is of the light class.
    pub ops: Vec<(f64, bool)>,
    pub failed: u64,
    /// Units of work done (configurations, point updates).
    pub work: f64,
    /// Seconds the ops took: summed op time for one caller, loop wall
    /// time for concurrent callers.
    pub busy_s: f64,
}

impl Timed {
    pub fn end_to_end(&self) -> Vec<Metric> {
        let all: Vec<f64> = self.ops.iter().map(|o| o.0).collect();
        let class = |light: bool| -> Vec<f64> {
            self.ops
                .iter()
                .filter(|o| o.1 == light)
                .map(|o| o.0)
                .collect()
        };
        let (light, heavy) = (class(true), class(false));
        let n = self.ops.len() as f64;
        let values = [
            self.setup_s,
            self.peak_rss_mb,
            (n - self.failed as f64) / n.max(1.0),
            quantile(&all, 0.5),
            quantile(&all, 0.9),
            n / self.busy_s,
            self.work / self.busy_s,
            quantile(&light, 0.5),
            quantile(&heavy, 0.5),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    }

    pub fn report(&self) -> Report {
        Report {
            attempted: self.ops.len() as u64,
            failed: self.failed,
            metrics: self.end_to_end(),
            manifest: Vec::new(),
        }
    }
}

/// Per-layer values derived from a traced pass.
///
/// `thread_ns` is the time the fractions are shares of: the spans' self
/// time plus the op time no span covers, unless the workload says
/// otherwise. `coverage` and `overhead_frac` are the workload's
/// `trace.coverage` and `trace.overhead_frac` (see [`Tracer::layer_ns`]).
/// `extra` carries the counts a workload collected itself and overrides
/// generic values of the same name.
pub(crate) fn per_layer(
    tr: &Tracer,
    thread_ns: f64,
    coverage: f64,
    overhead_frac: f64,
    extra: BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let layers = tr.layers();
    for (name, l) in &layers {
        let per_call_ns = l.total_ns as f64 / l.calls as f64;
        m.insert(format!("{name}.calls"), l.calls as f64);
        m.insert(format!("{name}.us_per_call"), per_call_ns / 1e3);
        m.insert(format!("{name}.ms_per_call"), per_call_ns / 1e6);
        m.insert(format!("{name}.self_frac"), l.self_ns as f64 / thread_ns);
    }
    let mean_of = |layer: &str, sum: &str| {
        let calls = layers.get(layer).map_or(0, |l| l.calls);
        extra.get(sum).map_or(0.0, |s| s / calls.max(1) as f64)
    };
    m.insert(
        "tile-opt.space.feasible_points".into(),
        mean_of("tile-opt.space", "tile-opt.space.points_sum"),
    );
    m.insert(
        "tile-opt.within.points".into(),
        mean_of("tile-opt.within", "tile-opt.within.points_sum"),
    );
    let sweep_points = extra.get("time-model.sweep.points").copied().unwrap_or(0.0);
    if sweep_points > 0.0 {
        m.insert(
            "time-model.sweep.ns_per_point".into(),
            layers["time-model.sweep"].total_ns as f64 / sweep_points,
        );
    }
    m.insert("trace.coverage".into(), coverage);
    m.insert("trace.overhead_frac".into(), overhead_frac);
    for (k, v) in extra {
        m.insert(k.to_string(), v);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: m.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Write the traced pass's spans to `out/trace-<workload>-<seed>.jsonl`
/// beside this crate. A failed write is reported, not fatal.
pub(crate) fn write_trace(cfg: &Config, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tr.write_jsonl(&mut w)?;
            w.flush()
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Spans' self time plus uncovered op time: the default denominator of
/// every `self_frac`.
pub(crate) fn thread_ns(tr: &Tracer) -> f64 {
    (tr.self_times().iter().sum::<u64>() + tr.uncovered_ns()) as f64
}

/// Timed set-ups; `setup_s` is their median.
///
/// Micro-benchmarks, the bulk of every set-up, are high-IPC code, which
/// the shared host runs at two speeds in phases of seconds (see
/// README.md). Set-ups taken back to back all land in one phase, so a
/// workload that can also takes one every [`SETUP_SAMPLES`]th of its
/// timed pass, between ops, and the median follows the run as a whole.
pub(crate) struct Setups {
    times: Vec<f64>,
    every: Duration,
    next: Instant,
}

impl Setups {
    /// Samples spread over a timed pass of `seconds`.
    pub fn new(seconds: f64) -> Setups {
        Setups {
            times: Vec::new(),
            every: Duration::from_secs_f64(seconds / f64::from(SETUP_SAMPLES)),
            next: Instant::now(),
        }
    }

    /// Time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = setup();
        self.times.push(t0.elapsed().as_secs_f64());
        self.next = Instant::now() + self.every;
        out
    }

    /// Time a set-up, and drop what it built, if one is due.
    pub fn sample_if_due<T>(&mut self, setup: impl FnOnce() -> T) {
        if Instant::now() >= self.next {
            drop(self.time(setup));
        }
    }

    pub fn median_s(&self) -> f64 {
        quantile(&self.times, 0.5)
    }
}

/// Linear-interpolated quantile; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub(crate) fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (MiB), from `/proc/self/status`.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size of the largest CPU cache the kernel reports (bytes).
fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1024),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024 * 1024),
                    None => (size, 1),
                },
            };
            digits.parse::<u64>().ok().map(|n| n * scale)
        })
        .max()
}

/// The checkout's git revision; `unknown` unless the working directory
/// is the root of a git checkout (a parent repository is not ours).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The run manifest. Stream bandwidth is measured here, after the
/// workload, so its 64 MiB of buffers stay out of `peak_rss_mb`.
fn manifest(cfg: &Config) -> Vec<(&'static str, String)> {
    let quote = |s: &str| format!("\"{s}\"");
    let llc = llc_bytes();
    let bw = time_model::roofline::measure_stream_bandwidth().stream_bw_bytes_per_sec;
    vec![
        ("workload", quote(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_number(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        ("simd", quote(&stencil_core::simd::caps().describe())),
        ("git_rev", quote(&git_rev())),
        ("stream_bw_gb_per_s", json_number(bw / 1e9)),
        (
            "llc_bytes",
            llc.map_or("null".to_string(), |b| b.to_string()),
        ),
        (
            "executor_bytes",
            quote(&format!(
                "computed, 8 B per point update; validate grids are at most {} KiB, {} the LLC",
                validate::MAX_GRID_BYTES / 1024,
                match llc {
                    Some(l) if validate::MAX_GRID_BYTES <= l => "inside",
                    Some(_) => "larger than",
                    None => "unknown against",
                }
            )),
        ),
    ]
}
