//! Command-line driver: regenerate the paper's tables and figures.
//!
//! `experiments --help` lists the driver's flags and
//! `experiments serve|precompute|calibrate --help` those of each
//! subcommand; every help text is rendered from the flag tables below.
//!
//! The `serve` subcommand runs the tile-size advisory service: JSON-lines
//! queries in (stdin or `--queries`), JSON-lines answers out on stdout —
//! or, with `--listen`, over a TCP socket with concurrent connections,
//! cross-client coalescing, and bounded-queue load shedding.
//! `precompute` sweeps the model over a grid into the answer store that
//! `serve --store` loads for pure-lookup steady-state serving.
//! `calibrate` closes the loop: it fits per-(device, stencil, dim)
//! model corrections from the accuracy log that validated serving (and
//! `--bench-exec`) appended, writing a calibration store that
//! `serve --calib` and `precompute --calib` apply before ranking.

use experiments::context::{ExperimentScale, Lab};
use experiments::figures::Fig6Detail;
use experiments::flags::{self, Command, Flag, Stop};
use experiments::output::Results;
use experiments::{figures, tables, RunManifest, DEFAULT_OUT_DIR};
use gpu_sim::{DeviceConfig, SimWorkload};
use hhc_tiling::TilingPlan;
use std::sync::Arc;
use stencil_core::{ProblemSize, StencilDim, StencilKind};
use tile_opt::strategy::{DataPoint, Strategy};

/// The driver's experiments; a run that names none prints the help.
#[rustfmt::skip]
const EXPERIMENTS: &[Flag] = &[
    ("--all", "", "run --table2 through --fig6"),
    ("--table2", "", "GPU configurations (paper Table 2)"),
    ("--table3", "", "measured L, tau_sync, T_sync (Table 3)"),
    ("--table4", "", "measured Citer per benchmark (Table 4)"),
    ("--fig3|--figure3", "", "model validation + RMSE bands (Figure 3, Section 5.3)"),
    ("--fig4|--figure4", "", "Talg surface for Heat2D (Figure 4)"),
    ("--fig5|--figure5", "", "Gradient2D candidate scatter (Figure 5)"),
    ("--fig6|--figure6", "", "strategy GFLOPS comparison (Figure 6)"),
    ("--zoo", "", "run the non-paper zoo stencils (radius-2 star, asymmetric\n\
                   3D advection) through the Figure 3 + Figure 6 pipelines;\n\
                   exits nonzero if any within-10% candidate set is empty"),
    ("--ablation", "", "model-variant + machine-effect ablations (extensions)"),
    ("--solver", "", "heuristic solvers vs exhaustive sweep (Section 6.1)"),
    ("--compare-wavefront", "", "time tiling vs classic wavefront-parallel schedule"),
    ("--bench-exec", "", "executor fast-path + memoization benchmark\n\
                          (writes BENCH_exec.json)"),
    ("--check-roofline", "", "implies --bench-exec; exit nonzero unless every exec row's\n\
                              measured/predicted throughput ratio sits in the tolerance\n\
                              band (the roofline self-model CI gate)"),
];

/// How the driver's experiments run and where their output goes.
#[rustfmt::skip]
const DRIVER_OPTIONS: &[Flag] = &[
    ("--scale", "paper|reduced|smoke", "problem-size grids (default: paper)"),
    ("--dims", "1d|2d|3d|all|all+1d", "dimensionalities for --fig3 (default: all)"),
    ("--exhaustive", "", "add the Exhaustive strategy to --fig6"),
    ("--out", "DIR", "output directory (default: results)"),
    ("--trace-out", "PATH", "write a Chrome trace-event JSON file (open in\n\
                             chrome://tracing or https://ui.perfetto.dev): driver\n\
                             phase spans plus, with --fig6, the simulated two-pipe\n\
                             SM schedule of the chosen configuration"),
];

static DRIVER: Command = Command::new(
    "experiments [FLAGS]",
    "Regenerate the tables and figures of the PPoPP'17 stencil time-model paper.\n\n\
     Subcommands, each with its own --help: `serve` answers tile-size queries\n\
     over JSON lines or a TCP socket, `precompute` sweeps the model over a grid\n\
     into an on-disk answer store, and `calibrate` fits model corrections from\n\
     the accuracy log into a calibration store.",
    &[
        EXPERIMENTS,
        DRIVER_OPTIONS,
        flags::THREADS,
        flags::TELEMETRY,
    ],
);

#[rustfmt::skip]
const SERVE_FLAGS: &[Flag] = &[
    ("--queries", "PATH", "read queries from PATH instead of stdin"),
    ("--listen", "ADDR", "serve over TCP (e.g. 127.0.0.1:7077; port 0 picks\n\
                          an ephemeral port) until killed"),
    ("--port-file", "PATH", "write the bound port number to PATH once listening\n\
                             (readiness signal for scripts and CI)"),
    ("--store", "PATH", "load a precomputed answer store (see: experiments\n\
                         precompute); steady-state hits are pure lookup"),
    ("--store-stale-ok", "", "accept a store from a different git or calibration\n\
                              revision (stale entries are re-derived, not served)"),
    ("--calib", "PATH", "load a calibration store (see: experiments\n\
                         calibrate); its per-segment corrections refine the\n\
                         model before ranking, and answers carry calib_rev"),
    ("--cache-dir", "DIR", "on-disk answer cache (default: results/advisor_cache);\n\
                            entries are invalidated by any git revision change"),
    ("--no-disk-cache", "", "keep answers only in the in-memory LRU"),
    ("--mem-cap", "N", "in-memory LRU capacity (default: 256)"),
    ("--accuracy-log", "PATH", "append (predicted, measured) pairs from validated\n\
                                queries (default: results/accuracy_log.jsonl)"),
];

static SERVE: Command = Command::new(
    "experiments serve [FLAGS]",
    "Tile-size advisory service: JSON-lines queries in, JSON-lines answers out.\n\n\
     Reads one JSON query object per line from stdin (or --queries FILE)\n\
     to end-of-input, answers the whole batch — duplicate queries are\n\
     computed once — and writes one answer line per query on stdout, in\n\
     input order. With --listen, runs the concurrent socket server\n\
     instead: many JSON-lines connections on a worker pool, with\n\
     cross-client coalescing, bounded queues (explicit 'overloaded'\n\
     shedding), and optional precomputed-answer serving. See README.md,\n\
     sections \"Advisor service\" and \"Serving at scale\".",
    &[
        SERVE_FLAGS,
        flags::SERVER,
        &[flags::SAMPLES],
        flags::THREADS,
        flags::TELEMETRY,
    ],
);

#[rustfmt::skip]
const PRECOMPUTE_FLAGS: &[Flag] = &[
    ("--out", "PATH", "store file (default: results/advisor_store.jsonl)"),
    ("--within", "F", "candidate band fraction (default: 0.10 — must match\n\
                       the queries the server will see)"),
    ("--top-n", "N", "candidates per answer (default: 10 — ditto)"),
    ("--calib", "PATH", "apply a calibration store's corrections while\n\
                         sweeping; the answer store records its revision"),
];

static PRECOMPUTE: Command = Command::new(
    "experiments precompute [FLAGS]",
    "Sweep the Eqn-31 model over a (device, stencil, size, time) grid and write\n\
     the answers to an on-disk store that `experiments serve --store` loads at\n\
     startup — steady-state serving becomes pure lookup with zero model\n\
     evaluations.\n\n\
     The store records the git revision (and calibration revision, if any)\n\
     that computed it; serving under a different one requires\n\
     --store-stale-ok.",
    &[PRECOMPUTE_FLAGS, flags::GRID, flags::THREADS],
);

#[rustfmt::skip]
const CALIBRATE_FLAGS: &[Flag] = &[
    ("--log", "PATH", "accuracy log to fit from, .1 rollover included\n\
                       (default: results/accuracy_log.jsonl)"),
    ("--out", "PATH", "calibration store to write\n\
                       (default: results/calib_store.jsonl)"),
    ("--min-evidence", "N", "pairs before a factor is served (default: 8)"),
    ("--merge", "PATH", "fold an existing store's evidence into the fit\n\
                         (running sums add; the new gate wins)"),
    ("--freeze", "", "mark the store frozen: later calibrate runs\n\
                      refuse to fold more evidence into it"),
    ("--inspect", "PATH", "print a store's segments and factors, then exit\n\
                           (no fitting)"),
    ("--compare", "PRE POST", "compare per-segment RMSE of two accuracy logs;\n\
                               exit 0 iff every shared segment improved or held\n\
                               and at least one segment is shared (no fitting)"),
];

static CALIBRATE: Command = Command::new(
    "experiments calibrate [FLAGS]",
    "Fit per-(device, stencil, dim) model corrections from the accuracy log\n\
     that validated serving (and --bench-exec) appended, and write them to a\n\
     calibration store for `experiments serve --calib` / `precompute --calib`.\n\n\
     Each accuracy row whose measured/predicted ratio and memory-bound\n\
     attribution are usable feeds the segment's Citer factor (compute-bound\n\
     rows) or memory-term factor (memory-bound rows). A factor is served\n\
     only once it has at least --min-evidence pairs; under-evidenced\n\
     segments leave the model untouched, bit for bit.",
    &[CALIBRATE_FLAGS],
);

/// Load the calibration store at `path`, reporting a failure as a usage
/// error on `--calib`.
fn load_calib(path: &str) -> Result<calib::CalibrationStore, String> {
    calib::CalibrationStore::load(std::path::Path::new(path))
        .map_err(|e| format!("--calib {path}: {e}"))
}

/// The workload behind one Figure 6 cell's chosen configuration: enough
/// to replay its simulated schedule into the Chrome trace.
struct SimTracePayload {
    device: DeviceConfig,
    kind: StencilKind,
    size: ProblemSize,
    point: DataPoint,
}

/// Pick the trace payload from the Figure 6 details: the first cell's
/// Within-10 % choice (the paper's headline strategy), falling back to
/// whatever strategy produced a measurable outcome.
fn fig6_sim_payload(lab: &Lab, details: &[Fig6Detail]) -> Option<SimTracePayload> {
    let detail = details.first()?;
    let outcome = detail
        .outcomes
        .iter()
        .find(|o| o.strategy == Strategy::Within10.name())
        .or_else(|| detail.outcomes.first())?;
    let device = lab
        .devices
        .iter()
        .find(|d| d.name == detail.device)?
        .clone();
    let kind = StencilKind::BENCH_2D
        .iter()
        .copied()
        .find(|k| k.name() == detail.benchmark)?;
    let size = lab
        .scale
        .sizes_2d()
        .into_iter()
        .find(|s| s.label() == detail.size)?;
    Some(SimTracePayload {
        device,
        kind,
        size,
        point: outcome.point,
    })
}

/// Trace every wavefront kernel launch of the payload's workload into
/// `out` under `pid`, one lane per (SM, pipe), kernels laid end to end on
/// the simulated clock. Returns the number of kernels traced.
fn export_workload_trace(
    out: &mut obs::chrome::ChromeTrace,
    pid: u32,
    p: &SimTracePayload,
) -> usize {
    let spec = p.kind.spec();
    let Ok(plan) = TilingPlan::build(&spec, &p.size, p.point.tiles, p.point.launch) else {
        return 0;
    };
    let wl = SimWorkload::from_plan(&plan);
    let mut offset_us = 0.0f64;
    let mut traced = 0usize;
    for index in 0..wl.kernels.len() {
        let Ok(trace) = gpu_sim::trace_kernel(&p.device, &wl, index) else {
            continue;
        };
        let label = format!("{} k{index}", p.kind.name());
        trace.add_chrome_events(out, pid, offset_us, &label);
        offset_us += trace.makespan * 1e6;
        traced += 1;
    }
    traced
}

/// Render an optional RMSE fraction as a percentage (NaN when absent).
fn pct(v: Option<f64>) -> f64 {
    v.map_or(f64::NAN, |x| 100.0 * x)
}

/// Run the `calibrate` subcommand; returns the process exit code.
fn run_calibrate(argv: &[String]) -> Result<i32, Stop> {
    let p = CALIBRATE.parse(argv)?;
    let log = p
        .path("--log")
        .unwrap_or_else(|| format!("{DEFAULT_OUT_DIR}/accuracy_log.jsonl"));
    let out = p
        .path("--out")
        .unwrap_or_else(|| format!("{DEFAULT_OUT_DIR}/calib_store.jsonl"));
    let min_evidence = p
        .count("--min-evidence")?
        .map_or(calib::DEFAULT_MIN_EVIDENCE, |n| n as u64);
    if let Some(path) = p.value("--inspect") {
        let store = match calib::CalibrationStore::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(1);
            }
        };
        println!(
            "calibration store {path}: {} segments ({} active), min_evidence {}, revision {}{}",
            store.len(),
            store.active_segments(),
            store.min_evidence(),
            store.revision(),
            if store.frozen() { ", frozen" } else { "" }
        );
        for (key, seg) in store.segments() {
            println!(
                "  {key:32}  citer: n={:3} factor={:.4}{}   mem: n={:3} factor={:.4}{}",
                seg.citer.n,
                seg.citer.factor(),
                if seg.citer.n >= store.min_evidence() {
                    ""
                } else {
                    " (gated)"
                },
                seg.mem.n,
                seg.mem.factor(),
                if seg.mem.n >= store.min_evidence() {
                    ""
                } else {
                    " (gated)"
                },
            );
        }
        return Ok(0);
    }
    if let Some([pre, post]) = p.values("--compare") {
        let load = |p: &str| {
            calib::log_segment_rmse(std::path::Path::new(p)).unwrap_or_else(|e| {
                eprintln!("error: {p}: {e}");
                std::process::exit(1);
            })
        };
        let (pre_rmse, post_rmse) = (load(pre), load(post));
        let mut shared = 0usize;
        let mut regressed = 0usize;
        for (key, (n_post, r_post)) in &post_rmse {
            let Some((n_pre, r_pre)) = pre_rmse.get(key) else {
                println!(
                    "  {key:32}  post RMSE {:6.1}% (n={n_post}) — no pre data",
                    100.0 * r_post
                );
                continue;
            };
            shared += 1;
            let improved = r_post <= r_pre;
            if !improved {
                regressed += 1;
            }
            println!(
                "  {key:32}  RMSE {:6.1}% (n={n_pre}) -> {:6.1}% (n={n_post})  {}",
                100.0 * r_pre,
                100.0 * r_post,
                if improved { "ok" } else { "REGRESSED" }
            );
        }
        if shared == 0 {
            eprintln!("compare FAILED: the two logs share no segment");
            return Ok(1);
        }
        if regressed > 0 {
            eprintln!("compare FAILED: {regressed}/{shared} shared segments regressed");
            return Ok(1);
        }
        println!("compare passed: all {shared} shared segments improved or held");
        return Ok(0);
    }
    let mut store = calib::CalibrationStore::new(min_evidence);
    if let Some(path) = p.value("--merge") {
        let prior = match calib::CalibrationStore::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: --merge {path}: {e}");
                return Ok(1);
            }
        };
        if let Err(e) = store.merge(&prior) {
            eprintln!("error: --merge {path}: {e}");
            return Ok(1);
        }
    }
    let stats = match store.consume_log(std::path::Path::new(&log)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: --log {log}: {e}");
            return Ok(1);
        }
    };
    if p.has("--freeze") {
        store.freeze();
    }
    if let Err(e) = store.save(std::path::Path::new(&out)) {
        eprintln!("error: cannot write {out}: {e}");
        return Ok(1);
    }
    println!(
        "calibrated {} segments ({} active) from {} pairs ({} rejected) -> {}, revision {}{}",
        store.len(),
        store.active_segments(),
        stats.consumed,
        stats.rejected,
        out,
        store.revision(),
        if store.frozen() { ", frozen" } else { "" }
    );
    for (key, seg) in store.segments() {
        let gate = store.min_evidence();
        println!(
            "  {key:32}  citer x{:.4} (n={}{})   mem x{:.4} (n={}{})",
            seg.citer.factor(),
            seg.citer.n,
            if seg.citer.n >= gate { "" } else { ", gated" },
            seg.mem.factor(),
            seg.mem.n,
            if seg.mem.n >= gate { "" } else { ", gated" },
        );
    }
    Ok(0)
}

/// Run the `precompute` subcommand; returns the process exit code.
fn run_precompute(argv: &[String]) -> Result<i32, Stop> {
    let p = PRECOMPUTE.parse(argv)?;
    let out = p
        .path("--out")
        .unwrap_or_else(|| format!("{DEFAULT_OUT_DIR}/advisor_store.jsonl"));
    let grid = flags::Grid::parse(&p)?;
    let within = p.float("--within")?.unwrap_or(0.10);
    let top_n = p.count("--top-n")?.unwrap_or(10);
    flags::Threads::parse(&p)?.install();
    let queries = advisor::grid_queries(
        &grid.devices,
        &grid.stencils,
        &grid.sizes,
        &grid.times,
        within,
        top_n,
    )
    .map_err(|e| format!("invalid grid: {e}"))?;
    println!(
        "precomputing {} answers ({} devices x {} stencils x {} sizes x {} times) ...",
        queries.len(),
        grid.devices.len(),
        grid.stencils.len(),
        grid.sizes.len(),
        grid.times.len()
    );
    let calib = p
        .value("--calib")
        .map(load_calib)
        .transpose()?
        .map(|store| {
            println!(
                "calibration store: {} segments ({} active), revision {}",
                store.len(),
                store.active_segments(),
                store.revision()
            );
            Arc::new(store)
        });
    let calib_rev = calib.as_ref().map(|c| c.revision());
    let advisor = advisor::Advisor::new(advisor::AdvisorConfig {
        citer_samples: grid.samples,
        seed: experiments::SEED,
        disk_dir: None,
        mem_capacity: queries.len().max(1),
        calib,
        ..advisor::AdvisorConfig::default()
    });
    let t0 = std::time::Instant::now();
    let mut store =
        advisor::AnswerStore::empty(experiments::SEED, grid.samples).with_calib_rev(calib_rev);
    let added = store.precompute(&advisor, &queries);
    let elapsed = t0.elapsed().as_secs_f64();
    let path = std::path::PathBuf::from(&out);
    store.write(&path).expect("write answer store");
    println!(
        "{added} answers written to {} in {elapsed:.1}s ({:.1} sweeps/s), git_rev {}",
        out,
        added as f64 / elapsed.max(1e-9),
        store.git_rev()
    );
    if added < queries.len() {
        eprintln!(
            "warning: {} grid cells not stored (degraded answers are never stored)",
            queries.len() - added
        );
    }
    Ok(0)
}

/// Run the `serve` subcommand; returns the process exit code.
fn run_serve(argv: &[String]) -> Result<i32, Stop> {
    let p = SERVE.parse(argv)?;
    let cache_dir = if p.position("--no-disk-cache") > p.position("--cache-dir") {
        None
    } else {
        Some(
            p.path("--cache-dir")
                .unwrap_or_else(|| format!("{DEFAULT_OUT_DIR}/advisor_cache")),
        )
    };
    let mem_cap = p.count("--mem-cap")?.unwrap_or(256);
    let samples = flags::samples(&p)?;
    let server_config = flags::server_config(&p)?;
    let accuracy_log = p
        .path("--accuracy-log")
        .unwrap_or_else(|| format!("{DEFAULT_OUT_DIR}/accuracy_log.jsonl"));
    let log_out = p.path("--log-out");
    let telemetry = flags::Telemetry::parse(&p)?;
    flags::Threads::parse(&p)?.install();
    // The recorder also feeds the accuracy/drift telemetry.
    let telemetry = telemetry.start(DEFAULT_OUT_DIR);
    let accuracy =
        Arc::new(obs::AccuracyLog::open(&accuracy_log).expect("open --accuracy-log file"));
    let calib = match p.value("--calib") {
        Some(path) => {
            let store = load_calib(path)?;
            obs::gauge("calib.segments_active", store.active_segments() as f64);
            eprintln!(
                "calibration store: {} segments ({} active) from {path}, revision {}",
                store.len(),
                store.active_segments(),
                store.revision()
            );
            Some(Arc::new(store))
        }
        None => None,
    };
    let calib_rev = calib.as_ref().map(|c| c.revision());
    let store = match p.value("--store") {
        Some(path) => {
            let store = advisor::AnswerStore::load(
                std::path::Path::new(path),
                p.has("--store-stale-ok"),
                calib_rev.as_deref(),
            )?;
            eprintln!(
                "answer store: {} precomputed answers from {path}",
                store.len()
            );
            Some(Arc::new(store))
        }
        None => None,
    };
    // Fault injection for tests and the CI calibration smoke job: bias
    // the advisor's view of the measured Citer so the closed loop has a
    // real model error to remove (mirrors HHC_ROOFLINE_BAND's style).
    let citer_scale = match std::env::var("HHC_CITER_SCALE") {
        Ok(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .unwrap_or_else(|| {
                eprintln!("error: invalid HHC_CITER_SCALE '{v}'");
                std::process::exit(2);
            }),
        Err(_) => 1.0,
    };
    if citer_scale != 1.0 {
        eprintln!("fault injection: Citer biased by x{citer_scale} (HHC_CITER_SCALE)");
    }
    let advisor = advisor::Advisor::new(advisor::AdvisorConfig {
        mem_capacity: mem_cap,
        disk_dir: cache_dir.map(Into::into),
        citer_samples: samples,
        accuracy: Some(accuracy),
        store,
        calib,
        citer_scale,
        ..advisor::AdvisorConfig::default()
    });
    if let Some(addr) = p.value("--listen") {
        // Socket mode: serve until killed. The one-shot exporters below
        // never run; --metrics-out keeps streaming periodically.
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let workers = server_config.workers;
        let server = advisor::Server::start(Arc::new(advisor), listener, server_config)
            .expect("start server");
        let bound = server.addr();
        if let Some(path) = p.value("--port-file") {
            std::fs::write(path, format!("{}\n", bound.port())).expect("write --port-file");
        }
        eprintln!("advisor listening on {bound} ({workers} workers)");
        if log_out.is_some() {
            eprintln!(
                "note: --log-out writes once at end of run and socket mode never ends; \
                 use --metrics-out for periodic snapshots"
            );
        }
        loop {
            std::thread::park();
        }
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let served = match p.value("--queries") {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open --queries {path}: {e}"))?;
            advisor::serve_lines(&advisor, std::io::BufReader::new(file), &mut out)
        }
        None => advisor::serve_lines(&advisor, std::io::stdin().lock(), &mut out),
    };
    drop(out);
    let stats = match served {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve I/O failed: {e}");
            return Ok(1);
        }
    };
    let recorder = telemetry.stop();
    let snap = recorder.snapshot();
    if snap.counter("advisor.degraded") > 0 {
        match obs::flight::dump(std::path::Path::new(DEFAULT_OUT_DIR), "advisor_degraded") {
            Ok(Some(path)) => eprintln!("flight recorder dumped to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("flight recorder dump failed: {e}"),
        }
    }
    if let Some(path) = &log_out {
        flags::write_log(&recorder, path);
    }
    eprintln!(
        "served {} answers ({} parse errors)",
        stats.answered, stats.errors
    );
    Ok(if stats.errors > 0 { 1 } else { 0 })
}

fn main() {
    let argv = flags::argv();
    flags::exit(match argv.first().map(String::as_str) {
        Some("serve") => run_serve(&argv[1..]),
        Some("precompute") => run_precompute(&argv[1..]),
        Some("calibrate") => run_calibrate(&argv[1..]),
        _ => run_driver(&argv),
    })
}

/// Run the table and figure driver; returns the process exit code.
fn run_driver(argv: &[String]) -> Result<i32, Stop> {
    let p = DRIVER.parse(argv)?;
    let all = p.has("--all");
    let paper_item = |name| all || p.has(name);
    let check_roofline = p.has("--check-roofline");
    let experiment_scale = p
        .parse_with("--scale", "paper|reduced|smoke", ExperimentScale::parse)?
        .unwrap_or(ExperimentScale::Paper);
    let dims = p
        .parse_with("--dims", "1d|2d|3d|all|all+1d", |v| match v {
            "1d" => Some(vec![StencilDim::D1]),
            "2d" => Some(vec![StencilDim::D2]),
            "3d" => Some(vec![StencilDim::D3]),
            "all" => Some(vec![StencilDim::D2, StencilDim::D3]),
            "all+1d" => Some(vec![StencilDim::D1, StencilDim::D2, StencilDim::D3]),
            _ => None,
        })?
        .unwrap_or_else(|| vec![StencilDim::D2, StencilDim::D3]);
    let out = p
        .path("--out")
        .unwrap_or_else(|| DEFAULT_OUT_DIR.to_string());
    let trace_out = p.path("--trace-out");
    let log_out = p.path("--log-out");
    let threads = flags::Threads::parse(&p)?;
    let telemetry = flags::Telemetry::parse(&p)?;
    if !p.has_any(EXPERIMENTS) {
        return Err(Stop::Help(DRIVER.help()));
    }
    threads.install();
    let telemetry = telemetry.start(&out);
    let lab = Lab::new(experiment_scale);
    let mut results = Results::new(&out).expect("create output directory");
    let scale = experiment_scale.label();
    let manifest = RunManifest::collect(scale);
    obs::event(
        obs::Level::Info,
        "driver.run",
        &[
            ("git_rev", manifest.git_rev.as_str().into()),
            ("scale", scale.into()),
            ("threads", manifest.threads.into()),
            ("seed", manifest.seed.into()),
        ],
    );
    results.set_manifest(manifest);
    let mut sim_payload: Option<SimTracePayload> = None;

    if check_roofline || p.has("--bench-exec") {
        let _phase = obs::span("phase.bench_exec", "driver");
        println!(
            "\n=== Executor benchmark: rolling window + row kernels vs seed baseline (scale: {scale}, {} threads) ===",
            rayon::current_num_threads()
        );
        let report = experiments::bench::bench_exec(&lab);
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write("BENCH_exec.json", json).expect("write BENCH_exec.json");
        println!("  report written to BENCH_exec.json");
        // Accuracy telemetry: each exec row yields one (predicted,
        // measured) wall-clock pair. The roofline predicts throughput;
        // predicted time = measured time x (measured/predicted ratio),
        // so rel_err == roofline_ratio - 1 and the drift band is the
        // roofline band re-centered on zero.
        {
            let (lo, hi) = report.roofline.ratio_band;
            let band = (lo - 1.0).abs().max((hi - 1.0).abs());
            let acc = obs::AccuracyLog::open(std::path::Path::new(&out).join("accuracy_log.jsonl"))
                .expect("open accuracy log");
            for row in &report.exec {
                let dim = StencilKind::ALL
                    .iter()
                    .find(|k| k.name() == row.benchmark)
                    .map_or(0, |k| k.spec().dim.rank() as u32);
                acc.record(
                    &obs::accuracy::Pair {
                        source: "roofline".into(),
                        device: "cpu-exec".into(),
                        stencil: row.benchmark.clone(),
                        dim,
                        key: row.size.clone(),
                        predicted_s: row.fast_s * row.roofline_ratio,
                        measured_s: row.fast_s,
                        // The roofline is never correction-adjusted, so
                        // its prediction is already "raw"; which ceiling
                        // bound it tells the calibration fitter which
                        // term the error belongs to.
                        raw_predicted_s: None,
                        memory_bound: Some(row.roofline_bound == "memory"),
                    },
                    band,
                );
            }
        }
        if check_roofline {
            let (lo, hi) = report.roofline.ratio_band;
            for row in &report.exec {
                let ok = row.roofline_ratio >= lo && row.roofline_ratio <= hi;
                println!(
                    "  roofline {:10} measured/predicted = {:.2} (band {lo:.2}..{hi:.2}) {}",
                    row.benchmark,
                    row.roofline_ratio,
                    if ok { "ok" } else { "OUT OF BAND" }
                );
            }
            if !report.roofline.all_within_band {
                eprintln!("roofline check FAILED: executor throughput left the predicted band");
                match obs::flight::dump(std::path::Path::new(&out), "roofline_out_of_band") {
                    Ok(Some(path)) => eprintln!("flight recorder dumped to {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("flight recorder dump failed: {e}"),
                }
                std::process::exit(1);
            }
            println!("  roofline check passed");
        }
    }

    if paper_item("--table2") {
        let _phase = obs::span("phase.table2", "driver");
        let rows = tables::table2(&lab);
        println!("\n=== Table 2: GPU configurations ===");
        for r in &rows {
            println!(
                "  {:10}  nSM={:2}  nV={}  MSM={}KB  RSM={}  banks={}  maxTB/SM={}",
                r.device, r.n_sm, r.n_v, r.m_sm_kb, r.r_sm, r.shared_banks, r.max_tb_per_sm
            );
        }
        results.write_json("table2", &rows).expect("write table2");
    }

    if paper_item("--table3") {
        let _phase = obs::span("phase.table3", "driver");
        let rows = tables::table3(&lab);
        println!("\n=== Table 3: measured timing parameters (paper: L=7.36e-3/5.42e-3 s/GB, tau=7.96e-10/6.74e-10 s, Tsync=9.24e-7/9.00e-7 s) ===");
        for r in &rows {
            println!(
                "  {:10}  L = {:.3e} s/GB   tau_sync = {:.3e} s   T_sync = {:.3e} s",
                r.device, r.l_s_per_gb, r.tau_sync, r.t_sync
            );
        }
        results.write_json("table3", &rows).expect("write table3");
    }

    if paper_item("--table4") {
        let _phase = obs::span("phase.table4", "driver");
        let rows = tables::table4(&lab);
        println!("\n=== Table 4: measured Citer (seconds) ===");
        for r in &rows {
            println!(
                "  {:12} {:10}  measured = {:.3e}   paper = {:.3e}",
                r.benchmark,
                r.device,
                r.citer,
                r.paper_citer.unwrap_or(f64::NAN)
            );
        }
        results.write_json("table4", &rows).expect("write table4");
    }

    if paper_item("--fig3") {
        let _phase = obs::span("phase.fig3", "driver");
        println!("\n=== Figure 3 / Section 5.3: model validation (scale: {scale}) ===");
        let (rows, pooled) = figures::figure3(&lab, &dims);
        let mut worst_top = 0.0f64;
        let mut all_range = (f64::INFINITY, 0.0f64);
        for r in &rows {
            println!(
                "  {:10} {:12} {:18}  points={:3}  RMSE(all)={:6.1}%  top20%: n={:3}  RMSE={:5.1}%",
                r.device,
                r.benchmark,
                r.size,
                r.measured_points,
                pct(r.rmse_all),
                r.top_points,
                pct(r.rmse_top20)
            );
            worst_top = worst_top.max(r.rmse_top20.unwrap_or(0.0));
            let all = r.rmse_all.unwrap_or(f64::NAN);
            if all.is_finite() {
                all_range = (all_range.0.min(all), all_range.1.max(all));
            }
        }
        println!(
            "  per-size SUMMARY: full-space RMSE range {:.0}%-{:.0}%; worst top-20% RMSE {:.1}%",
            100.0 * all_range.0,
            100.0 * all_range.1,
            100.0 * worst_top
        );
        println!("  --- pooled per (benchmark, platform), the paper's aggregation ---");
        let mut worst_pooled = 0.0f64;
        for p in &pooled {
            println!(
                "  {:10} {:12}  points={:5}  RMSE(all)={:6.1}%  top20%: n={:4}  RMSE={:5.1}%",
                p.device,
                p.benchmark,
                p.points,
                pct(p.rmse_all),
                p.top_points,
                pct(p.rmse_top20)
            );
            worst_pooled = worst_pooled.max(p.rmse_top20.unwrap_or(0.0));
        }
        println!(
            "  POOLED SUMMARY: worst top-20% RMSE {:.1}% (paper: <10%); full-space RMSE within the paper's 45%-200% band",
            100.0 * worst_pooled
        );
        results
            .write_json(&format!("figure3_{scale}"), &rows)
            .expect("write fig3");
        results
            .write_json(&format!("figure3_pooled_{scale}"), &pooled)
            .expect("write fig3 pooled");
        results
            .write_csv(
                &format!("figure3_scatter_{scale}"),
                "device,benchmark,size,predicted_s,measured_s",
                rows.iter().flat_map(|r| {
                    r.scatter_top.iter().map(move |(p, m)| {
                        format!("{},{},{},{p},{m}", r.device, r.benchmark, r.size)
                    })
                }),
            )
            .expect("write fig3 scatter");
    }

    if paper_item("--fig4") {
        let _phase = obs::span("phase.fig4", "driver");
        println!("\n=== Figure 4: Talg surface, Heat2D, GTX 980, tS1 = 8 (scale: {scale}) ===");
        let r = figures::figure4(&lab);
        if let Some(min) = r.min_cell {
            println!(
                "  size {}: Talg min = {:.4e} s at tT={} tS2={}",
                r.size,
                min.talg.unwrap(),
                min.t_t,
                min.t_s2
            );
        }
        let feasible = r.cells.iter().filter(|c| c.talg.is_some()).count();
        println!("  grid: {} cells, {} feasible", r.cells.len(), feasible);
        println!("{}", experiments::ascii::heatmap(&r));
        results
            .write_json(&format!("figure4_{scale}"), &r)
            .expect("write fig4");
        results
            .write_csv(
                &format!("figure4_surface_{scale}"),
                "t_t,t_s2,talg_s",
                r.cells.iter().map(|c| {
                    format!(
                        "{},{},{}",
                        c.t_t,
                        c.t_s2,
                        c.talg.map_or(String::from("inf"), |v| v.to_string())
                    )
                }),
            )
            .expect("write fig4 surface");
    }

    if paper_item("--fig5") {
        let _phase = obs::span("phase.fig5", "driver");
        println!("\n=== Figure 5: Gradient2D candidate scatter (scale: {scale}) ===");
        let r = figures::figure5(&lab);
        println!(
            "  size {}: baseline best = {:.3} s, model-candidate best = {:.3} s ({} candidates) → improvement {:.1}% (paper: 19.8 s → 16.5 s, 17%)",
            r.size,
            r.baseline_best.unwrap_or(f64::NAN),
            r.candidate_best.unwrap_or(f64::NAN),
            r.candidate_count,
            100.0 * r.improvement.unwrap_or(f64::NAN)
        );
        results
            .write_json(&format!("figure5_{scale}"), &r)
            .expect("write fig5");
    }

    if paper_item("--fig6") {
        let _phase = obs::span("phase.fig6", "driver");
        println!(
            "\n=== Figure 6: average GFLOPS by tile-size selection strategy (scale: {scale}) ==="
        );
        let (rows, details) = figures::figure6(&lab, p.has("--exhaustive"));
        for r in &rows {
            let strategies: Vec<String> = r
                .gflops
                .iter()
                .map(|(s, g)| format!("{s}={g:.1}"))
                .collect();
            println!(
                "  {:10} {:12} ({} sizes): {}   [Within10 vs Baseline: {:+.1}%, vs HHC: {:+.1}%]",
                r.device,
                r.benchmark,
                r.sizes,
                strategies.join("  "),
                100.0 * r.within_vs_baseline,
                100.0 * r.within_vs_hhc
            );
        }
        if trace_out.is_some() {
            sim_payload = fig6_sim_payload(&lab, &details);
        }
        results
            .write_json(&format!("figure6_{scale}"), &rows)
            .expect("write fig6");
        results
            .write_json(&format!("figure6_details_{scale}"), &details)
            .expect("write fig6 details");
    }

    if p.has("--zoo") {
        let _phase = obs::span("phase.zoo", "driver");
        println!(
            "\n=== Stencil zoo: non-paper descriptors through the full pipeline (scale: {scale}) ==="
        );
        let zoo = stencil_core::StencilDescriptor::zoo();
        for s in &zoo {
            println!(
                "  {:12} rank={} radius={} points={} flops/pt={}",
                s.name,
                s.dim.rank(),
                s.radius,
                s.footprint.points(s.dim, s.radius),
                s.flops_per_point()
            );
        }

        // Figure-3-style validation: the 850-point baseline sweep,
        // RMSE bands, and the paper's pooled aggregation — on stencils
        // the paper never ran.
        let (rows, pooled) = figures::figure3_for(&lab, &zoo);
        for p in &pooled {
            println!(
                "  fig3 {:10} {:12}  points={:5}  RMSE(all)={:6.1}%  top20%: n={:4}  RMSE={:5.1}%",
                p.device,
                p.benchmark,
                p.points,
                pct(p.rmse_all),
                p.top_points,
                pct(p.rmse_top20)
            );
        }
        results
            .write_json(&format!("figure3_zoo_{scale}"), &rows)
            .expect("write zoo fig3");
        results
            .write_json(&format!("figure3_zoo_pooled_{scale}"), &pooled)
            .expect("write zoo fig3 pooled");

        // Figure-6-style strategy comparison, one stencil at a time so
        // each runs on the size grid of its own dimensionality.
        let mut zrows = Vec::new();
        let mut zdetails: Vec<Fig6Detail> = Vec::new();
        for stencil in &zoo {
            let sizes = lab.scale.sizes(stencil.dim);
            let (r, d) = figures::figure6_for(&lab, std::slice::from_ref(stencil), &sizes, false);
            zrows.extend(r);
            zdetails.extend(d);
        }
        for r in &zrows {
            let strategies: Vec<String> = r
                .gflops
                .iter()
                .map(|(s, g)| format!("{s}={g:.1}"))
                .collect();
            println!(
                "  fig6 {:10} {:12} ({} sizes): {}",
                r.device,
                r.benchmark,
                r.sizes,
                strategies.join("  ")
            );
        }
        results
            .write_json(&format!("figure6_zoo_{scale}"), &zrows)
            .expect("write zoo fig6");
        results
            .write_json(&format!("figure6_zoo_details_{scale}"), &zdetails)
            .expect("write zoo fig6 details");

        // CI gate: every (device, stencil, size) must yield a non-empty
        // within-10% candidate set — an empty band means the model sweep
        // or the feasible space broke for the non-paper descriptor.
        let mut empty_bands = 0usize;
        for d in &zdetails {
            let within = d
                .outcomes
                .iter()
                .find(|o| o.strategy == Strategy::Within10.name());
            match within {
                Some(o) if o.measured_count > 0 => {}
                _ => {
                    eprintln!(
                        "  EMPTY within-10% band: {} / {} / {}",
                        d.device, d.benchmark, d.size
                    );
                    empty_bands += 1;
                }
            }
        }
        if empty_bands > 0 {
            eprintln!("zoo check FAILED: {empty_bands} empty within-10% candidate set(s)");
            std::process::exit(1);
        }
        println!(
            "  zoo check passed: all {} within-10% candidate sets non-empty",
            zdetails.len()
        );
    }

    if p.has("--ablation") {
        let _phase = obs::span("phase.ablation", "driver");
        println!("\n=== Ablation: printed vs tail-aware model (top-20% RMSE) ===");
        let rows = experiments::extensions::model_variant_ablation(&lab);
        for r in &rows {
            println!(
                "  {:10} {:12} {:16}  printed = {:5.1}%   tail-aware = {:5.1}%",
                r.device,
                r.benchmark,
                r.size,
                pct(r.rmse_printed),
                pct(r.rmse_refined)
            );
        }
        results
            .write_json(&format!("ablation_model_{scale}"), &rows)
            .expect("write ablation");

        println!("\n=== Ablation: machine effects off, one at a time (Jacobi2D) ===");
        let rows = experiments::extensions::machine_effect_ablation(&lab);
        for r in &rows {
            println!(
                "  disabled {:16}  RMSE(all) = {:6.1}%   top-20% = {:5.1}%",
                r.disabled,
                pct(r.rmse_all),
                pct(r.rmse_top20)
            );
        }
        results
            .write_json(&format!("ablation_machine_{scale}"), &rows)
            .expect("write machine ablation");
    }

    if p.has("--solver") {
        let _phase = obs::span("phase.solver", "driver");
        println!("\n=== Section 6.1: heuristic solvers vs exhaustive model sweep ===");
        let rows = experiments::extensions::solver_comparison(&lab);
        for r in &rows {
            println!(
                "  {:10} {:12} {:16}  sweep = {:.4e}  coord-descent {:+5.1}% ({} evals)  annealing {:+5.1}% ({} evals)",
                r.device,
                r.benchmark,
                r.size,
                r.sweep_min,
                100.0 * r.cd_gap,
                r.evals.1,
                100.0 * r.sa_gap,
                r.evals.2
            );
        }
        results
            .write_json(&format!("solver_{scale}"), &rows)
            .expect("write solver");
    }

    if p.has("--compare-wavefront") {
        let _phase = obs::span("phase.wavefront", "driver");
        println!(
            "\n=== Time tiling vs classic wavefront-parallel (both tuned, on the machine) ==="
        );
        let rows = experiments::extensions::time_tiling_comparison(&lab);
        for r in &rows {
            println!(
                "  {:10} {:12} {:16}  naive = {:.3}s ({:.0} GF{})  hhc = {:.3}s ({:.0} GF)  speedup = {:.2}x",
                r.device,
                r.benchmark,
                r.size,
                r.naive_time,
                r.naive_gflops,
                if r.naive_memory_bound { ", mem-bound" } else { "" },
                r.hhc_time,
                r.hhc_gflops,
                r.speedup
            );
        }
        results
            .write_json(&format!("wavefront_{scale}"), &rows)
            .expect("write wavefront");
    }

    let recorder = telemetry.stop();
    if let Some(path) = &trace_out {
        let mut trace = obs::chrome::ChromeTrace::new();
        trace.name_process(0, "experiments driver");
        trace.add_spans(0, &recorder.snapshot().spans);
        let mut traced_kernels = 0;
        if let Some(p) = &sim_payload {
            trace.name_process(
                1,
                &format!(
                    "gpu-sim: {} {} on {}",
                    p.kind.name(),
                    p.size.label(),
                    p.device.name
                ),
            );
            traced_kernels = export_workload_trace(&mut trace, 1, p);
        }
        std::fs::write(path, trace.to_json()).expect("write --trace-out file");
        println!(
            "chrome trace written to {path} ({} events, {traced_kernels} simulated kernels)",
            trace.len()
        );
    }
    if let Some(path) = &log_out {
        flags::write_log(&recorder, path);
        let snap = recorder.snapshot();
        println!(
            "telemetry log written to {path} ({} events, {} spans, {} counters)",
            snap.events.len(),
            snap.spans.len(),
            snap.counters.len()
        );
    }

    println!("\nresults written to {}/", results.dir().display());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_flag() {
        for cmd in [&DRIVER, &SERVE, &PRECOMPUTE, &CALIBRATE] {
            let help = cmd.help();
            for (name, ..) in cmd.rows() {
                assert!(
                    help.lines()
                        .any(|l| l.split_whitespace().next() == Some(name)),
                    "{name} missing from the help of `{}`",
                    cmd.usage
                );
            }
        }
        let default = format!("(default: {})", calib::DEFAULT_MIN_EVIDENCE);
        assert!(CALIBRATE.help().contains(&default));
    }
}
