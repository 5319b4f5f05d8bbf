//! Load generator for the advisor's socket server; `serve-bench --help`
//! lists its flags.
//!
//! Default (spawn) mode measures the whole serving claim end to end on
//! one machine, in one process:
//!
//! 1. **Cold baseline** — every distinct key of the configured
//!    (devices × stencils × sizes × times) universe is computed once
//!    through a bare advisor (micro-benchmarks pre-warmed, no serving
//!    stack), giving the model-only `cold_qps`.
//! 2. **Store** — the same universe is precomputed into an
//!    [`advisor::AnswerStore`] (or loaded from `--store PATH`).
//! 3. **Replay** — an in-process socket server is started over a
//!    *fresh* advisor holding only that store, and `--connections`
//!    client threads replay `--queries` zipf-skewed queries with up to
//!    `--pipeline` requests in flight each. Every warm answer is a
//!    store hit: the server-side counters must show zero model
//!    evaluations.
//!
//! The report lands in `BENCH_serve.json`: QPS, client-observed
//! p50/p90/p99 latency, store/cache hit rates, shed rate, and
//! `warm_speedup = qps / cold_qps` (the acceptance headline). With
//! `--addr` the tool only replays against an external server and the
//! server-side counter fields read zero.

use experiments::flags::{self, Command, Flag, Stop};
use experiments::servebench::{
    query_jsonl, ClientStats, LatencySummary, ServeBenchReport, ServeSection, ZipfSampler,
};
use gpu_sim::DeviceConfig;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;
use stencil_core::StencilDescriptor;

/// The replay's load shape.
#[rustfmt::skip]
const LOAD: &[Flag] = &[
    ("--queries", "N", "total queries to replay (default: 100000)"),
    ("--connections", "N", "concurrent client connections (default: 4)"),
    ("--pipeline", "N", "max in-flight requests per connection (default: 32)"),
    ("--zipf", "S", "key-skew exponent, 0 = uniform (default: 1.1)"),
    ("--seed", "N", "deterministic sampling seed (default: 0x5EED)"),
];

/// Where the replayed server comes from, and where the report goes.
#[rustfmt::skip]
const TARGET: &[Flag] = &[
    ("--store", "PATH", "load a precomputed answer store instead of building one"),
    ("--store-stale-ok", "", "accept a store from a different git revision"),
    ("--addr", "HOST:PORT", "replay against an already-running server\n\
                             (client-side metrics only)"),
    ("--out", "PATH", "report path (default: BENCH_serve.json)"),
    flags::LOG_OUT,
];

static SERVE_BENCH: Command = Command::new(
    "serve-bench [FLAGS]",
    "Replay zipf-skewed advisor queries against the socket server and write BENCH_serve.json.\n\n\
     The key universe (--devices, --stencils, --sizes, --times) must match the\n\
     store's precompute grid. Without --addr the server is spawned in-process\n\
     and the server flags apply.",
    &[LOAD, flags::GRID, TARGET, flags::SERVER, flags::THREADS],
);

fn main() {
    flags::exit(run(&flags::argv()))
}

fn run(argv: &[String]) -> Result<i32, Stop> {
    let p = SERVE_BENCH.parse(argv)?;
    let queries = p.count("--queries")?.unwrap_or(100_000);
    let connections = p.count("--connections")?.unwrap_or(4);
    let pipeline = p.count("--pipeline")?.unwrap_or(32);
    let zipf_s = p.float("--zipf")?.unwrap_or(1.1);
    let seed = p.u64("--seed")?.unwrap_or(experiments::SEED);
    let grid = flags::Grid::parse(&p)?;
    let server_config = flags::server_config(&p)?;
    let out = p.path("--out").unwrap_or_else(|| "BENCH_serve.json".into());
    flags::Threads::parse(&p)?.install();

    // The replay universe: one wire line per (device, stencil, size,
    // time) cell, plus the matching grid queries for precompute/cold.
    let universe_queries = advisor::grid_queries(
        &grid.devices,
        &grid.stencils,
        &grid.sizes,
        &grid.times,
        0.10,
        10,
    )
    .map_err(|e| format!("invalid universe: {e}"))?;
    let mut universe_lines = Vec::with_capacity(universe_queries.len());
    for device in &grid.devices {
        for stencil in &grid.stencils {
            for &s in &grid.sizes {
                for &t in &grid.times {
                    universe_lines.push(query_jsonl(device, stencil, s, t));
                }
            }
        }
    }
    assert_eq!(universe_lines.len(), universe_queries.len());
    eprintln!(
        "universe: {} distinct keys ({} devices x {} stencils x {} sizes x {} times)",
        universe_lines.len(),
        grid.devices.len(),
        grid.stencils.len(),
        grid.sizes.len(),
        grid.times.len()
    );

    let advisor_cfg = advisor::AdvisorConfig {
        citer_samples: grid.samples,
        seed: experiments::SEED,
        disk_dir: None,
        ..advisor::AdvisorConfig::default()
    };

    // Phases 1+2 (spawn mode only): cold baseline, then the store.
    // Both run before telemetry is installed so the server-side counter
    // snapshot reports the replay alone.
    let (cold_qps, store) = if p.has("--addr") {
        (0.0, None)
    } else if let Some(path) = p.value("--store") {
        let store = advisor::AnswerStore::load(
            std::path::Path::new(path),
            p.has("--store-stale-ok"),
            None,
        )?;
        eprintln!("store: loaded {} answers from {path}", store.len());
        (cold_baseline(&advisor_cfg, &universe_queries), Some(store))
    } else {
        let cold = advisor::Advisor::new(advisor_cfg.clone());
        let cold_qps = {
            prewarm_microbench(&cold, &grid.devices, &grid.stencils, &grid.sizes);
            let t0 = Instant::now();
            for q in &universe_queries {
                std::hint::black_box(cold.advise(q));
            }
            universe_queries.len() as f64 / t0.elapsed().as_secs_f64()
        };
        // The cold advisor's mem cache now holds every universe key, so
        // building the store from it is pure cache hits.
        let mut store = advisor::AnswerStore::empty(experiments::SEED, grid.samples);
        let added = store.precompute(&cold, &universe_queries);
        eprintln!("store: precomputed {added} answers in-memory");
        (cold_qps, Some(store))
    };
    if cold_qps > 0.0 {
        eprintln!("cold model-only baseline: {cold_qps:.1} queries/s");
    }

    // Phase 3: serve and replay.
    let recorder = Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
    obs::install(recorder.clone());
    let (addr, server) = match p.value("--addr") {
        Some(spec) => {
            let addr = spec
                .parse()
                .map_err(|e| format!("invalid --addr '{spec}': {e}"))?;
            (addr, None)
        }
        None => {
            let serve_cfg = advisor::AdvisorConfig {
                store: store.map(Arc::new),
                ..advisor_cfg
            };
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            let server = advisor::Server::start(
                Arc::new(advisor::Advisor::new(serve_cfg)),
                listener,
                server_config,
            )
            .expect("start server");
            (server.addr(), Some(server))
        }
    };

    // Deterministic per-connection workloads: connection i draws its
    // own zipf stream from seed+i.
    let per_conn = queries / connections;
    let remainder = queries % connections;
    let universe = Arc::new(universe_lines);
    eprintln!(
        "replaying {} queries over {} connections (pipeline {}, zipf {}) against {addr} ...",
        queries, connections, pipeline, zipf_s
    );
    let t0 = Instant::now();
    let clients: Vec<_> = (0..connections)
        .map(|c| {
            let universe = Arc::clone(&universe);
            let count = per_conn + usize::from(c < remainder);
            let seed = seed.wrapping_add(c as u64);
            std::thread::spawn(move || {
                let mut zipf = ZipfSampler::new(universe.len(), zipf_s, seed);
                let lines: Vec<String> = (0..count)
                    .map(|_| universe[zipf.sample()].clone())
                    .collect();
                experiments::servebench::replay_connection(addr, &lines, pipeline)
                    .expect("replay connection")
            })
        })
        .collect();
    let mut stats = ClientStats::default();
    for c in clients {
        stats.merge(c.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(server) = server {
        server.shutdown();
    }
    obs::uninstall();

    let snap = recorder.snapshot();
    let qps = stats.answered as f64 / wall_s;
    let served = snap.counter("advisor.queries");
    let store_hits = snap.counter("advisor.store_hits");
    let mem_hits = snap.counter("advisor.cache_hits_mem");
    let disk_hits = snap.counter("advisor.cache_hits_disk");
    let rate = |n: u64| {
        if served == 0 {
            0.0
        } else {
            n as f64 / served as f64
        }
    };
    let section = ServeSection {
        connections,
        pipeline,
        universe: universe.len(),
        zipf_s,
        seed,
        queries_sent: stats.sent,
        answered: stats.answered,
        shed: stats.shed,
        errors: stats.errors,
        wall_s,
        qps,
        latency_ms: LatencySummary::from_samples(&mut stats.latencies_ms),
        cold_qps,
        warm_speedup: if cold_qps > 0.0 { qps / cold_qps } else { 0.0 },
        store_hits,
        mem_hits,
        disk_hits,
        model_evals: snap.counter("advisor.model_evals"),
        queries: served,
        store_hit_rate: rate(store_hits),
        cache_hit_rate: rate(store_hits + mem_hits + disk_hits),
        shed_rate: stats.shed as f64 / stats.sent.max(1) as f64,
        answered_rate: stats.answered as f64 / stats.sent.max(1) as f64,
    };
    eprintln!(
        "replayed {} queries in {:.2}s: {:.0} answered/s, p50 {:.2}ms p99 {:.2}ms, \
         store hits {} ({}%), shed {}, errors {}, model evals {}",
        section.queries_sent,
        section.wall_s,
        section.qps,
        section.latency_ms.p50,
        section.latency_ms.p99,
        section.store_hits,
        (100.0 * section.store_hit_rate).round(),
        section.shed,
        section.errors,
        section.model_evals
    );
    if section.warm_speedup > 0.0 {
        eprintln!(
            "warm speedup vs cold model path: {:.1}x",
            section.warm_speedup
        );
    }
    let report = ServeBenchReport {
        manifest: experiments::RunManifest::collect("serve-bench"),
        serve: section,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    eprintln!("report written to {out}");
    if let Some(path) = p.value("--log-out") {
        flags::write_log(&recorder, path);
        eprintln!("telemetry log written to {path}");
    }
    if report.serve.errors > 0 {
        eprintln!(
            "error: {} queries answered with errors",
            report.serve.errors
        );
        return Ok(1);
    }
    Ok(0)
}

/// Cold baseline when the store came from disk: computed on a throwaway
/// advisor with pre-warmed micro-benchmarks.
fn cold_baseline(cfg: &advisor::AdvisorConfig, universe: &[advisor::Query]) -> f64 {
    let cold = advisor::Advisor::new(cfg.clone());
    let devices: Vec<DeviceConfig> = universe.iter().map(|q| q.workload.device.clone()).collect();
    let stencils: Vec<StencilDescriptor> = universe
        .iter()
        .map(|q| q.workload.stencil.clone())
        .collect();
    let sizes: Vec<usize> = universe.iter().map(|q| q.workload.size.space[0]).collect();
    prewarm_microbench(&cold, &devices, &stencils, &sizes);
    let t0 = Instant::now();
    for q in universe {
        std::hint::black_box(cold.advise(q));
    }
    universe.len() as f64 / t0.elapsed().as_secs_f64()
}

/// Run one throwaway query per (device, stencil) pair at a size outside
/// the universe, so the memoized `Citer` micro-benchmarks don't bill
/// their one-time cost to the cold throughput measurement.
fn prewarm_microbench(
    advisor: &advisor::Advisor,
    devices: &[DeviceConfig],
    stencils: &[StencilDescriptor],
    sizes: &[usize],
) {
    let mut warm_size = 56;
    while sizes.contains(&warm_size) {
        warm_size += 8;
    }
    for device in devices {
        for stencil in stencils {
            let Ok(queries) = advisor::grid_queries(
                std::slice::from_ref(device),
                std::slice::from_ref(stencil),
                &[warm_size],
                &[4],
                0.10,
                1,
            ) else {
                continue;
            };
            for q in &queries {
                std::hint::black_box(advisor.advise(q));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_flag() {
        let help = SERVE_BENCH.help();
        for (name, ..) in SERVE_BENCH.rows() {
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing from the help"
            );
        }
    }
}
