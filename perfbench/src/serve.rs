//! `serve`: an in-process `advisor::Server` (default `ServerConfig`) over
//! a precomputed `AnswerStore` and no disk tier. Two connections each
//! keep one query in flight, as interactive callers do. Zipf-skewed
//! store hits are the reads; a seeded minority of never-repeating
//! off-grid queries are the writes, which miss, compute through
//! microbench/tile-opt/time-model and are cached. No simulator or
//! executor runs.

use crate::gen::{serve_ops, ServeOp, DEVICES, GRID_SIZES, GRID_TIMES, STENCILS_2D, STENCILS_3D};
use crate::study::{device, measure_share, stencil, traced_measure, Measured};
use crate::trace::{Clock, Span, Tracer, ROOT};
use crate::{per_layer, Config, Fault, Report, Setups, Timed};
use advisor::{
    Advice, Advisor, AdvisorConfig, AnswerStore, Candidate, Query, Server, ServerConfig,
};
use gpu_sim::DeviceConfig;
use rayon::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_core::StencilDescriptor;
use tile_opt::{feasible_space, model_sweep_spec, within_fraction, SpaceConfig};
use time_model::{DimSpec, ModelParams};

/// Closed-loop clients, one query in flight each.
const CONNECTIONS: usize = 2;
/// Set-ups per run, each about 0.3 s.
const SETUPS: usize = 7;

struct Serving {
    server: Server,
    store: Arc<AnswerStore>,
}

/// Precompute the store, warm the serving advisor's micro-benchmarks,
/// start the server.
fn setup() -> Serving {
    let devices: Vec<DeviceConfig> = DEVICES
        .iter()
        .map(|d| DeviceConfig::preset(d).expect("presets"))
        .collect();
    let stencils: Vec<StencilDescriptor> = STENCILS_2D
        .iter()
        .chain(&STENCILS_3D)
        .map(|s| StencilDescriptor::from_name(s).expect("named stencils"))
        .collect();
    let universe = advisor::grid_queries(&devices, &stencils, &GRID_SIZES, &GRID_TIMES, 0.10, 10)
        .expect("the store grid is valid");
    let cfg = AdvisorConfig::default();
    let mut store = AnswerStore::empty(cfg.seed, cfg.citer_samples);
    store.precompute(&Advisor::new(cfg.clone()), &universe);
    let store = Arc::new(store);
    let advisor = Arc::new(Advisor::new(AdvisorConfig {
        store: Some(Arc::clone(&store)),
        ..cfg
    }));
    crate::validate::warm(&advisor);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let server =
        Server::start(advisor, listener, ServerConfig::default()).expect("start the server");
    Serving { server, store }
}

/// One line sent and its answer, with client-side timestamps. Neither
/// text is kept: the answer is a digest of its bytes and the line is
/// regenerated from the seed ([`ops_of`]), so that the harness's
/// memory, which grows with the op count, stays a small part of
/// `peak_rss_mb`.
struct Rec {
    conn: usize,
    miss: bool,
    digest: u64,
    error: bool,
    begin: u64,
    send: u64,
    recv: u64,
    end: u64,
}

impl Rec {
    fn rtt_ns(&self) -> u64 {
        self.recv - self.send
    }
}

/// One closed-loop client: send a line, wait for its answer, repeat
/// until `until` or the ops run out; then half-close and drain.
fn client(
    conn: usize,
    addr: SocketAddr,
    ops: impl Iterator<Item = ServeOp>,
    until: Instant,
    clock: Clock,
    fault: Fault,
) -> Vec<Rec> {
    let mut writer = TcpStream::connect(addr).expect("connect to the server");
    writer.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(writer.try_clone().expect("clone the socket"));
    let mut recs = Vec::new();
    for op in ops {
        if Instant::now() >= until {
            break;
        }
        let begin = clock.now();
        let mut line = op.line.clone();
        line.push('\n');
        let send = clock.now();
        writer.write_all(line.as_bytes()).expect("send a query");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read an answer");
        let recv = clock.now();
        let mut bytes = resp.trim_end().as_bytes().to_vec();
        if fault == Fault::FlipAnswerByte {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
        }
        recs.push(Rec {
            conn,
            miss: op.miss,
            digest: fnv64(&bytes),
            error: resp.starts_with(r#"{"error""#),
            begin,
            send,
            recv,
            end: clock.now(),
        });
    }
    writer.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    while reader.read_line(&mut rest).is_ok_and(|n| n > 0) {}
    recs
}

/// The op behind each of `recs`, regenerated from the seed.
fn ops_of(seed: u64, recs: &[Rec]) -> Vec<ServeOp> {
    let mut streams: Vec<_> = (0..CONNECTIONS).map(|c| serve_ops(seed, c)).collect();
    recs.iter()
        .map(|r| streams[r.conn].next().expect("op streams are endless"))
        .collect()
}

/// Drive every connection's op stream concurrently; records of client 0
/// first, then client 1.
fn drive<I: Iterator<Item = ServeOp> + Send>(
    addr: SocketAddr,
    streams: Vec<I>,
    until: Instant,
    clock: Clock,
    fault: Fault,
) -> Vec<Rec> {
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, ops)| s.spawn(move || client(c, addr, ops, until, clock, fault)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

pub(crate) fn run(cfg: &Config) -> Report {
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // The clients leave no gap for set-ups between ops, so they are all
    // taken first. The store precompute, most of a set-up, is
    // latency-bound model code that the host's phases do not move.
    let mut setups = Setups::new(seconds);
    let mut serving = setups.time(setup);
    for _ in 1..SETUPS {
        serving.server.shutdown();
        serving = setups.time(setup);
    }
    let measured = cfg.trace.then(traced_measure);
    let streams = (0..CONNECTIONS).map(|c| serve_ops(cfg.seed, c)).collect();
    let tr = Tracer::default();
    let t0 = Instant::now();
    let recs = drive(
        serving.server.addr(),
        streams,
        t0 + Duration::from_secs_f64(seconds),
        tr.clock,
        cfg.fault,
    );
    let busy_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb();
    let store = Arc::clone(&serving.store);
    serving.server.shutdown();

    // The oracle: every answer byte-identical to an in-process
    // `Advisor::advise` over the same store, and no `error` field.
    let oracle = Advisor::new(AdvisorConfig {
        store: Some(Arc::clone(&store)),
        ..AdvisorConfig::default()
    });
    let ops = ops_of(cfg.seed, &recs);
    let pairs: Vec<(&Rec, &ServeOp)> = recs.iter().zip(&ops).collect();
    let checked: Vec<(bool, usize)> = pairs
        .par_iter()
        .map(|&(r, op)| {
            let expect =
                oracle.advise(&Query::parse_line(&op.line).expect("generated lines parse"));
            let ok = r.digest == fnv64(expect.to_json_line().as_bytes()) && !r.error;
            (ok, if r.miss { expect.feasible_points } else { 0 })
        })
        .collect();
    let timed = Timed {
        setup_s: setups.median_s(),
        peak_rss_mb,
        ops: recs
            .iter()
            .map(|r| (r.rtt_ns() as f64 / 1e6, !r.miss))
            .collect(),
        failed: checked.iter().filter(|c| !c.0).count() as u64,
        work: checked.iter().map(|c| c.1 as f64).sum(),
        busy_s,
    };
    match measured {
        Some(measured) => traced(cfg, &timed, measured, &recs, &ops, &store),
        None => timed.report(),
    }
}

/// Replay the untraced pass's lines over a fresh server with a span per
/// round trip, then replay each line in process through the calls the
/// server's worker makes, and attribute each round trip: in-process
/// stages first, the rest (queue wait, batch window, socket I/O) to the
/// server.
fn traced(
    cfg: &Config,
    timed: &Timed,
    (params, mut extra): Measured,
    untraced: &[Rec],
    ops: &[ServeOp],
    store: &Arc<AnswerStore>,
) -> Report {
    let params: HashMap<(String, String), ModelParams> = params
        .into_iter()
        .map(|(c, p)| ((device(c).name, stencil(c).name), p))
        .collect();
    measure_share(&mut extra, timed.setup_s);
    let serving = setup();
    let mut tr = Tracer::default();
    let mut streams = vec![Vec::new(); CONNECTIONS];
    for (r, op) in untraced.iter().zip(ops) {
        streams[r.conn].push(op.clone());
    }
    let far = Instant::now() + Duration::from_secs(3600);
    let streams = streams.into_iter().map(Vec::into_iter).collect();
    let recs = drive(serving.server.addr(), streams, far, tr.clock, Fault::None);
    serving.server.shutdown();

    let keyer = Advisor::with_defaults();
    let space = SpaceConfig::default();
    let (mut mismatches, mut hits, mut server_ns, mut in_process_ns) = (0, 0, 0, 0);
    let mut hit_server_ns = Vec::new();
    let (mut feasible, mut within_points) = (0, 0);
    // The replay sends the same streams in full, so its records line up
    // with the untraced pass's ops.
    for (r, line) in recs.iter().zip(ops.iter().map(|o| &o.line)) {
        let op = tr.begin_op();
        tr.ops[op as usize] = (r.begin, r.end);
        tr.spans.push(Span {
            name: "advisor.server",
            op,
            parent: ROOT,
            start: r.send,
            end: r.recv,
        });
        let first = tr.spans.len();
        let q = tr.leaf("advisor.parse", op, ROOT, || {
            Query::parse_line(line).expect("parses")
        });
        let key = tr.leaf("advisor.key", op, ROOT, || keyer.canonical_key(&q));
        let hit = tr.leaf("advisor.lookup", op, ROOT, || store.get(&key));
        let advice = match hit {
            Some(mut a) => {
                hits += 1;
                a.id = q.id.clone();
                a
            }
            None => {
                let w = &q.workload;
                let p = &params[&(w.device.name.clone(), w.stencil.name.clone())];
                let root = tr.open("advisor.compute", op, ROOT);
                let tiles = tr.leaf("tile-opt.space", op, root, || feasible_space(w, &space));
                let sweep = tr.leaf("time-model.sweep", op, root, || {
                    model_sweep_spec(DimSpec::for_stencil(&w.stencil), p, &w.size, &tiles, None)
                });
                let band = tr.leaf("tile-opt.within", op, root, || {
                    within_fraction(&sweep, q.within)
                });
                let a = answer(&q, tiles.len(), &band);
                tr.close(root);
                feasible += tiles.len();
                within_points += band.len();
                a
            }
        };
        let line = tr.leaf("advisor.serialize", op, ROOT, || advice.to_json_line());
        if fnv64(line.as_bytes()) != r.digest {
            mismatches += 1;
        }
        let in_process: u64 = tr.spans[first..]
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end - s.start)
            .sum();
        server_ns += r.rtt_ns().saturating_sub(in_process);
        in_process_ns += in_process;
        if !r.miss {
            hit_server_ns.push(r.rtt_ns().saturating_sub(in_process) as f64);
        }
    }
    let rtt_ns: u64 = recs.iter().map(Rec::rtt_ns).sum();
    let untraced_ns: u64 = untraced.iter().map(Rec::rtt_ns).sum();
    // Shares of the round-trip time (plus the client's own per-op time):
    // the in-process stages happen inside the round trip.
    let threads = (rtt_ns + tr.uncovered_ns()) as f64;
    let n = recs.len().max(1) as f64;
    let sheds = untraced.iter().filter(|r| r.error).count();
    // What the server adds to a round trip, taken on store hits, where
    // the in-process work is small: `trace.coverage` then checks that the
    // in-process replay of every line, misses included, explains the
    // rest of its round trip. The replay's round trips carry no tracing
    // (the spans come from client timestamps and the in-process replay
    // runs afterwards), so they are the untraced time of the same lines.
    let hit_server_ns = hit_server_ns.iter().sum::<f64>() / hit_server_ns.len().max(1) as f64;
    let layer_ns = in_process_ns as f64 + n * hit_server_ns;
    extra.extend([
        ("advisor.store_hit_frac", hits as f64 / n),
        ("advisor.server.us_per_call", server_ns as f64 / n / 1e3),
        ("advisor.server.self_frac", server_ns as f64 / threads),
        (
            "advisor.server.shed_frac",
            sheds as f64 / untraced.len().max(1) as f64,
        ),
        ("time-model.sweep.points", feasible as f64),
        ("tile-opt.space.points_sum", feasible as f64),
        ("tile-opt.within.points_sum", within_points as f64),
    ]);
    crate::write_trace(cfg, &tr);
    Report {
        attempted: recs.len() as u64,
        failed: timed.failed + mismatches,
        metrics: per_layer(
            &tr,
            threads,
            layer_ns / rtt_ns as f64,
            rtt_ns as f64 / untraced_ns as f64 - 1.0,
            extra,
        ),
        manifest: Vec::new(),
    }
}

/// The answer `Advisor::advise` computes for a model-only miss.
fn answer(
    q: &Query,
    feasible_points: usize,
    band: &[(hhc_tiling::TileSizes, time_model::Prediction)],
) -> Advice {
    let w = &q.workload;
    let rank = w.rank();
    Advice {
        id: q.id.clone(),
        device: w.device.name.clone(),
        stencil: w.stencil.name.clone(),
        size: w.size.space[..rank].to_vec(),
        time: w.size.time,
        feasible_points,
        within: q.within,
        within_points: band.len(),
        degraded: false,
        calib_rev: None,
        candidates: band
            .iter()
            .take(q.top_n)
            .enumerate()
            .map(|(i, (t, p))| Candidate {
                rank: i,
                t_t: t.t_t,
                t_s: t.t_s[..rank].to_vec(),
                talg_s: p.talg,
                k: p.k,
                mtile_words: p.mtile_words,
                memory_bound: p.memory_bound(),
            })
            .collect(),
        validation: None,
    }
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
