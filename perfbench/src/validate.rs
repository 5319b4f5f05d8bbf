//! `validate`: one caller sends `Advisor::advise` queries with
//! `validate: true` on small seeded grids — the paper's §6 loop ending
//! in real execution. The executor and the core row kernels dominate;
//! the model path is a small share and the simulator is unused.

use crate::gen::{all_cells, validate_ops, ValidateOp};
use crate::study::{measure_share, stencil, traced_measure, Measured};
use crate::trace::{Tracer, ROOT};
use crate::{ms_since, per_layer, thread_ns, Config, Fault, Report, Setups, Timed};
use advisor::{Advice, Advisor, AdvisorConfig, Query};
use hhc_tiling::{run_tiled_unchecked, TileSizes};
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use stencil_core::{init, reference};
use tile_opt::{
    feasible_space, model_sweep_spec, run_candidates_until, within_fraction, SpaceConfig,
};
use time_model::{roofline, DimSpec};

/// The largest grid the generator draws: 40³ `f32` cells (224² is
/// smaller).
pub(crate) const MAX_GRID_BYTES: u64 = 40 * 40 * 40 * 4;

/// Executed candidates per replayed query that are re-run on the
/// sequential executor and on the two-thread one for
/// `hhc-tiling.exec.speedup_vs_1t`.
const SPEEDUP_SAMPLE: usize = 2;

/// A fresh advisor whose micro-benchmark memo is warm for every pair.
fn setup() -> Advisor {
    let advisor = Advisor::new(AdvisorConfig::default());
    warm(&advisor);
    advisor
}

/// One model-only query per (device, stencil) pair, at a size no
/// generator draws.
pub(crate) fn warm(advisor: &Advisor) {
    for cell in all_cells() {
        let q = Query::parse_line(&cell.warm_line()).expect("warm-up query parses");
        advisor.advise(&q);
    }
}

struct Done {
    op: ValidateOp,
    query: Query,
    answer: Advice,
    ms: f64,
}

pub(crate) fn run(cfg: &Config) -> Report {
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut setups = Setups::new(seconds);
    let advisor = setups.time(setup);
    let measured = cfg.trace.then(traced_measure);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = Vec::new();
    for (i, op) in validate_ops(cfg.seed).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        setups.sample_if_due(setup);
        let query = Query::parse_line(&op.line(i)).expect("generated queries parse");
        let t0 = Instant::now();
        let answer = advisor.advise(&query);
        done.push(Done {
            ms: ms_since(t0),
            op,
            query,
            answer,
        });
    }

    let mut timed = Timed {
        setup_s: setups.median_s(),
        peak_rss_mb: crate::peak_rss_mb(),
        busy_s: done.iter().map(|d| d.ms).sum::<f64>() / 1e3,
        ..Timed::default()
    };
    // The oracle is not timed; it checks queries two at a time.
    crate::set_rayon_threads(crate::two_threads());
    let exact: Vec<bool> = done
        .par_iter()
        .map(|d| best_is_exact(d, cfg.fault))
        .collect();
    crate::set_rayon_threads(1);
    for (d, exact) in done.iter().zip(exact) {
        timed.ops.push((d.ms, d.op.light));
        let executed = d.answer.validation.as_ref().map_or(0, |v| v.executed);
        timed.work += (executed as u64 * d.op.points_per_candidate()) as f64;
        if !answered(&d.answer) || !exact {
            timed.failed += 1;
        }
    }
    match measured {
        Some(measured) => traced(cfg, &timed, measured, &advisor, &done),
        None => timed.report(),
    }
}

/// Not degraded, a non-empty band, every candidate executed, a winner.
fn answered(a: &Advice) -> bool {
    !a.degraded
        && a.within_points > 0
        && a.validation
            .as_ref()
            .is_some_and(|v| v.executed == v.requested && v.skipped.is_empty() && v.best.is_some())
}

/// The correctness oracle: the measured-best tile's output, re-run on
/// the sequential executor, equals the reference executor's exactly.
fn best_is_exact(d: &Done, fault: Fault) -> bool {
    let Some(best) = d.answer.validation.as_ref().and_then(|v| v.best.as_ref()) else {
        return false;
    };
    let w = &d.query.workload;
    let mut coords = vec![best.t_t];
    coords.extend(&best.t_s);
    let Ok(tiles) = TileSizes::from_coords(w.dim(), &coords) else {
        return false;
    };
    let spec = w.spec();
    // The advisor validates on this grid (its default seed).
    let grid = init::random(w.size.space_extents(), AdvisorConfig::default().seed);
    let mut out = run_tiled_unchecked(&spec, &w.size, tiles, &grid);
    if fault == Fault::PerturbGridCell {
        let e = out.sizes().map(|n| n / 2);
        out.set(e, out.get(e) + 1.0);
    }
    reference::run(&spec, &w.size, &grid).max_abs_diff(&out) == 0.0
}

/// Replay every query through the calls `Advisor::advise` is built from.
fn traced(
    cfg: &Config,
    timed: &Timed,
    (params, mut extra): Measured,
    advisor: &Advisor,
    done: &[Done],
) -> Report {
    measure_share(&mut extra, timed.setup_s);
    let stream = roofline::measure_stream_bandwidth();
    let mut ceiling: HashMap<&str, Option<f64>> = HashMap::new();
    let space = SpaceConfig::default();
    let mut tr = Tracer::default();
    let (mut mismatches, mut requested, mut executed) = (0, 0, 0);
    let (mut exec_s, mut exec_points) = (0.0, 0.0);
    let (mut roofline_s, mut ideal_s, mut no_ceiling) = (0.0, 0.0, 0);
    let (mut par_s, mut seq_s) = (0.0, 0.0);
    let (mut feasible, mut within_points) = (0, 0);
    for d in done {
        let (q, w) = (&d.query, &d.query.workload);
        let spec = w.spec();
        let op = tr.begin_op();
        tr.leaf("advisor.key", op, ROOT, || advisor.canonical_key(q));
        let root = tr.open("advisor.compute", op, ROOT);
        let p = &params[&d.op.cell];
        let tiles = tr.leaf("tile-opt.space", op, root, || feasible_space(w, &space));
        let sweep = tr.leaf("time-model.sweep", op, root, || {
            model_sweep_spec(DimSpec::for_stencil(&w.stencil), p, &w.size, &tiles, None)
        });
        let band = tr.leaf("tile-opt.within", op, root, || {
            within_fraction(&sweep, q.within)
        });
        let grid = init::random(w.size.space_extents(), AdvisorConfig::default().seed);
        let cand: Vec<TileSizes> = match cfg.fault {
            Fault::DropReplayedCall => Vec::new(),
            _ => band.iter().map(|(t, _)| *t).collect(),
        };
        let report = tr.leaf("tile-opt.run_candidates", op, root, || {
            run_candidates_until(&spec, &w.size, &grid, &cand, None)
        });
        tr.close(root);
        tr.end_op(op);

        let a = &d.answer;
        let same_band = a.feasible_points == tiles.len()
            && a.within_points == band.len()
            && a.candidates.len() == band.len().min(q.top_n)
            && a.candidates.iter().zip(&band).all(|(c, (t, p))| {
                c.t_t == t.t_t
                    && c.t_s[..] == t.t_s[..w.rank()]
                    && c.talg_s.to_bits() == p.talg.to_bits()
                    && c.k == p.k
                    && c.mtile_words == p.mtile_words
            })
            && a.validation.as_ref().map(|v| v.executed) == Some(report.runs.len());
        if !same_band {
            mismatches += 1;
        }

        let ppc = d.op.points_per_candidate() as f64;
        // `None` where the ceiling calibration fails for the stencil.
        let pps = *ceiling.entry(d.op.cell.stencil).or_insert_with(|| {
            let spec = stencil(d.op.cell).spec();
            std::panic::catch_unwind(|| roofline::measure_compute_ceiling(&spec))
                .ok()
                .map(|compute| roofline::predict(&stream, compute).pps)
        });
        requested += cand.len();
        executed += report.runs.len();
        for (i, r) in report.runs.iter().enumerate() {
            exec_s += r.wall_s;
            exec_points += ppc;
            match pps {
                Some(pps) => {
                    roofline_s += r.wall_s;
                    ideal_s += ppc / pps;
                }
                None => no_ceiling += 1,
            }
            if i < SPEEDUP_SAMPLE {
                // Both sides time the second of two back-to-back runs:
                // caches, allocator and (on the parallel side) the
                // scratch pool are warm, as for a query's candidates.
                std::hint::black_box(run_tiled_unchecked(&spec, &w.size, r.tiles, &grid));
                let t0 = Instant::now();
                std::hint::black_box(run_tiled_unchecked(&spec, &w.size, r.tiles, &grid));
                seq_s += t0.elapsed().as_secs_f64();
                crate::set_rayon_threads(crate::two_threads());
                let par = run_candidates_until(&spec, &w.size, &grid, &[r.tiles; 2], None);
                crate::set_rayon_threads(1);
                par_s += par.runs[1].wall_s;
            }
        }
        feasible += tiles.len();
        within_points += band.len();
    }
    let threads = thread_ns(&tr);
    let untraced_ns = timed.busy_s * 1e9;
    extra.extend([
        ("hhc-tiling.exec.calls", executed as f64),
        ("hhc-tiling.exec.mpoints_per_s", exec_points / exec_s / 1e6),
        ("hhc-tiling.exec.self_frac", exec_s * 1e9 / threads),
        ("hhc-tiling.exec.speedup_vs_1t", seq_s / par_s),
        ("hhc-tiling.exec.roofline_ratio", ideal_s / roofline_s),
        (
            "hhc-tiling.exec.roofline_missing_frac",
            no_ceiling as f64 / executed.max(1) as f64,
        ),
        (
            "tile-opt.run_candidates.executed_frac",
            executed as f64 / requested.max(1) as f64,
        ),
        ("time-model.sweep.points", feasible as f64),
        ("tile-opt.space.points_sum", feasible as f64),
        ("tile-opt.within.points_sum", within_points as f64),
    ]);
    crate::write_trace(cfg, &tr);
    Report {
        attempted: done.len() as u64,
        failed: timed.failed + mismatches,
        metrics: per_layer(
            &tr,
            threads,
            tr.layer_ns() as f64 / untraced_ns,
            tr.op_wall_ns() as f64 / untraced_ns - 1.0,
            extra,
        ),
        manifest: Vec::new(),
    }
}
