//! `study`: one caller runs `tile_opt::study` back to back over seeded
//! experiments — the Figure-6 pipeline. HHC plan building and gpu-sim
//! lowering and simulation of the 850 baseline configurations dominate;
//! no executor or advisor runs.

use crate::gen::{all_cells, study_ops, Cell, StudyOp};
use crate::trace::{Leaf, Tracer, ROOT};
use crate::{ms_since, per_layer, thread_ns, Config, Fault, Report, Setups, Timed};
use advisor::AdvisorConfig;
use gpu_sim::{simulate, DeviceConfig, SimWorkload, Workload};
use hhc_tiling::{LaunchConfig, TilingPlan};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use stencil_core::{reference, ProblemSize, StencilDescriptor, StencilSpec};
use tile_opt::strategy::hhc_default;
use tile_opt::{
    baseline_points, feasible_space, model_sweep, model_sweep_spec, study, talg_min,
    within_fraction, DataPoint, Evaluated, SpaceConfig, Strategy, StrategyContext, Study,
};
use time_model::{predict, DimSpec, ModelParams};

/// The band `study` keeps (the paper's 10%).
const WITHIN: f64 = 0.10;

pub(crate) fn device(cell: Cell) -> DeviceConfig {
    DeviceConfig::preset(cell.device).expect("generated devices are presets")
}

pub(crate) fn stencil(cell: Cell) -> StencilDescriptor {
    StencilDescriptor::from_name(cell.stencil).expect("generated stencils are named")
}

/// Micro-benchmark every (device, stencil) pair the workloads touch,
/// with the advisor's default sampling and seed, so the replays measure
/// the parameters the advisor does. `span` wraps each measurement (the
/// traced pass times them).
pub(crate) fn measure_cells(
    mut span: impl FnMut(&mut dyn FnMut() -> ModelParams) -> ModelParams,
) -> HashMap<Cell, ModelParams> {
    let cfg = AdvisorConfig::default();
    all_cells()
        .into_iter()
        .map(|c| {
            let (dev, st) = (device(c), stencil(c));
            let params = span(&mut || {
                let m = microbench::measured_params_sampled(&dev, &st, cfg.citer_samples, cfg.seed);
                ModelParams::from_measured(&dev, &m)
            });
            (c, params)
        })
        .collect()
}

/// Model parameters per pair, and the `microbench.measure.*` entries.
pub(crate) type Measured = (HashMap<Cell, ModelParams>, BTreeMap<&'static str, f64>);

/// Time the micro-benchmarks as `microbench.measure` spans of a tracer
/// of their own. Traced runs call this right after their first timed
/// set-ups; [`measure_share`] completes the entries once `setup_s` is
/// known.
pub(crate) fn traced_measure() -> Measured {
    let mut tr = Tracer::default();
    let op = tr.begin_op();
    let params = measure_cells(|f| tr.leaf("microbench.measure", op, ROOT, f));
    tr.end_op(op);
    let l = tr.layers()["microbench.measure"];
    let extra = BTreeMap::from([
        ("microbench.measure.calls", l.calls as f64),
        (
            "microbench.measure.ms_per_call",
            l.total_ns as f64 / l.calls as f64 / 1e6,
        ),
    ]);
    (params, extra)
}

/// `microbench.measure.self_frac`: the traced micro-benchmark time over
/// the run's `setup_s`.
pub(crate) fn measure_share(extra: &mut BTreeMap<&'static str, f64>, setup_s: f64) {
    let s = extra["microbench.measure.calls"] * extra["microbench.measure.ms_per_call"] / 1e3;
    extra.insert("microbench.measure.self_frac", s / setup_s);
}

fn workload(op: &StudyOp) -> Workload {
    let size = ProblemSize::from_extents(&op.extents, op.time).expect("generated sizes are valid");
    Workload::new(device(op.cell), stencil(op.cell), size).expect("ranks agree")
}

struct Done {
    op: StudyOp,
    ms: f64,
    study: Study,
}

pub(crate) fn run(cfg: &Config) -> Report {
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut setups = Setups::new(seconds);
    let params = setups.time(|| measure_cells(|f| f()));
    let measured = cfg.trace.then(traced_measure);
    let space = SpaceConfig::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = Vec::new();
    for op in study_ops(cfg.seed) {
        if Instant::now() >= deadline {
            break;
        }
        setups.sample_if_due(|| measure_cells(|f| f()));
        let w = workload(&op);
        let ctx = StrategyContext::new(&w, &params[&op.cell], &space);
        let t0 = Instant::now();
        let study = study(&ctx, false);
        done.push(Done {
            ms: ms_since(t0),
            op,
            study,
        });
    }

    let mut timed = Timed {
        setup_s: setups.median_s(),
        peak_rss_mb: crate::peak_rss_mb(),
        busy_s: done.iter().map(|d| d.ms).sum::<f64>() / 1e3,
        ..Timed::default()
    };
    for d in &done {
        timed.ops.push((d.ms, d.op.light));
        let simulated: usize = d
            .study
            .outcomes
            .iter()
            .map(|o| o.measured_count - o.cache_hits)
            .sum();
        timed.work += simulated as f64;
        if !within_matches(d, &params[&d.op.cell], &space, cfg.fault, DimSpec::of) {
            timed.failed += 1;
        }
    }
    if !cfg.trace {
        return timed.report();
    }

    // Traced pass: replay every op through the finer public calls.
    let (params, mut extra) = measured.expect("traced runs measure after set-up");
    measure_share(&mut extra, timed.setup_s);
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let mut mismatches = 0;
    let mut radius_mismatches = 0;
    for d in &done {
        let w = workload(&d.op);
        let op = tr.begin_op();
        let replayed = Replay {
            tr: &mut tr,
            op,
            root: ROOT,
            w: &w,
            spec: w.spec(),
            params: &params[&d.op.cell],
            flops: reference::total_flops(&w.spec(), &w.size),
            memo: HashMap::new(),
            counts: &mut counts,
        }
        .study(&space);
        tr.end_op(op);
        if !replayed.matches(&d.study) {
            mismatches += 1;
        }
        if !within_matches(d, &params[&d.op.cell], &space, Fault::None, |_| {
            DimSpec::for_stencil(&w.stencil)
        }) {
            radius_mismatches += 1;
        }
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    extra.extend([
        (
            "hhc-tiling.plan.reject_frac",
            ratio(counts.rejects, counts.plans),
        ),
        (
            "gpu-sim.simulate.launch_fail_frac",
            ratio(counts.launch_fails, counts.sims),
        ),
        (
            "tile-opt.evaluate.cache_hit_frac",
            ratio(counts.hits, counts.lookups),
        ),
        (
            "tile-opt.study.radius_model_mismatch_frac",
            ratio(radius_mismatches, done.len() as u64),
        ),
        ("time-model.sweep.points", counts.predicted as f64),
        ("tile-opt.space.points_sum", counts.feasible as f64),
        ("tile-opt.within.points_sum", counts.within as f64),
    ]);
    crate::write_trace(cfg, &tr);
    let untraced_ns = timed.busy_s * 1e9;
    Report {
        attempted: done.len() as u64,
        failed: timed.failed + mismatches,
        metrics: per_layer(
            &tr,
            thread_ns(&tr),
            tr.layer_ns() as f64 / untraced_ns,
            tr.op_wall_ns() as f64 / untraced_ns - 1.0,
            extra,
        ),
        manifest: Vec::new(),
    }
}

/// The correctness oracle: the composite's within-band set is non-empty
/// and equals `within_fraction(model_sweep_spec(...))` recomputed over
/// the same feasible space, under the model geometry `dspec` gives.
fn within_matches(
    d: &Done,
    params: &ModelParams,
    space: &SpaceConfig,
    fault: Fault,
    dspec: impl Fn(stencil_core::StencilDim) -> DimSpec,
) -> bool {
    let w = workload(&d.op);
    let tiles = feasible_space(&w, space);
    let sweep = model_sweep_spec(dspec(w.dim()), params, &w.size, &tiles, None);
    let expect = within_fraction(&sweep, WITHIN);
    let mut got = d.study.within.clone();
    if fault == Fault::PerturbWithin {
        if let Some(e) = got.first_mut() {
            e.predicted = f64::from_bits(e.predicted.to_bits() ^ 1);
        }
    }
    !expect.is_empty()
        && expect.len() == got.len()
        && expect
            .iter()
            .zip(&got)
            .all(|((t, p), e)| *t == e.point.tiles && p.talg.to_bits() == e.predicted.to_bits())
}

#[derive(Debug, Default)]
struct Counts {
    lookups: u64,
    hits: u64,
    plans: u64,
    rejects: u64,
    sims: u64,
    launch_fails: u64,
    predicted: u64,
    feasible: u64,
    within: u64,
}

/// `tile_opt::study` replayed call by call, mirroring its evaluation
/// memo, with every call timed.
struct Replay<'a> {
    tr: &'a mut Tracer,
    op: u32,
    root: u32,
    w: &'a Workload,
    spec: StencilSpec,
    params: &'a ModelParams,
    flops: u64,
    memo: HashMap<DataPoint, Evaluated>,
    counts: &'a mut Counts,
}

struct Replayed {
    hhc: Vec<Evaluated>,
    baseline: Vec<Evaluated>,
    within: Vec<Evaluated>,
    hits: u64,
}

impl Replayed {
    /// Bit-for-bit agreement with the composite's result.
    fn matches(&self, st: &Study) -> bool {
        let hhc = st
            .outcomes
            .iter()
            .find(|o| o.strategy == Strategy::HhcDefault)
            .map(|o| vec![o.chosen]);
        let hits: usize = st.outcomes.iter().map(|o| o.cache_hits).sum();
        hhc.is_some_and(|h| same(&h, &self.hhc))
            && same(&st.baseline, &self.baseline)
            && same(&st.within, &self.within)
            && hits as u64 == self.hits
    }
}

fn same(a: &[Evaluated], b: &[Evaluated]) -> bool {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.point == y.point
                && x.predicted.to_bits() == y.predicted.to_bits()
                && bits(x.measured) == bits(y.measured)
                && bits(x.gflops) == bits(y.gflops)
        })
}

impl Replay<'_> {
    fn study(mut self, space: &SpaceConfig) -> Replayed {
        let dim = self.w.dim();
        self.root = self.tr.open("tile-opt.study", self.op, ROOT);
        let hits0 = self.counts.hits;
        let hhc = self.evaluate(&[hhc_default(dim)]);
        let baseline = self.evaluate(&baseline_points(&self.w.device, dim, space));
        let (op, root) = (self.op, self.root);
        let tiles = self
            .tr
            .leaf("tile-opt.space", op, root, || feasible_space(self.w, space));
        let sweep = self.tr.leaf("time-model.sweep", op, root, || {
            model_sweep(self.params, &self.w.size, &tiles)
        });
        if let Some((t, _)) = talg_min(&sweep) {
            self.evaluate(&[DataPoint {
                tiles: t,
                launch: LaunchConfig::empirical(dim, &t),
            }]);
        }
        let band = self.tr.leaf("tile-opt.within", op, root, || {
            within_fraction(&sweep, WITHIN)
        });
        let points: Vec<DataPoint> = band
            .iter()
            .map(|(t, _)| DataPoint {
                tiles: *t,
                launch: LaunchConfig::empirical(dim, t),
            })
            .collect();
        let within = self.evaluate(&points);
        self.tr.close(self.root);
        self.counts.predicted += tiles.len() as u64;
        self.counts.feasible += tiles.len() as u64;
        self.counts.within += band.len() as u64;
        Replayed {
            hhc,
            baseline,
            within,
            hits: self.counts.hits - hits0,
        }
    }

    /// `tile_opt::evaluate_points`: memo lookups, then the misses in
    /// parallel (predict, plan, lower, simulate), then the memo update.
    fn evaluate(&mut self, points: &[DataPoint]) -> Vec<Evaluated> {
        let id = self.tr.open("tile-opt.evaluate", self.op, self.root);
        let cached: Vec<Option<Evaluated>> =
            points.iter().map(|p| self.memo.get(p).copied()).collect();
        let misses: Vec<DataPoint> = points
            .iter()
            .zip(&cached)
            .filter_map(|(p, c)| c.is_none().then_some(*p))
            .collect();
        self.counts.lookups += points.len() as u64;
        self.counts.hits += (points.len() - misses.len()) as u64;
        let (clock, w, spec, params, flops) =
            (self.tr.clock, self.w, &self.spec, self.params, self.flops);
        let computed: Vec<(Evaluated, Vec<Leaf>, bool, bool)> = misses
            .par_iter()
            .map(|p| {
                let mut leaves = Vec::with_capacity(4);
                let t0 = clock.now();
                let predicted = predict(params, &w.size, &p.tiles).talg;
                let t1 = clock.now();
                leaves.push(("time-model.sweep", t0, t1));
                let plan = TilingPlan::build(spec, &w.size, p.tiles, p.launch);
                let t2 = clock.now();
                leaves.push(("hhc-tiling.plan", t1, t2));
                let (planned, mut launched) = (plan.is_ok(), false);
                let measured = plan.ok().and_then(|plan| {
                    let lowered = SimWorkload::from_plan(&plan);
                    let t3 = clock.now();
                    leaves.push(("gpu-sim.lower", t2, t3));
                    let report = simulate(&w.device, &lowered);
                    leaves.push(("gpu-sim.simulate", t3, clock.now()));
                    launched = report.is_ok();
                    report.ok().map(|r| r.total_time)
                });
                let e = Evaluated {
                    point: *p,
                    predicted,
                    measured,
                    gflops: measured.map(|t| flops as f64 / t / 1e9),
                };
                (e, leaves, planned, launched)
            })
            .collect();
        let mut fresh = Vec::with_capacity(computed.len());
        for (e, leaves, planned, launched) in computed {
            self.tr.adopt(self.op, id, leaves);
            self.counts.predicted += 1;
            self.counts.plans += 1;
            self.counts.rejects += u64::from(!planned);
            self.counts.sims += u64::from(planned);
            self.counts.launch_fails += u64::from(planned && !launched);
            self.memo.insert(e.point, e);
            fresh.push(e);
        }
        let mut fresh = fresh.into_iter();
        let out = cached
            .into_iter()
            .map(|c| c.unwrap_or_else(|| fresh.next().expect("one result per miss")))
            .collect();
        self.tr.close(id);
        out
    }
}
