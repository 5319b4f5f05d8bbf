//! The `stencil-tune` command-line tool: predict, simulate, analyze, and
//! tune stencil configurations from the shell.
//!
//! ```text
//! stencil-tune predict  --stencil jacobi2d --size 4096x4096xT1024 --tile 8,16,128
//! stencil-tune simulate --stencil heat2d   --size 2048x2048xT512  --tile 8,8,128 --threads 1,128
//! stencil-tune analyze  --stencil heat3d   --size 384x384x384xT128 --tile 8,4,2,32
//! stencil-tune tune     --stencil gradient2d --size 4096x4096xT4096 [--device titanx]
//! ```
//!
//! `stencil-tune COMMAND --help` lists every flag of a command. The
//! parsing and command logic live here (unit-tested); the binary in
//! `src/bin/stencil-tune.rs` is a thin shell.

use experiments::flags::{Command, Flag, Parsed, Stop};
use experiments::servebench::{parse_devices, parse_stencils, parse_usizes};
use gpu_sim::{simulate, DeviceConfig, SimWorkload, Workload};
use hhc_tiling::{analyze, LaunchConfig, TileSizes, TilingPlan};
use stencil_core::{reference, ProblemSize, StencilDim};
use tile_opt::strategy::{empirical_launch, DataPoint};
use tile_opt::{feasible_space, model_sweep, talg_min, within_fraction, SpaceConfig};
use time_model::{predict, ModelParams};

/// Parse a problem size like `4096x4096xT1024` (the `T` marker is
/// optional: the last extent is the time dimension).
pub fn parse_size(s: &str, dim: StencilDim) -> Result<ProblemSize, String> {
    let parts: Vec<&str> = s.split('x').collect();
    let rank = dim.rank();
    if parts.len() != rank + 1 {
        return Err(format!(
            "size '{s}' has {} extents; a {rank}D stencil needs {} (space dims then time)",
            parts.len(),
            rank + 1
        ));
    }
    let mut vals = Vec::with_capacity(parts.len());
    for p in &parts {
        let p = p.strip_prefix('T').unwrap_or(p);
        vals.push(
            p.parse::<usize>()
                .map_err(|_| format!("bad extent '{p}' in '{s}'"))?,
        );
    }
    let t = vals[rank];
    ProblemSize::from_extents(&vals[..rank], t)
}

/// Parse tile sizes like `8,16,128` (`t_T` first, then the space extents).
pub fn parse_tiles(s: &str, dim: StencilDim) -> Result<TileSizes, String> {
    let vals = parse_usizes(s, "tile")?;
    let rank = dim.rank();
    if vals.len() != rank + 1 {
        return Err(format!(
            "tile '{s}' has {} extents; a {rank}D stencil needs {} (t_T then t_S1..)",
            vals.len(),
            rank + 1
        ));
    }
    let tiles = TileSizes::from_coords(dim, &vals)?;
    tiles.validate(dim)?;
    Ok(tiles)
}

/// Parse a thread shape like `1,128`.
pub fn parse_threads(s: &str, dim: StencilDim) -> Result<LaunchConfig, String> {
    let vals = parse_usizes(s, "thread")?;
    let rank = dim.rank();
    if vals.len() != rank {
        return Err(format!(
            "threads '{s}' needs {rank} extents for a {rank}D stencil"
        ));
    }
    let launch = LaunchConfig::from_extents(dim, &vals)?;
    launch.validate(dim)?;
    Ok(launch)
}

/// Shared flag set of all subcommands: the (device, stencil, size)
/// workload every command operates on, plus presentation-only knobs.
pub struct CommonArgs {
    /// The parsed workload (device + stencil + problem size).
    pub workload: Workload,
    /// Micro-benchmark samples for `Citer`.
    pub samples: usize,
}

/// The one entry of a name list that must name exactly one thing.
fn single<T>(flag: &str, list: Vec<T>) -> Result<T, String> {
    let [one] = <[T; 1]>::try_from(list).map_err(|_| format!("{flag} takes a single name"))?;
    Ok(one)
}

/// Build the common arguments from parsed flags.
pub fn common_args(p: &Parsed) -> Result<CommonArgs, String> {
    let stencil = single("--stencil", parse_stencils(p.required("--stencil")?)?)?;
    let size = parse_size(p.required("--size")?, stencil.dim)?;
    let device = match p.value("--device") {
        Some(name) => single("--device", parse_devices(name)?)?,
        None => DeviceConfig::gtx980(),
    };
    Ok(CommonArgs {
        workload: Workload::new(device, stencil, size)?,
        samples: p.count("--samples")?.unwrap_or(20),
    })
}

fn measured_params(c: &CommonArgs) -> ModelParams {
    let w = &c.workload;
    let m = microbench::measured_params_sampled(&w.device, &w.stencil, c.samples, 0x5EED);
    ModelParams::from_measured(&w.device, &m)
}

/// `predict`: evaluate the analytical model for one tile size.
pub fn cmd_predict(c: &CommonArgs, tiles: TileSizes) -> Result<String, String> {
    let params = measured_params(c);
    let p = predict(&params, &c.workload.size, &tiles);
    Ok(format!(
        "T_alg = {:.6} s\n  k = {}   kernels = {}   blocks/kernel = {}\n  m' = {:.3e} s   c = {:.3e} s ({})\n  M_tile = {} words ({} KB)",
        p.talg,
        p.k,
        p.nw,
        p.w,
        p.m_prime,
        p.c,
        if p.memory_bound() { "memory-bound" } else { "compute-bound" },
        p.mtile_words,
        p.mtile_words * 4 / 1024,
    ))
}

/// `simulate`: run one configuration on the machine.
pub fn cmd_simulate(
    c: &CommonArgs,
    tiles: TileSizes,
    launch: LaunchConfig,
) -> Result<String, String> {
    let w = &c.workload;
    let spec = w.spec();
    let plan = TilingPlan::build(&spec, &w.size, tiles, launch)?;
    let r = simulate(&w.device, &SimWorkload::from_plan(&plan)).map_err(|e| e.to_string())?;
    let flops = reference::total_flops(&spec, &w.size);
    Ok(format!(
        "T_exec = {:.6} s   ({:.1} GFLOPS/s)\n  k = {} ({:?}-limited)   kernels = {}\n  spill factor = {:.2}   divergence factor = {:.2}   {}",
        r.total_time,
        r.gflops(flops),
        r.occupancy.k,
        r.occupancy.limit,
        r.kernel_launches,
        r.spill_factor,
        r.divergence_factor,
        if r.memory_bound() { "memory-bound" } else { "compute-bound" },
    ))
}

/// `analyze`: print the plan statistics for one tile size.
pub fn cmd_analyze(c: &CommonArgs, tiles: TileSizes) -> Result<String, String> {
    let w = &c.workload;
    let spec = w.spec();
    let launch = empirical_launch(w.dim(), &tiles);
    let plan = TilingPlan::build(&spec, &w.size, tiles, launch)?;
    let st = analyze(&plan);
    Ok(format!(
        "kernels = {}   blocks = {} (max {}/kernel)\n  iterations = {}   words moved = {}\n  reuse = {:.2} iterations/word   intensity = {:.2} flops/byte\n  boundary share = {:.1}%   M_tile = {} words",
        st.kernels,
        st.total_blocks,
        st.max_blocks_per_kernel,
        st.iterations,
        st.words,
        st.iterations_per_word,
        st.flops_per_byte,
        100.0 * st.boundary_iteration_share,
        st.mtile_words,
    ))
}

/// `tune`: the paper's pipeline — sweep the model, measure the within-10 %
/// candidates, report the best configuration.
pub fn cmd_tune(c: &CommonArgs) -> Result<String, String> {
    let w = &c.workload;
    let spec = w.spec();
    let params = measured_params(c);
    let space = feasible_space(w, &SpaceConfig::default());
    let sweep = model_sweep(&params, &w.size, &space);
    let (tmin, pmin) = talg_min(&sweep).ok_or("empty feasible space")?;
    let within = within_fraction(&sweep, 0.10);

    let mut best: Option<(DataPoint, f64)> = None;
    for (tiles, _) in &within {
        let point = DataPoint {
            tiles: *tiles,
            launch: empirical_launch(w.dim(), tiles),
        };
        let Ok(plan) = TilingPlan::build(&spec, &w.size, point.tiles, point.launch) else {
            continue;
        };
        if let Ok(r) = simulate(&w.device, &SimWorkload::from_plan(&plan)) {
            if best.is_none_or(|(_, t)| r.total_time < t) {
                best = Some((point, r.total_time));
            }
        }
    }
    let (point, time) = best.ok_or("no candidate launched")?;
    let flops = reference::total_flops(&spec, &w.size) as f64;
    Ok(format!(
        "swept {} feasible tile sizes; T_alg min = {:.4} s at t = {:?}\nmeasured {} candidates within 10% of the predicted optimum\nbest: tiles (tT={}, tS={:?}) threads {:?} -> {:.6} s ({:.1} GFLOPS/s)",
        space.len(),
        pmin.talg,
        (tmin.t_t, tmin.t_s),
        within.len(),
        point.tiles.t_t,
        &point.tiles.t_s[..w.rank()],
        &point.launch.threads[..w.rank()],
        time,
        flops / time / 1e9,
    ))
}

/// `params`: print the measured model parameters (Tables 3/4 for this
/// device/stencil).
pub fn cmd_params(c: &CommonArgs) -> Result<String, String> {
    let w = &c.workload;
    let m = microbench::measured_params_sampled(&w.device, &w.stencil, c.samples, 0x5EED);
    Ok(format!(
        "device {}   stencil {}
  L      = {:.4e} s/GB   ({:.4e} s/word)
  tau_sync = {:.4e} s
  T_sync = {:.4e} s
  Citer  = {:.4e} s   ({} samples)",
        w.device.name,
        w.stencil.name,
        m.l_word * 1e9 / 4.0,
        m.l_word,
        m.tau_sync,
        m.t_sync,
        m.citer,
        c.samples,
    ))
}

/// `compare`: predict and simulate two tile configurations side by side.
pub fn cmd_compare(c: &CommonArgs, a: TileSizes, b: TileSizes) -> Result<String, String> {
    let w = &c.workload;
    let spec = w.spec();
    let params = measured_params(c);
    let mut lines = vec![format!(
        "{:>24} {:>14} {:>14} {:>10}",
        "tiles (tT,tS..)", "T_alg [s]", "T_exec [s]", "GFLOPS/s"
    )];
    let flops = reference::total_flops(&spec, &w.size) as f64;
    for tiles in [a, b] {
        let pred = predict(&params, &w.size, &tiles);
        let launch = empirical_launch(w.dim(), &tiles);
        let meas = TilingPlan::build(&spec, &w.size, tiles, launch)
            .ok()
            .and_then(|plan| simulate(&w.device, &SimWorkload::from_plan(&plan)).ok())
            .map(|r| r.total_time);
        lines.push(format!(
            "{:>24} {:>14.6} {:>14} {:>10}",
            format!("({},{:?})", tiles.t_t, &tiles.t_s[..w.rank()]),
            pred.talg,
            meas.map_or("n/a".into(), |t| format!("{t:.6}")),
            meas.map_or("n/a".into(), |t| format!("{:.1}", flops / t / 1e9)),
        ));
    }
    Ok(lines.join(
        "
",
    ))
}

/// `trace`: render the two-pipe schedule of one kernel as per-SM lanes.
pub fn cmd_trace(
    c: &CommonArgs,
    tiles: TileSizes,
    launch: LaunchConfig,
    kernel: usize,
) -> Result<String, String> {
    use gpu_sim::{trace_kernel, TracePipe};
    let w = &c.workload;
    let spec = w.spec();
    let plan = TilingPlan::build(&spec, &w.size, tiles, launch)?;
    let wl = SimWorkload::from_plan(&plan);
    if kernel >= wl.kernels.len() {
        return Err(format!(
            "kernel {kernel} out of range (plan has {})",
            wl.kernels.len()
        ));
    }
    let trace = trace_kernel(&w.device, &wl, kernel).map_err(|e| e.to_string())?;
    let width = 72usize;
    let span = trace.makespan.max(1e-30);
    let mut out = format!(
        "kernel {kernel}: k = {}, makespan = {:.4e} s, {} segments\n",
        trace.k,
        trace.makespan,
        trace.events.len()
    );
    // One mem lane and one comp lane per SM that has events.
    let mut sms: Vec<usize> = trace.events.iter().map(|e| e.sm).collect();
    sms.sort_unstable();
    sms.dedup();
    for sm in sms.into_iter().take(8) {
        for (pipe, label) in [(TracePipe::Mem, "mem "), (TracePipe::Comp, "comp")] {
            let mut lane = vec![' '; width];
            for e in trace.events.iter().filter(|e| e.sm == sm && e.pipe == pipe) {
                let a = ((e.start / span) * (width - 1) as f64).round() as usize;
                let b = ((e.end / span) * (width - 1) as f64).round() as usize;
                let ch = char::from(b'0' + (e.block % 10) as u8);
                for cell in lane.iter_mut().take(b.min(width - 1) + 1).skip(a) {
                    *cell = ch;
                }
            }
            out.push_str(&format!(
                "  SM{sm:<2} {label} |{}|\n",
                lane.iter().collect::<String>()
            ));
        }
    }
    out.push_str("  (digits = co-resident block index within the wave; 8 SMs shown)");
    Ok(out)
}

/// The workload flags of every subcommand.
#[rustfmt::skip]
const WORKLOAD: &[Flag] = &[
    ("--stencil", "K", "jacobi1d|jacobi2d|heat2d|laplacian2d|gradient2d|\n\
                        jacobi3d|heat3d|laplacian3d, or any other named stencil"),
    ("--size", "S", "extents like 4096x4096xT1024 (space dims, then time)"),
    ("--device", "D", "gtx980 (default) or titanx"),
    ("--samples", "N", "Citer micro-benchmark samples (default: 20)"),
];
const TILE: Flag = (
    "--tile",
    "T",
    "tile sizes like 8,16,128 (t_T first, then t_S1..)",
);
const TILE2: Flag = ("--tile2", "T", "the tile sizes to compare with --tile");
const THREADS: Flag = (
    "--threads",
    "N",
    "thread shape like 1,128 (default: from the tile)",
);
const KERNEL: Flag = ("--kernel", "I", "kernel index (default: 1)");

/// The subcommands, in usage order.
#[rustfmt::skip]
static COMMANDS: [(&str, Command); 7] = [
    ("predict", Command::new(
        "stencil-tune predict --stencil K --size S --tile T [FLAGS]",
        "Evaluate the analytical model for one tile size.",
        &[WORKLOAD, &[TILE]],
    )),
    ("simulate", Command::new(
        "stencil-tune simulate --stencil K --size S --tile T [FLAGS]",
        "Run one configuration on the simulated machine.",
        &[WORKLOAD, &[TILE, THREADS]],
    )),
    ("analyze", Command::new(
        "stencil-tune analyze --stencil K --size S --tile T [FLAGS]",
        "Print the tiling plan statistics for one tile size.",
        &[WORKLOAD, &[TILE]],
    )),
    ("tune", Command::new(
        "stencil-tune tune --stencil K --size S [FLAGS]",
        "Sweep the model, run the within-10% candidates, report the best.",
        &[WORKLOAD],
    )),
    ("params", Command::new(
        "stencil-tune params --stencil K --size S [FLAGS]",
        "Print the measured model parameters (Tables 3 and 4).",
        &[WORKLOAD],
    )),
    ("compare", Command::new(
        "stencil-tune compare --stencil K --size S --tile T --tile2 T [FLAGS]",
        "Predict and simulate two tile sizes side by side.",
        &[WORKLOAD, &[TILE, TILE2]],
    )),
    ("trace", Command::new(
        "stencil-tune trace --stencil K --size S --tile T [FLAGS]",
        "Render the two-pipe schedule of one kernel as per-SM lanes.",
        &[WORKLOAD, &[TILE, THREADS, KERNEL]],
    )),
];

/// Top-level usage text.
pub fn usage() -> String {
    let mut out = String::from(
        "stencil-tune — analytical time modeling and tile-size selection for GPGPU stencils\n\n\
         USAGE:\n",
    );
    for (_, cmd) in &COMMANDS {
        out += &format!("  {}\n", cmd.usage);
    }
    out + "\nRun `stencil-tune COMMAND --help` for the flags of a command."
}

/// Run the CLI against an argument vector; returns the output text.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(name) = args.first() else {
        return Ok(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some((_, cmd)) = COMMANDS.iter().find(|(n, _)| n == name) else {
        return Err(format!("unknown command '{name}'\n\n{}", usage()));
    };
    let p = match cmd.parse(&args[1..]) {
        Ok(p) => p,
        Err(Stop::Help(help)) => return Ok(help),
        Err(Stop::Fail(e)) => return Err(e),
    };
    let c = common_args(&p)?;
    let dim = c.workload.dim();
    let tiles = |flag| parse_tiles(p.required(flag)?, dim);
    let launch = |tiles: &TileSizes| match p.value("--threads") {
        Some(t) => parse_threads(t, dim),
        None => Ok(empirical_launch(dim, tiles)),
    };
    match name.as_str() {
        "predict" => cmd_predict(&c, tiles("--tile")?),
        "simulate" => {
            let t = tiles("--tile")?;
            cmd_simulate(&c, t, launch(&t)?)
        }
        "analyze" => cmd_analyze(&c, tiles("--tile")?),
        "tune" => cmd_tune(&c),
        "params" => cmd_params(&c),
        "compare" => cmd_compare(&c, tiles("--tile")?, tiles("--tile2")?),
        _ => {
            let t = tiles("--tile")?;
            let kernel = p.u64("--kernel")?.map_or(1, |k| k as usize);
            cmd_trace(&c, t, launch(&t)?, kernel)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_sizes_tiles_threads() {
        let size = parse_size("4096x2048xT512", StencilDim::D2).unwrap();
        assert_eq!(size.space[0], 4096);
        assert_eq!(size.space[1], 2048);
        assert_eq!(size.time, 512);
        // T marker optional.
        assert_eq!(parse_size("64x32", StencilDim::D1).unwrap().time, 32);
        let tiles = parse_tiles("8,16,128", StencilDim::D2).unwrap();
        assert_eq!((tiles.t_t, tiles.t_s[0], tiles.t_s[1]), (8, 16, 128));
        let th = parse_threads("1,128", StencilDim::D2).unwrap();
        assert_eq!(th.threads, [1, 128, 1]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_size("4096xT512", StencilDim::D2).is_err());
        assert!(parse_tiles("7,16,128", StencilDim::D2).is_err()); // odd t_T
        assert!(parse_tiles("8,16", StencilDim::D2).is_err());
        assert!(parse_threads("1,128,1", StencilDim::D2).is_err());
        assert!(parse_stencils("jacobi4d").is_err());
        assert!(parse_devices("voodoo2").is_err());
        let params = |extra: &[&str]| {
            let mut args = sv(&["params", "--stencil", "heat2d", "--size", "512x512xT64"]);
            args.extend(sv(extra));
            run(&args)
        };
        assert!(params(&["--stencil", "heat2d,jacobi2d"]).is_err());
        assert!(params(&["--device", "gtx980,titanx"]).is_err());
        assert_eq!(
            params(&["--samples", "0"]).unwrap_err(),
            "invalid --samples '0' (expected an integer >= 1)"
        );
    }

    #[test]
    fn flag_parser_rejects_unknown() {
        let args = sv(&["tune", "--stencil", "jacobi2d", "--frobnicate", "yes"]);
        assert_eq!(
            run(&args).unwrap_err(),
            "unknown flag '--frobnicate' (try --help)"
        );
        assert!(run(&sv(&["tune", "--stencil"])).is_err());
        // --threads (a thread shape) belongs to simulate and trace only.
        let args = sv(&["tune", "--stencil", "jacobi2d", "--threads", "1,128"]);
        assert!(run(&args).is_err());
    }

    #[test]
    fn predict_and_simulate_run() {
        let out = run(&sv(&[
            "predict",
            "--stencil",
            "jacobi2d",
            "--size",
            "1024x1024xT128",
            "--tile",
            "8,8,128",
            "--samples",
            "6",
        ]))
        .unwrap();
        assert!(out.contains("T_alg"), "{out}");
        let out = run(&sv(&[
            "simulate",
            "--stencil",
            "jacobi2d",
            "--size",
            "1024x1024xT128",
            "--tile",
            "8,8,128",
            "--threads",
            "1,128",
        ]))
        .unwrap();
        assert!(out.contains("GFLOPS"), "{out}");
    }

    #[test]
    fn analyze_runs() {
        let out = run(&sv(&[
            "analyze",
            "--stencil",
            "heat3d",
            "--size",
            "96x96x96xT32",
            "--tile",
            "8,4,2,32",
        ]))
        .unwrap();
        assert!(out.contains("iterations/word"), "{out}");
    }

    #[test]
    fn params_and_compare_run() {
        let out = run(&sv(&[
            "params",
            "--stencil",
            "jacobi2d",
            "--size",
            "512x512xT64",
            "--samples",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("Citer"), "{out}");
        let out = run(&sv(&[
            "compare",
            "--stencil",
            "jacobi2d",
            "--size",
            "512x512xT64",
            "--tile",
            "8,8,128",
            "--tile2",
            "4,32,32",
            "--samples",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("T_exec"), "{out}");
    }

    #[test]
    fn trace_renders_lanes() {
        let out = run(&sv(&[
            "trace",
            "--stencil",
            "jacobi2d",
            "--size",
            "512x512xT32",
            "--tile",
            "8,8,128",
            "--kernel",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("SM0"), "{out}");
        assert!(out.contains("makespan"), "{out}");
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&sv(&["bogus"])).is_err());
    }

    #[test]
    fn help_lists_every_flag() {
        for (name, cmd) in &COMMANDS {
            let help = run(&sv(&[name, "--help"])).unwrap();
            assert!(usage().contains(cmd.usage), "{name}");
            for (flag, ..) in cmd.rows() {
                assert!(
                    help.lines()
                        .any(|l| l.split_whitespace().next() == Some(flag)),
                    "{flag} missing from `{name} --help`"
                );
            }
        }
    }
}
