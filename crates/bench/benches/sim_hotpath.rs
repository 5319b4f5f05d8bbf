//! Simulator hot-path benchmarks: the closed-form steady-state kernel
//! scheduler vs the exact O(total-blocks) dealing loop, and a full
//! `simulate` call over a real tiling plan. Companion to
//! `experiments --bench-exec`, which times the same schedulers on larger
//! workloads and persists `BENCH_exec.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{kernel_time, kernel_time_dealing, occupancy, simulate, DeviceConfig, SimWorkload};
use hhc_tiling::{LaunchConfig, TileSizes, TilingPlan};
use std::hint::black_box;
use stencil_core::{ProblemSize, StencilKind};

fn jacobi2d_workload() -> (DeviceConfig, SimWorkload) {
    let device = DeviceConfig::gtx980();
    let spec = StencilKind::Jacobi2D.spec();
    let size = ProblemSize::new_2d(1024, 1024, 128);
    // (8, 32, 256) overflows gtx980 shared memory per block; 128 fits.
    let tiles = TileSizes::new_2d(8, 32, 128);
    let plan =
        TilingPlan::build(&spec, &size, tiles, LaunchConfig::new_2d(4, 32)).expect("plan builds");
    (device, SimWorkload::from_plan(&plan))
}

fn bench_kernel_scheduling(c: &mut Criterion) {
    let (device, wl) = jacobi2d_workload();
    let k = occupancy(&device, &wl).expect("occupancy").k;
    // The widest wavefront dominates the schedule cost.
    let classes = wl
        .kernels
        .iter()
        .max_by_key(|kern| kern.block_count())
        .expect("plan has kernels")
        .classes
        .clone();
    let steady = kernel_time(&device, &wl, &classes, k);
    let dealing = kernel_time_dealing(&device, &wl, &classes, k);
    assert_eq!(steady, dealing, "schedulers must agree before timing");

    let mut g = c.benchmark_group("sim_hotpath");
    g.sample_size(10);
    g.bench_function("kernel_time_steady", |b| {
        b.iter(|| black_box(kernel_time(&device, &wl, &classes, k).makespan))
    });
    g.bench_function("kernel_time_dealing", |b| {
        b.iter(|| black_box(kernel_time_dealing(&device, &wl, &classes, k).makespan))
    });
    g.bench_function("simulate_full_plan", |b| {
        b.iter(|| black_box(simulate(&device, &wl).expect("launches").total_time))
    });
    g.finish();
}

criterion_group!(benches, bench_kernel_scheduling);
criterion_main!(benches);
