//! Property tests for the tiled executor's storage and kernel paths:
//! for random stencil kinds, problem sizes, and tile sizes, the
//! rolling-window + row-kernel execution must equal the full space-time
//! checked execution and the sequential reference **bit for bit**, and
//! must hold only `min(t_t + 1, T + 1)` planes resident.

use hhc_tiling::{
    rolling_window_depth, run_tiled_checked, run_tiled_unchecked_with_stats, run_tiled_with,
    ExecOptions, TileSizes,
};
use proptest::prelude::*;
use stencil_core::{init, reference, ProblemSize, StencilKind};

/// A random (stencil, problem, tiles) case. Extents start at 1 (1-cell
/// domains) and tile extents range well past the domain sizes, so
/// tiles-larger-than-domain cases occur routinely.
fn case() -> impl Strategy<Value = (StencilKind, ProblemSize, TileSizes)> {
    (
        0usize..StencilKind::ALL.len(),
        1usize..5,                            // t_t / 2
        (1usize..12, 1usize..10, 1usize..48), // tile space extents
        (1usize..24, 1usize..14, 1usize..9),  // domain space extents
        1usize..14,                           // time steps
    )
        .prop_map(|(k, h, (ts1, ts2, ts3), (s1, s2, s3), t)| {
            let kind = StencilKind::ALL[k];
            let t_t = 2 * h;
            match kind.spec().dim.rank() {
                1 => (
                    kind,
                    ProblemSize::new_1d(s1 * s2, t),
                    TileSizes::new_1d(t_t, ts1),
                ),
                2 => (
                    kind,
                    ProblemSize::new_2d(s1, s2, t),
                    TileSizes::new_2d(t_t, ts1, ts2),
                ),
                _ => (
                    kind,
                    ProblemSize::new_3d(s1.min(9), s2, s3, t.min(8)),
                    TileSizes::new_3d(t_t, ts1.min(7), ts2, ts3),
                ),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast path == checked path == reference, exactly — including
    /// nonzero boundary values — plus the O(window) storage bound.
    #[test]
    fn rolling_window_equals_checked_and_reference(
        (kind, size, tiles) in case(),
        seed in 0u64..1024,
        boundary in 0u32..4,
    ) {
        let spec = kind.spec();
        let mut grid = init::random(size.space_extents(), seed);
        grid.set_boundary(boundary as f32 * 0.75);
        let expect = reference::run(&spec, &size, &grid);
        let checked = run_tiled_checked(&spec, &size, tiles, &grid);
        let (fast, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        prop_assert_eq!(
            expect.max_abs_diff(&checked), 0.0,
            "checked vs reference: {} {} {:?}", kind.name(), size.label(), tiles
        );
        prop_assert_eq!(
            expect.max_abs_diff(&fast), 0.0,
            "fast vs reference: {} {} {:?}", kind.name(), size.label(), tiles
        );
        prop_assert_eq!(stats.resident_planes, rolling_window_depth(tiles, &size));
        prop_assert_eq!(stats.logical_planes, size.time + 1);
        prop_assert!(stats.resident_planes <= tiles.t_t + 1);
    }

    /// Tiles strictly larger than the whole domain on every axis: one tile
    /// covers everything and the window still clamps correctly.
    #[test]
    fn tiles_larger_than_domain(
        s1 in 1usize..6,
        s2 in 1usize..6,
        t in 1usize..7,
        seed in 0u64..256,
    ) {
        let spec = StencilKind::Jacobi2D.spec();
        let size = ProblemSize::new_2d(s1, s2, t);
        let tiles = TileSizes::new_2d(16, 32, 64);
        let grid = init::random(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &grid);
        let (fast, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        prop_assert_eq!(expect.max_abs_diff(&fast), 0.0, "S1={s1} S2={s2} T={t}");
        // t_t + 1 > T + 1, so the ring clamps to the full logical depth.
        prop_assert_eq!(stats.resident_planes, t + 1);
    }

    /// 1-cell domains: every point is a boundary point, so the row kernel
    /// never fires and the generic path must carry the whole run.
    #[test]
    fn one_cell_domains(kidx in 0usize..StencilKind::ALL.len(), t in 1usize..9, seed in 0u64..64) {
        let kind = StencilKind::ALL[kidx];
        let spec = kind.spec();
        let (size, tiles) = match spec.dim.rank() {
            1 => (ProblemSize::new_1d(1, t), TileSizes::new_1d(4, 3)),
            2 => (ProblemSize::new_2d(1, 1, t), TileSizes::new_2d(4, 2, 2)),
            _ => (ProblemSize::new_3d(1, 1, 1, t), TileSizes::new_3d(4, 2, 2, 2)),
        };
        let grid = init::random(size.space_extents(), seed);
        let expect = reference::run(&spec, &size, &grid);
        let (fast, stats) = run_tiled_unchecked_with_stats(&spec, &size, tiles, &grid);
        prop_assert_eq!(expect.max_abs_diff(&fast), 0.0, "{} T={t}", kind.name());
        prop_assert_eq!(stats.kernel_points, 0);
        prop_assert_eq!(stats.generic_points, t as u64);
    }

    /// SIMD row kernels == scalar row kernels, bit for bit, on random
    /// cases — odd extents, boundary-heavy tiles, `t_t > T` truncation
    /// all arise from `case()`'s ranges.
    #[test]
    fn simd_fast_equals_scalar_fast(
        (kind, size, tiles) in case(),
        seed in 0u64..1024,
        boundary in 0u32..4,
    ) {
        let spec = kind.spec();
        let mut grid = init::random(size.space_extents(), seed);
        grid.set_boundary(boundary as f32 * 0.5);
        let (scalar, _) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST_SCALAR)
            .expect("scalar fast run");
        let (simd, _) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST)
            .expect("simd fast run");
        for (a, b) in scalar.as_slice().iter().zip(simd.as_slice()) {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "simd vs scalar: {} {} {:?}", kind.name(), size.label(), tiles
            );
        }
    }

}

/// Every SIMD lane-width remainder (`interior len % 8` ∈ 0..8) on the
/// contiguous axis, in 1D, 2D, and 3D, plus a `t_t > T` truncation case:
/// the vectorized fast path must match the scalar fast path bit for bit.
#[test]
fn simd_matches_scalar_for_all_lane_remainders() {
    let cases = |r: usize| {
        vec![
            (
                StencilKind::Jacobi1D,
                ProblemSize::new_1d(32 + r, 5),
                TileSizes::new_1d(4, 6),
            ),
            (
                StencilKind::Jacobi2D,
                ProblemSize::new_2d(12, 16 + r, 6),
                TileSizes::new_2d(4, 4, 8),
            ),
            // t_t = 16 > T = 3: the window truncates to the full depth.
            (
                StencilKind::Jacobi2D,
                ProblemSize::new_2d(9, 16 + r, 3),
                TileSizes::new_2d(16, 32, 64),
            ),
            (
                StencilKind::Heat3D,
                ProblemSize::new_3d(7, 6, 16 + r, 4),
                TileSizes::new_3d(4, 3, 4, 8),
            ),
        ]
    };
    for r in 0..stencil_core::simd::BLOCK_WIDTH {
        for (kind, size, tiles) in cases(r) {
            let spec = kind.spec();
            let grid = init::random(size.space_extents(), 0xC0FFEE + r as u64);
            let (scalar, _) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST_SCALAR)
                .expect("scalar fast run");
            let (simd, sstats) = run_tiled_with(&spec, &size, tiles, &grid, ExecOptions::FAST)
                .expect("simd fast run");
            for (i, (a, b)) in scalar.as_slice().iter().zip(simd.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {} rem {r} cell {i}",
                    kind.name(),
                    size.label()
                );
            }
            // The interior is wide enough that the blocked sweep engaged.
            assert!(sstats.simd_rows > 0, "{} rem {r}: {sstats:?}", kind.name());
        }
    }
}
