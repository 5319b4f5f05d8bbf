//! Problem-size descriptions and the paper's experiment size grids.
//!
//! Section 5 of the paper explores:
//!
//! * 2D: space sizes 4096² and 8192², time `T ∈ {1024, 2048, 4096, 8192,
//!   16384}` — 10 combinations;
//! * 3D: space sizes 384³, 512³, 640³, time `T ∈ {128, 256, 384, 512,
//!   640}` restricted to `T ≤ S` — 12 combinations.

use crate::stencil::StencilDim;
use serde::{Deserialize, Serialize};

/// The largest space-time domain `T·∏S` a problem may have: `2^53`,
/// the largest count an `f64` holds exactly.
pub(crate) const MAX_ITER_POINTS: u64 = 1 << 53;

/// The extents of a stencil problem: space sizes `S_i` plus time steps `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProblemSize {
    /// Number of space dimensions actually used.
    pub dim: StencilDim,
    /// Space extents `S_1..S_3`; unused trailing extents are 1.
    pub space: [usize; 3],
    /// Number of time steps `T`.
    pub time: usize,
}

impl ProblemSize {
    /// 1D problem of `s1` points for `t` steps.
    pub fn new_1d(s1: usize, t: usize) -> Self {
        ProblemSize {
            dim: StencilDim::D1,
            space: [s1, 1, 1],
            time: t,
        }
    }

    /// 2D problem of `s1 × s2` points for `t` steps.
    pub fn new_2d(s1: usize, s2: usize, t: usize) -> Self {
        ProblemSize {
            dim: StencilDim::D2,
            space: [s1, s2, 1],
            time: t,
        }
    }

    /// 3D problem of `s1 × s2 × s3` points for `t` steps.
    pub fn new_3d(s1: usize, s2: usize, s3: usize, t: usize) -> Self {
        ProblemSize {
            dim: StencilDim::D3,
            space: [s1, s2, s3],
            time: t,
        }
    }

    /// Build a problem from a flat list of 1–3 space extents plus the
    /// time-step count; the dimensionality is the number of extents.
    ///
    /// Rejects a zero extent or time step, and a space-time domain
    /// `T·∏S` above 2^53: point counts then stay exact in the model's
    /// `f64` arithmetic and the wavefront count `2⌈T/t_T⌉` cannot wrap.
    pub fn from_extents(extents: &[usize], time: usize) -> Result<Self, String> {
        let size = match extents {
            [s1] => ProblemSize::new_1d(*s1, time),
            [s1, s2] => ProblemSize::new_2d(*s1, *s2, time),
            [s1, s2, s3] => ProblemSize::new_3d(*s1, *s2, *s3, time),
            _ => return Err(format!("size must have 1-3 extents, got {}", extents.len())),
        };
        if time == 0 || extents.contains(&0) {
            return Err("size extents and time must be >= 1".into());
        }
        let points = extents
            .iter()
            .try_fold(time as u64, |acc, &s| acc.checked_mul(s as u64));
        match points {
            Some(p) if p <= MAX_ITER_POINTS => Ok(size),
            _ => Err(format!(
                "problem {} has more than 2^53 space-time points",
                size.label()
            )),
        }
    }

    /// Space extents with trailing 1s for unused dimensions.
    #[inline]
    pub fn space_extents(&self) -> [usize; 3] {
        self.space
    }

    /// Number of points in the space domain, `∏ S_i`.
    #[inline]
    pub fn space_points(&self) -> u64 {
        self.space.iter().map(|&s| s as u64).product()
    }

    /// Number of points in the full space-time iteration domain,
    /// `T · ∏ S_i`.
    #[inline]
    pub fn iter_points(&self) -> u64 {
        self.space_points() * self.time as u64
    }

    /// A short identifier like `4096x4096xT8192` used in result files.
    pub fn label(&self) -> String {
        let mut s = String::new();
        for d in 0..self.dim.rank() {
            if d > 0 {
                s.push('x');
            }
            s.push_str(&self.space[d].to_string());
        }
        s.push_str(&format!("xT{}", self.time));
        s
    }

    /// The paper's ten 2D problem-size combinations (Section 5).
    pub fn paper_2d_sizes() -> Vec<ProblemSize> {
        let mut v = Vec::with_capacity(10);
        for s in [4096usize, 8192] {
            for t in [1024usize, 2048, 4096, 8192, 16384] {
                v.push(ProblemSize::new_2d(s, s, t));
            }
        }
        v
    }

    /// The paper's twelve 3D problem-size combinations (Section 5):
    /// `S ∈ {384, 512, 640}³`, `T ∈ {128, 256, 384, 512, 640}`, `T ≤ S`.
    pub fn paper_3d_sizes() -> Vec<ProblemSize> {
        let mut v = Vec::new();
        for s in [384usize, 512, 640] {
            for t in [128usize, 256, 384, 512, 640] {
                if t <= s {
                    v.push(ProblemSize::new_3d(s, s, s, t));
                }
            }
        }
        v
    }

    /// Reduced size grids used by the default CLI runs and the Criterion
    /// benches so the full pipeline regenerates quickly; same *shape*
    /// (two space extents × five times for 2D) as the paper's grid.
    pub fn reduced_2d_sizes() -> Vec<ProblemSize> {
        let mut v = Vec::with_capacity(10);
        for s in [1024usize, 2048] {
            for t in [256usize, 512, 1024, 2048, 4096] {
                v.push(ProblemSize::new_2d(s, s, t));
            }
        }
        v
    }

    /// Reduced 3D grid (see [`Self::reduced_2d_sizes`]).
    pub fn reduced_3d_sizes() -> Vec<ProblemSize> {
        let mut v = Vec::new();
        for s in [96usize, 128, 160] {
            for t in [32usize, 64, 96, 128, 160] {
                if t <= s {
                    v.push(ProblemSize::new_3d(s, s, s, t));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_2d_grid_has_ten_combinations() {
        let sizes = ProblemSize::paper_2d_sizes();
        assert_eq!(sizes.len(), 10);
        assert!(sizes.iter().all(|p| p.dim == StencilDim::D2));
        assert!(sizes
            .iter()
            .all(|p| p.space[0] == p.space[1] && p.space[2] == 1));
    }

    #[test]
    fn paper_3d_grid_has_twelve_combinations() {
        // 384: T ∈ {128,256,384} → 3; 512: +{512} → 4; 640: all 5 → 12.
        let sizes = ProblemSize::paper_3d_sizes();
        assert_eq!(sizes.len(), 12);
        assert!(sizes.iter().all(|p| p.time <= p.space[0]));
    }

    #[test]
    fn point_counts() {
        let p = ProblemSize::new_2d(4, 8, 3);
        assert_eq!(p.space_points(), 32);
        assert_eq!(p.iter_points(), 96);
        let q = ProblemSize::new_1d(10, 2);
        assert_eq!(q.iter_points(), 20);
    }

    #[test]
    fn from_extents_rejects_domains_past_2_pow_53() {
        let p = ProblemSize::from_extents(&[1 << 20, 1 << 20], 1 << 13).unwrap();
        assert_eq!(p.iter_points(), MAX_ITER_POINTS);
        for (extents, time) in [
            (&[1024usize, 1024][..], usize::MAX),
            (&[4_000_000_000, 4_000_000_000][..], 1),
            (&[1 << 20, 1 << 20][..], (1 << 13) + 1),
            (&[1 << 21, 1 << 21, 1 << 21][..], 1),
        ] {
            let err = ProblemSize::from_extents(extents, time).unwrap_err();
            assert!(err.contains("2^53"), "{err}");
        }
        assert!(ProblemSize::from_extents(&[0, 64], 8).is_err());
        assert!(ProblemSize::from_extents(&[64, 64], 0).is_err());
    }

    #[test]
    fn labels_are_dimension_aware() {
        assert_eq!(ProblemSize::new_1d(64, 8).label(), "64xT8");
        assert_eq!(ProblemSize::new_2d(4, 8, 3).label(), "4x8xT3");
        assert_eq!(ProblemSize::new_3d(2, 3, 4, 5).label(), "2x3x4xT5");
    }

    #[test]
    fn reduced_grids_mirror_paper_shapes() {
        assert_eq!(ProblemSize::reduced_2d_sizes().len(), 10);
        assert_eq!(ProblemSize::reduced_3d_sizes().len(), 12);
    }
}
