//! Seeded input generation. Every workload's op stream is a pure
//! function of `--seed`: the program under test only ever sees the
//! generated inputs.
//!
//! The streams are *stratified* so that different seeds load the system
//! the same way. Ops are dealt in fixed blocks: a block of
//! [`MIX_BLOCK`] ops holds exactly the workload's share of light and
//! heavy ops at seeded positions, and (device, stencil) cells are dealt
//! from a deck that hands out every cell once per round in a fresh
//! seeded order. A seed changes which sizes are drawn and in what order,
//! not the shape of the load, so run-to-run spread measures the program
//! rather than the dice.

use std::collections::HashSet;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi` on the grid `lo, lo + step, ...`.
    pub fn stepped(&mut self, lo: usize, hi: usize, step: usize) -> usize {
        lo + step * (self.next_u64() % ((hi - lo) / step + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// The device presets every workload spreads its ops over.
pub const DEVICES: [&str; 2] = ["GTX 980", "Titan X"];
/// 2D stencils: the paper's four plus the radius-2 zoo stencil.
pub const STENCILS_2D: [&str; 5] = ["Jacobi2D", "Heat2D", "Laplacian2D", "Gradient2D", "Lap4_2D"];
/// 3D stencils: the paper's three plus the asymmetric zoo stencil.
pub const STENCILS_3D: [&str; 4] = ["Jacobi3D", "Heat3D", "Laplacian3D", "Advect3D"];

/// One (device preset, named stencil) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    pub device: &'static str,
    pub stencil: &'static str,
}

impl Cell {
    /// Space rank of the cell's stencil.
    pub fn rank(&self) -> usize {
        if STENCILS_3D.contains(&self.stencil) {
            3
        } else {
            2
        }
    }

    /// A model-only query at a size no generator draws: warms the
    /// advisor's micro-benchmark memo for this pair.
    pub fn warm_line(&self) -> String {
        let extents: &[usize] = if self.rank() == 3 { &[20; 3] } else { &[80; 2] };
        query_line("warm", *self, extents, 4, false)
    }
}

fn cells(stencils: &[&'static str]) -> Vec<Cell> {
    DEVICES
        .iter()
        .flat_map(|&device| {
            stencils
                .iter()
                .map(move |&stencil| Cell { device, stencil })
        })
        .collect()
}

/// Every cell the workloads touch: what set-up warms.
pub fn all_cells() -> Vec<Cell> {
    let mut v = cells(&STENCILS_2D);
    v.extend(cells(&STENCILS_3D));
    v
}

/// Deals every item once per round, each round in a fresh seeded order.
#[derive(Debug, Clone)]
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        Deck {
            next: items.len(),
            items,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// `lo, lo + step, ..., hi`.
fn steps(lo: usize, hi: usize, step: usize) -> Vec<usize> {
    (lo..=hi).step_by(step).collect()
}

/// Ops per mix block.
pub const MIX_BLOCK: usize = 20;

/// Deals light/heavy flags: exactly `light` of every [`MIX_BLOCK`]
/// consecutive ops are light, at seeded positions within the block.
#[derive(Debug, Clone)]
struct Mix {
    light: usize,
    block: Vec<bool>,
}

impl Mix {
    fn new(light: usize) -> Mix {
        Mix {
            light,
            block: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> bool {
        if self.block.is_empty() {
            self.block = (0..MIX_BLOCK).map(|i| i < self.light).collect();
            rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }
}

/// One `tile_opt::study` experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyOp {
    pub cell: Cell,
    /// Space extents (2 or 3 of them).
    pub extents: Vec<usize>,
    pub time: usize,
    /// 3D experiments are the light class (about 1/20 the cost of 2D).
    pub light: bool,
}

/// Light (3D) experiments per [`MIX_BLOCK`] in `study`. A 2D experiment
/// costs about 20× a 3D one, so with 85% light ops `op_ms.p50` falls
/// inside the 3D population (at its 0.59 quantile) and `op_ms.p90`
/// inside the 2D one (at its 0.33 quantile). The 2D population splits
/// again: Gradient2D and Lap4_2D cost about 1.3× the other three, so the
/// 2D quantile `op_ms.p90` lands on is kept inside the cheaper 60%.
pub const STUDY_LIGHT: usize = 17;

/// The endless `study` op stream for `seed`. Extents and horizons are
/// dealt from decks like the cells, so every seed draws each of them
/// equally often.
pub fn study_ops(seed: u64) -> impl Iterator<Item = StudyOp> {
    let mut rng = Rng::new(seed);
    let mut mix = Mix::new(STUDY_LIGHT);
    let (mut d2, mut d3) = (
        Deck::new(cells(&STENCILS_2D)),
        Deck::new(cells(&STENCILS_3D)),
    );
    // A 128³ experiment lasts about 8 ms over five parallel sections
    // that each start and join threads; on a shared VM its latency
    // doubled for minutes at a time while 2D experiments slowed by a
    // quarter. At 256³–384³ an experiment lasts about 25 ms.
    let (mut s3, mut t3) = (
        Deck::new(steps(256, 384, 32)),
        Deck::new(steps(128, 256, 32)),
    );
    let (mut s2, mut t2) = (
        Deck::new(steps(512, 1024, 64)),
        Deck::new(steps(128, 512, 32)),
    );
    std::iter::from_fn(move || {
        let light = mix.draw(&mut rng);
        let (cells, sizes, times, rank) = if light {
            (&mut d3, &mut s3, &mut t3, 3)
        } else {
            (&mut d2, &mut s2, &mut t2, 2)
        };
        let cell = cells.draw(&mut rng);
        let s = sizes.draw(&mut rng);
        Some(StudyOp {
            cell,
            extents: vec![s; rank],
            time: times.draw(&mut rng),
            light,
        })
    })
}

/// One validated advisory query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateOp {
    pub cell: Cell,
    pub extents: Vec<usize>,
    pub time: usize,
    /// 2D queries are the light class: a 3D query costs about five
    /// times as much.
    pub light: bool,
}

impl ValidateOp {
    pub fn line(&self, id: usize) -> String {
        query_line(&format!("v{id}"), self.cell, &self.extents, self.time, true)
    }

    /// Stencil point updates one executed candidate performs.
    pub fn points_per_candidate(&self) -> u64 {
        self.extents.iter().product::<usize>() as u64 * self.time as u64
    }
}

/// Light (2D) queries per [`MIX_BLOCK`] in `validate`: with 70% light
/// ops `op_ms.p50` falls inside the 2D population and `op_ms.p90` inside
/// the 3D one, as in `study`.
pub const VALIDATE_LIGHT: usize = 14;

/// Point updates per executed candidate the `validate` generator aims
/// for, by rank: the time horizon shrinks as the grid grows, so a
/// query's cost follows its candidate count rather than its volume.
const VALIDATE_POINTS_2D: usize = 1 << 19;
const VALIDATE_POINTS_3D: usize = 1 << 18;

/// The endless `validate` op stream for `seed`: 2D grids with extents
/// of 96–224, 3D grids with extents of 24–40, so that a grid, its output
/// and the executor's plane ring stay inside a 2 MiB per-core L2. Larger
/// grids spill into the shared LLC, where their run time follows other
/// tenants' traffic: with grids up to 512² and 64³, the 2D p90 latency
/// of the slowest of ten runs was 1.5× the median run's. Queries are
/// small, a few to a few tens of milliseconds, so that a run holds some
/// hundreds of them. Each extent is dealt from a deck, so every seed
/// draws each extent equally often; grids need not be square, which
/// leaves thousands of distinct queries per cell. A query never repeats
/// within a stream, so every query misses the advisor's answer cache
/// and executes its candidates.
pub fn validate_ops(seed: u64) -> impl Iterator<Item = ValidateOp> {
    let mut rng = Rng::new(seed);
    let mut mix = Mix::new(VALIDATE_LIGHT);
    let (mut d2, mut d3) = (
        Deck::new(cells(&STENCILS_2D)),
        Deck::new(cells(&STENCILS_3D)),
    );
    let (mut e2, mut e3) = (Deck::new(steps(96, 224, 8)), Deck::new(steps(24, 40, 2)));
    let mut seen = HashSet::new();
    std::iter::from_fn(move || {
        let light = mix.draw(&mut rng);
        let (cells, extents, rank, points) = if light {
            (&mut d2, &mut e2, 2, VALIDATE_POINTS_2D)
        } else {
            (&mut d3, &mut e3, 3, VALIDATE_POINTS_3D)
        };
        let cell = cells.draw(&mut rng);
        loop {
            let extents: Vec<usize> = (0..rank).map(|_| extents.draw(&mut rng)).collect();
            let base = (points / extents.iter().product::<usize>()).max(4);
            let time = (base + rng.stepped(0, base / 4, 1)) & !1;
            if seen.insert((cell, extents.clone(), time)) {
                return Some(ValidateOp {
                    cell,
                    extents,
                    time,
                    light,
                });
            }
        }
    })
}

/// One line a serving client sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOp {
    pub line: String,
    /// Off-grid queries miss the answer store and compute (the writes).
    pub miss: bool,
}

/// The precomputed store's grid: every device and named stencil at these
/// cubic/square extents and horizons.
pub const GRID_SIZES: [usize; 4] = [256, 512, 1024, 2048];
pub const GRID_TIMES: [usize; 3] = [64, 256, 1024];

/// Store hits per [`MIX_BLOCK`] in `serve`. A miss costs several times
/// a hit, so misses must stay clear of 10%: at 25% misses `op_ms.p50`
/// sits inside the hits and `op_ms.p90` inside the misses, 0.25 and
/// 0.15 of the distribution away from the boundary.
pub const SERVE_HITS: usize = 15;

/// Zipf exponent of the store-hit key popularity.
pub const ZIPF_S: f64 = 1.1;

/// The endless `serve` line stream of client `conn` for `seed`. Hits
/// draw grid keys zipf-skewed over a seeded popularity order; misses are
/// off-grid sizes that never repeat, across both clients (each client
/// owns one parity of the time horizon).
pub fn serve_ops(seed: u64, conn: usize) -> impl Iterator<Item = ServeOp> {
    let mut rng = Rng::new(seed);
    // The key popularity order is shared by every client of a run.
    let mut grid: Vec<(Cell, usize, usize)> = all_cells()
        .into_iter()
        .flat_map(|c| {
            GRID_SIZES
                .iter()
                .flat_map(move |&s| GRID_TIMES.iter().map(move |&t| (c, s, t)))
        })
        .collect();
    rng.shuffle(&mut grid);
    let cdf: Vec<f64> = {
        let w: Vec<f64> = (1..=grid.len()).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = w.iter().sum();
        w.iter()
            .scan(0.0, |acc, x| {
                *acc += x / total;
                Some(*acc)
            })
            .collect()
    };
    let mut rng = Rng::new(seed ^ (0xC0FF_EE00 + conn as u64));
    let mut mix = Mix::new(SERVE_HITS);
    let mut decks = [
        Deck::new(cells(&STENCILS_2D)),
        Deck::new(cells(&STENCILS_3D)),
    ];
    let mut seen = HashSet::new();
    let mut n = 0usize;
    std::iter::from_fn(move || {
        n += 1;
        let id = format!("c{conn}-{n}");
        let hit = mix.draw(&mut rng);
        if hit {
            let u = rng.unit();
            let k = cdf.partition_point(|&c| c < u).min(grid.len() - 1);
            let (cell, s, t) = grid[k];
            return Some(ServeOp {
                line: query_line(&id, cell, &vec![s; cell.rank()], t, false),
                miss: false,
            });
        }
        let three_d = rng.next_u64() % 2 == 1;
        let cell = decks[usize::from(three_d)].draw(&mut rng);
        loop {
            let (s, rank) = if three_d {
                (rng.stepped(65, 511, 1), 3)
            } else {
                (rng.stepped(257, 4095, 1), 2)
            };
            let time = 2 * rng.stepped(16, 1024, 1) + conn % 2;
            if !GRID_SIZES.contains(&s) && seen.insert((cell, s, time)) {
                return Some(ServeOp {
                    line: query_line(&id, cell, &vec![s; rank], time, false),
                    miss: true,
                });
            }
        }
    })
}

/// A query line as a client writes it.
pub fn query_line(id: &str, cell: Cell, extents: &[usize], time: usize, validate: bool) -> String {
    let size: Vec<String> = extents.iter().map(usize::to_string).collect();
    let mut line = format!(
        r#"{{"id":"{id}","device":"{}","stencil":"{}","size":[{}],"time":{time}"#,
        cell.device,
        cell.stencil,
        size.join(",")
    );
    if validate {
        line.push_str(r#","validate":true"#);
    }
    line.push('}');
    line
}
