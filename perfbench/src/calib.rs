//! A fixed reference workload that measures how fast the host runs now.
//!
//! On a shared host the program's speed drifts by 20–40 % over minutes as
//! neighbours come and go, which no amount of repetition inside one run
//! averages out. The reference pass runs next to every fleet run, on as
//! many threads as the fleet uses, and the throughput metrics are scaled by
//! its median time, so that a run on a slow stretch and a run on a fast
//! one report the same figure for the same program.
//!
//! The pass is three small kernels shaped like the program's hot loops: a
//! dependent per-chunk buffer recurrence (one session stepped scalar), the
//! same recurrence over 16 independent lanes (the batched session loop),
//! and dense `f32` matrix-vector products (a policy network's forward
//! pass). Its time is the geometric mean of theirs. It shares no code with
//! the repository crates, so no change to the program under test changes
//! its cost. Changing this file changes every scaled figure; records from
//! before and after such a change are not comparable.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one single-threaded pass takes at the reference speed: its
/// typical time on a 2-core shared Xeon host (2.0 GHz nominal). A scaled
/// throughput reads as sessions per second at that speed.
pub const REFERENCE_PASS_S: f64 = 0.004;

const TABLE: usize = 1 << 15;
const SWEEPS: usize = 8;
const LANES: usize = 16;
const DIM: usize = 128;
const LAYERS: usize = 100;
const LADDER_KBPS: [f64; 6] = [300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0];

pub struct Reference {
    kbps: Vec<f64>,
    weights: Vec<f32>,
}

/// One chunk step of a buffer-based player: returns the new buffer and
/// level and the step's score.
#[inline(always)]
fn step(buffer_s: f64, level: usize, kbps: f64) -> (f64, usize, f64) {
    let target = if buffer_s < 5.0 {
        0
    } else if buffer_s > 25.0 {
        LADDER_KBPS.len() - 1
    } else {
        ((buffer_s - 5.0) / 4.0) as usize
    };
    let level = if target > level { level + 1 } else { target };
    let download_s = 4.0 * LADDER_KBPS[level] / kbps.max(50.0);
    let stall_s = (download_s - buffer_s).max(0.0);
    let buffer_s = ((buffer_s - download_s).max(0.0) + 4.0).min(30.0);
    (buffer_s, level, LADDER_KBPS[level] * 1e-3 - 4.3 * stall_s)
}

fn timed(f: impl FnOnce() -> f64) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

impl Reference {
    pub fn new() -> Self {
        let mut z = 0x5EED_CA1Bu64;
        let mut next = move || {
            z = z
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            z >> 40
        };
        let kbps = (0..TABLE).map(|_| 200.0 + (next() % 5000) as f64).collect();
        let weights = (0..DIM * DIM)
            .map(|_| (next() % 1000) as f32 * 1e-3 - 0.5)
            .collect();
        Self { kbps, weights }
    }

    fn scalar(&self) -> f64 {
        let (mut buffer_s, mut level, mut score) = (10.0, 0, 0.0);
        for _ in 0..SWEEPS {
            for &kbps in black_box(&self.kbps) {
                let (b, l, s) = step(buffer_s, level, kbps);
                (buffer_s, level) = (b, l);
                score += s;
            }
        }
        score
    }

    fn lanes(&self) -> f64 {
        let (mut buffer_s, mut level, mut score) = ([10.0; LANES], [0; LANES], [0.0; LANES]);
        for _ in 0..SWEEPS {
            for chunk in black_box(&self.kbps).chunks_exact(LANES) {
                for lane in 0..LANES {
                    let (b, l, s) = step(buffer_s[lane], level[lane], chunk[lane]);
                    (buffer_s[lane], level[lane]) = (b, l);
                    score[lane] += s;
                }
            }
        }
        score.iter().sum()
    }

    fn forward(&self) -> f64 {
        let mut x: Vec<f32> = (0..DIM).map(|i| i as f32 * 0.01).collect();
        let mut y = vec![0.0f32; DIM];
        for _ in 0..LAYERS {
            for (out, row) in y.iter_mut().zip(black_box(&self.weights).chunks_exact(DIM)) {
                *out = row.iter().zip(&x).map(|(w, v)| w * v).sum::<f32>().max(0.0) * 0.01;
            }
            std::mem::swap(&mut x, &mut y);
        }
        f64::from(x[0])
    }

    /// One pass's time on this thread: the geometric mean of the kernels'.
    fn pass(&self) -> f64 {
        let times = [
            timed(|| self.scalar()),
            timed(|| self.lanes()),
            timed(|| self.forward()),
        ];
        times.iter().product::<f64>().cbrt()
    }

    /// One pass on each of `threads` threads at once, so that a
    /// `threads`-wide fleet run is compared with as many cores; the mean
    /// of their times.
    pub fn seconds(&self, threads: usize) -> f64 {
        let threads = threads.max(1);
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(|| self.pass())).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference pass panicked"))
                .sum()
        });
        total / threads as f64
    }
}
