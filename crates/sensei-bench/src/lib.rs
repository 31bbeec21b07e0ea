//! Shared support for the per-figure benchmark harness.
//!
//! Every `benches/figNN_*.rs` target regenerates one table or figure from
//! the paper's evaluation and prints `paper:` vs `measured:` rows. Absolute
//! numbers are not expected to match (the substrate is a simulator, not the
//! authors' MTurk + testbed); the *shape* — who wins, by roughly what
//! factor, where crossovers fall — is the reproduction target.
//!
//! Set `SENSEI_BENCH_FULL=1` to run the full 16-video grids; the default
//! quick mode uses a genre-balanced 8-video subset so `cargo bench`
//! completes in minutes.

use sensei_core::experiment::{Experiment, ExperimentConfig, WeightSource};

/// Whether the full corpus was requested via `SENSEI_BENCH_FULL`.
pub fn full_mode() -> bool {
    std::env::var("SENSEI_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// The video subset used in quick mode: two per genre.
pub const QUICK_VIDEOS: [&str; 8] = [
    "Soccer1",
    "Basket1",
    "FPS2",
    "Tank",
    "Space",
    "Animal",
    "Lava",
    "BigBuckBunny",
];

/// Prints the standard figure-bench header, whose mode is
/// `SENSEI_BENCH_FULL`'s.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    let mode = if full_mode() {
        "full (16 videos)"
    } else {
        "quick (8 videos; SENSEI_BENCH_FULL=1 for all 16)"
    };
    header_in_mode(id, title, paper_claim, mode);
}

/// Prints the standard bench header for a bench with its own `mode`.
pub fn header_in_mode(id: &str, title: &str, paper_claim: &str, mode: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("  paper:    {paper_claim}");
    println!("  mode:     {mode}");
    println!("================================================================");
}

/// The experiment configuration for end-to-end grid benches.
pub fn grid_config(seed: u64, train_rl: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        seed,
        weight_source: WeightSource::Crowd,
        train_rl,
        rl_episodes: 3000,
        ..ExperimentConfig::default()
    };
    if !full_mode() {
        cfg.videos = Some(QUICK_VIDEOS.iter().map(|s| s.to_string()).collect());
    }
    cfg
}

/// Builds the grid experiment, reporting build time.
pub fn build_experiment(seed: u64, train_rl: bool) -> Experiment {
    let t0 = std::time::Instant::now();
    let env =
        Experiment::build(&grid_config(seed, train_rl)).expect("experiment environment builds");
    println!(
        "[setup] {} videos, {} traces, RL {} ({:.1}s)",
        env.assets.len(),
        env.traces.len(),
        if train_rl { "trained" } else { "skipped" },
        t0.elapsed().as_secs_f64()
    );
    env
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified by the caller).
    pub fn add(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table with per-column widths.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("  ");
            for (i, cell) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(8);
                s.push_str(&format!("{cell:<w$}  "));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Builds the labeled render set used by the QoE-model accuracy benches
/// (Fig. 2 / Fig. 15): random bitrate-per-chunk renders with optional
/// startup stalls, labeled by the crowd oracle.
pub fn labeled_render_set(
    seed: u64,
    per_video: usize,
) -> Vec<(sensei_video::SourceVideo, sensei_video::RenderedVideo, f64)> {
    use rand::{Rng, SeedableRng};
    let oracle = sensei_crowd::TrueQoe::default();
    let ladder = sensei_video::BitrateLadder::default_paper();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let corpus = sensei_video::corpus::table1(seed);
    let names: Vec<&str> = if full_mode() {
        corpus.iter().map(|e| e.video.name()).collect()
    } else {
        QUICK_VIDEOS.to_vec()
    };
    for entry in corpus.iter().filter(|e| names.contains(&e.video.name())) {
        let src = &entry.video;
        for _ in 0..per_video {
            // §7.3 methodology: random per-chunk bitrates plus a random
            // startup stall from {0, 1, 2} s.
            let chunks: Vec<sensei_video::RenderedChunk> = src
                .chunks()
                .iter()
                .map(|c| {
                    let level = rng.gen_range(0..ladder.len());
                    let kbps = ladder.levels()[level];
                    sensei_video::RenderedChunk {
                        bitrate_kbps: kbps,
                        vq: sensei_video::visual_quality(kbps, c.complexity),
                        rebuffer_s: if rng.gen_bool(0.06) {
                            rng.gen_range(1..=4) as f64
                        } else {
                            0.0
                        },
                        intentional_rebuffer_s: 0.0,
                        motion: c.motion,
                        complexity: c.complexity,
                    }
                })
                .collect();
            let startup = rng.gen_range(0..=2) as f64;
            let render = sensei_video::RenderedVideo::new(
                src.name(),
                src.chunk_duration_s(),
                startup,
                chunks,
            )
            .expect("generated render is valid");
            let label = oracle.qoe01(src, &render).expect("render matches source");
            out.push((src.clone(), render, label));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.add(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn quick_videos_are_table1_names() {
        let corpus = sensei_video::corpus::table1(1);
        for name in QUICK_VIDEOS {
            assert!(
                corpus.iter().any(|e| e.video.name() == name),
                "{name} not in Table 1"
            );
        }
    }

    #[test]
    fn labeled_renders_have_valid_labels() {
        let set = labeled_render_set(3, 2);
        assert_eq!(set.len(), 16);
        for (_, _, label) in &set {
            assert!((0.0..=1.0).contains(label));
        }
    }
}
