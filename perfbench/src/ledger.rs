//! The per-layer ledger (`--trace 1`).
//!
//! The layers are the crates. Each per-layer figure comes from timing a
//! call into one crate's public entry point from the benchmark's own
//! code, on the workload's own inputs, after one un-timed warm-up call;
//! the counts come from the `sensei-telemetry` counters a traced
//! `Fleet::run` attaches to `FleetReport::telemetry`. The accounting
//! check then multiplies each layer's mean unit cost by its count and
//! compares the sum with the traced run's `execute_s`.
//!
//! Every section gets a share of `--seconds` and takes samples until its
//! share is spent (with a floor on the sample count).

use crate::stats::Samples;
use crate::workload::{Inputs, Workload};
use crate::{fleet_run, Checker, Metric};
use sensei_abr::pensieve::STATE_DIM;
use sensei_abr::{Pensieve, PensieveConfig, SenseiPensieve};
use sensei_core::{CellResult, Experiment, PolicyKind, SessionRuntime};
use sensei_crowd::WeightProfiler;
use sensei_fleet::telemetry::{self, Counter, TelemetryShard, TelemetrySnapshot};
use sensei_fleet::{
    merge_reports, FleetReport, FleetStats, RunPhases, ShardSlice, TileStats, TraceCache,
};
use sensei_ml::rl::{ActorCritic, Transition};
use sensei_sim::{
    simulate_batch_in, AbrPolicy, BatchLanes, BatchStates, Decision, PlayerConfig, PlayerState,
    SessionBatch, SessionContext, SessionResult,
};
use sensei_trace::{generate, ThroughputTrace};
use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights, SourceVideo};
use std::hint::black_box;
use std::time::Instant;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// SplitMix64, for the benchmark's own deterministic sampling.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Calls `f(i)` for `i = 0, 1, …` — `i = 0` is the un-timed warm-up —
/// until `seconds` have passed and at least `min` samples were taken,
/// or `max` samples were taken. Returns the number of samples taken.
fn sample_for(seconds: f64, min: usize, max: usize, mut f: impl FnMut(usize)) -> usize {
    f(0);
    let started = Instant::now();
    let mut n = 0;
    while n < max && (n < min || started.elapsed().as_secs_f64() < seconds) {
        n += 1;
        f(n);
    }
    n
}

/// Short metric key of a policy.
fn key(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Bba => "bba",
        PolicyKind::Fugu => "fugu",
        PolicyKind::Pensieve => "pensieve",
        PolicyKind::SenseiFugu => "sensei_fugu",
        PolicyKind::SenseiFuguNoPause => "sensei_fugu_nopause",
        PolicyKind::SenseiPensieve => "sensei_pensieve",
        PolicyKind::OracleAware => "oracle_aware",
        PolicyKind::OracleUnaware => "oracle_unaware",
        PolicyKind::DasIp => "das_ip",
    }
}

fn is_mpc(kind: PolicyKind) -> bool {
    matches!(
        kind,
        PolicyKind::Fugu
            | PolicyKind::SenseiFugu
            | PolicyKind::SenseiFuguNoPause
            | PolicyKind::OracleAware
            | PolicyKind::OracleUnaware
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Wraps a policy and times every `select_batch` call into it.
struct Timed<'p> {
    inner: &'p mut dyn AbrPolicy,
    /// Nanoseconds per decision, one sample per chunk step.
    per_decision: Samples,
    total_ns: f64,
    decisions: u64,
}

impl AbrPolicy for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.inner.decide(state, ctx)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.inner.rebind(trace);
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
    }

    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        let started = Instant::now();
        self.inner.select_batch(states, ctx, out);
        let ns = ns_since(started);
        self.per_decision.push(ns / states.len() as f64);
        self.total_ns += ns;
        self.decisions += states.len() as u64;
    }
}

/// Batch-engine scratch shared by the session passes.
struct Sessions<'e> {
    experiment: &'e Experiment,
    players: Vec<PlayerConfig>,
    batch: SessionBatch,
    results: Vec<SessionResult>,
    seed: u64,
}

impl Sessions<'_> {
    /// The `i`-th `(video, trace)` pair of the benchmark's fixed pseudo-random walk.
    fn pair(&self, i: usize) -> (usize, usize) {
        let h = mix(self.seed ^ (i as u64).wrapping_mul(0xA5A5));
        let videos = self.experiment.assets.len() as u64;
        let traces = self.experiment.traces.len() as u64;
        ((h % videos) as usize, ((h >> 32) % traces) as usize)
    }

    /// One batch of `policy` over every player variant on pair `i`; the
    /// results stay in `self.results` until the next call.
    fn run(&mut self, policy: &mut dyn AbrPolicy, weighted: bool, i: usize) -> Result<(), String> {
        let (v, t) = self.pair(i);
        let asset = &self.experiment.assets[v];
        let trace = &self.experiment.traces[t];
        for r in self.results.drain(..) {
            self.batch.reclaim(r);
        }
        policy.rebind(trace);
        let mut groups = [BatchLanes {
            policy,
            weights: weighted.then_some(&asset.weights),
            configs: &self.players,
        }];
        simulate_batch_in(
            &mut self.batch,
            &asset.source,
            &asset.encoded,
            trace,
            &mut groups,
            &mut self.results,
        )
        .map_err(|f| format!("lane {}: {}", f.lane, f.error))
    }

    fn chunks(&self, i: usize) -> usize {
        self.experiment.assets[self.pair(i).0].source.num_chunks()
    }
}

/// The training traces `Experiment::build` trains its RL policies on.
fn training_traces(seed: u64) -> Vec<ThroughputTrace> {
    let mut traces = Vec::new();
    for (i, m) in [600.0, 1000.0, 1500.0, 2200.0, 3200.0].iter().enumerate() {
        traces.push(generate::hsdpa_like(*m, 600, seed ^ (0x12_000 + i as u64)));
        traces.push(generate::fcc_like(*m, 600, seed ^ (0x13_000 + i as u64)));
    }
    traces
}

struct Ledger {
    metrics: Vec<Metric>,
    workload: &'static str,
}

impl Ledger {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a timing's median as the metric and prints its tail.
    fn timing(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        println!(
            "[{}] {name:<40} {} {unit}",
            self.workload,
            samples.describe()
        );
        self.put(name, samples.median(), unit);
    }
}

/// Runs the traced measurement and returns every per-layer metric.
#[allow(clippy::too_many_lines)]
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    nproc: usize,
    checker: &mut Checker,
) -> Vec<Metric> {
    let exp = &inputs.experiment;
    let matrix = &inputs.matrix;
    let policies = matrix.policies();
    let baseline = policies[0];
    let mut ledger = Ledger {
        metrics: Vec::new(),
        workload: workload.name(),
    };
    let share = |f: f64| seconds * f;

    // --- Fleet runs: untraced at nproc and 1 worker, traced at 1 worker.
    let (mut rate, mut rate_1w) = (Samples::new(), Samples::new());
    let (mut exec_1w, mut exec_traced) = (Samples::new(), Samples::new());
    let mut traced: Option<FleetReport> = None;
    let started = Instant::now();
    while exec_traced.len() < 2 || started.elapsed().as_secs_f64() < share(0.3) {
        for (workers, tel) in [(nproc, false), (1, false), (1, true)] {
            let (scheduled, report, wall) = fleet_run(inputs, workers, tel);
            let passed = checker.check(scheduled, &report);
            let (true, Ok(report)) = (passed, report) else {
                continue;
            };
            let per_s = report.stats.sessions as f64 / wall;
            match (workers == 1, tel) {
                (false, _) => rate.push(per_s),
                (true, false) => {
                    rate_1w.push(per_s);
                    exec_1w.push(report.phases.execute_s);
                }
                (true, true) => {
                    exec_traced.push(report.phases.execute_s);
                    traced = Some(report);
                }
            }
        }
        if started.elapsed().as_secs_f64() > 3.0 * seconds {
            break;
        }
    }
    let Some(traced) = traced else {
        return ledger.metrics;
    };
    let snapshot = traced
        .telemetry
        .clone()
        .unwrap_or_else(|| TelemetrySnapshot::from_shard(TelemetryShard::new()));
    println!(
        "[{}] traced run, 1 worker: {}",
        workload.name(),
        snapshot.summary().trim_end()
    );

    // --- sensei-core: one tile batch per `run_batch_in` call.
    let tile_size = matrix.tile_size();
    let tiles = matrix.num_tiles(exp);
    let lanes: Vec<(PolicyKind, PlayerConfig)> = (0..matrix.num_players())
        .flat_map(|p| policies.iter().map(move |&k| (k, *matrix.player(exp, p))))
        .collect();
    let stride = [7919u64, 7927, 7933, 7937]
        .into_iter()
        .find(|s| !tiles.is_multiple_of(*s))
        .unwrap_or(1);
    let mut runtime = SessionRuntime::new();
    let mut cache = TraceCache::new();
    let mut batch_us = Samples::new();
    let mut kept_tiles: Vec<Vec<CellResult>> = Vec::new();
    let mut cells = Vec::new();
    // Each tile at most once: `k · stride mod tiles` is a permutation.
    let max_tiles = usize::try_from(tiles).map_or(usize::MAX, |t| t.saturating_sub(1).max(1));
    sample_for(share(0.10), 20, max_tiles, |k| {
        let tile = (k as u64 * stride) % tiles;
        let sc = matrix.scenario(exp, tile * tile_size);
        let perturbation = &matrix.perturbations()[sc.perturbation_idx];
        let base = &exp.traces[sc.trace_idx];
        let Ok(trace) = cache.resolve(
            base,
            perturbation,
            sc.trace_idx,
            sc.perturbation_idx,
            sc.seed,
        ) else {
            return;
        };
        cells.clear();
        let t = Instant::now();
        let ok = exp
            .run_batch_in(
                &mut runtime,
                &exp.assets[sc.video_idx],
                trace,
                &lanes,
                &mut cells,
            )
            .is_ok();
        if k > 0 && ok {
            batch_us.push(ns_since(t) / 1e3);
            if kept_tiles.len() < 64 {
                kept_tiles.push(cells.clone());
            }
        }
    });
    let (batch_p50, (tail_pct, tail)) = (
        batch_us.median(),
        batch_us.tail().unwrap_or((50.0, batch_us.median())),
    );
    println!(
        "[{}] {:<40} {} us",
        workload.name(),
        "core.batch_us",
        batch_us.describe()
    );
    ledger.put("core.batch_us.p50", batch_p50, "us");
    ledger.put("core.batch_us.tail", tail, "us");
    ledger.put("core.batch_us.tail_pct", tail_pct, "%");
    ledger.put("core.batch_us.samples", batch_us.len() as f64, "count");

    let mut build_us = Samples::new();
    let mut rebind_ns = Samples::new();
    sample_for(share(0.02), 10, 100_000, |i| {
        let kind = policies[i % policies.len()];
        let trace = &exp.traces[i % exp.traces.len()];
        let other = &exp.traces[(i + 1) % exp.traces.len()];
        let t = Instant::now();
        let Ok(mut policy) = exp.policy(kind, trace) else {
            return;
        };
        policy.rebind(trace);
        let built = ns_since(t);
        let t = Instant::now();
        policy.rebind(other);
        let rebound = ns_since(t);
        black_box(&policy);
        if i > 0 {
            build_us.push(built / 1e3);
            rebind_ns.push(rebound);
        }
    });
    ledger.timing("core.policy_build_us", &build_us, "us");

    // --- sensei-fleet: fold, merge, JSON and shard merge.
    let mut tile_stats = TileStats::new(policies, baseline);
    let mut partial = FleetStats::new(policies, baseline);
    let (mut fold_ns, mut merge_us) = (Samples::new(), Samples::new());
    if !kept_tiles.is_empty() {
        sample_for(share(0.02), 20, 1_000_000, |i| {
            let cells = &kept_tiles[i % kept_tiles.len()];
            tile_stats.reset();
            let t = Instant::now();
            for group in cells.chunks_exact(policies.len()) {
                tile_stats.fold_cell(group);
            }
            let folded = ns_since(t) / (cells.len() / policies.len()).max(1) as f64;
            let t = Instant::now();
            let merged = partial.merge(tile_stats.stats()).is_ok();
            let merge = ns_since(t) / 1e3;
            if i > 0 && merged {
                fold_ns.push(folded);
                merge_us.push(merge);
            }
        });
    }
    ledger.timing("fleet.fold_ns_per_cell", &fold_ns, "ns");
    ledger.timing("fleet.stats_merge_us", &merge_us, "us");

    let (mut to_json_us, mut from_json_us, mut merge_reports_us) =
        (Samples::new(), Samples::new(), Samples::new());
    let half = tiles / 2;
    let partial_report = |stats: FleetStats, index: u64, tile_lo: u64, tile_hi: u64| FleetReport {
        stats,
        workers: 1,
        wall_time_s: traced.wall_time_s,
        sessions_per_sec: traced.sessions_per_sec,
        phases: RunPhases::default(),
        telemetry: None,
        shard: Some(ShardSlice {
            index,
            count: 2,
            tile_lo,
            tile_hi,
            total_tiles: tiles,
        }),
    };
    let shards = [
        partial_report(traced.stats.clone(), 0, 0, half),
        partial_report(FleetStats::new(policies, baseline), 1, half, tiles),
    ];
    let mut merge_ok = true;
    sample_for(share(0.02), 10, 100_000, |i| {
        let t = Instant::now();
        let text = black_box(traced.to_json());
        let encoded = ns_since(t) / 1e3;
        let t = Instant::now();
        let back = FleetReport::from_json(&text);
        let decoded = ns_since(t) / 1e3;
        let t = Instant::now();
        let merged = merge_reports(&shards);
        let merged_us = ns_since(t) / 1e3;
        merge_ok &= back.is_ok() && merged.as_ref().is_ok_and(|m| m.stats == traced.stats);
        if i > 0 {
            to_json_us.push(encoded);
            from_json_us.push(decoded);
            merge_reports_us.push(merged_us);
        }
    });
    if !merge_ok {
        checker.attempted += traced.stats.sessions;
        checker.failed += traced.stats.sessions;
        checker
            .errors
            .push("merge_reports of a 2-way split differs from the whole run".into());
    }
    ledger.timing("fleet.report_to_json_us", &to_json_us, "us");
    ledger.timing("fleet.report_from_json_us", &from_json_us, "us");
    ledger.timing("fleet.merge_reports_us", &merge_reports_us, "us");

    // --- sensei-trace: materialization and generation.
    let perturbations: Vec<_> = matrix
        .perturbations()
        .iter()
        .filter(|p| !p.is_identity())
        .copied()
        .collect();
    let mut materialize_ns = Samples::new();
    let mut buf = Vec::new();
    sample_for(share(0.03), 20, 1_000_000, |i| {
        let p = perturbations[i % perturbations.len()];
        let base = &exp.traces[(i / perturbations.len()) % exp.traces.len()];
        let t = Instant::now();
        let made = base.perturbed_into(
            p.scale,
            p.jitter_std_kbps,
            mix(seed ^ i as u64),
            "bench",
            std::mem::take(&mut buf),
        );
        let ns = ns_since(t);
        if let Ok(trace) = made {
            let samples = trace.samples().len();
            buf = trace.into_samples();
            if i > 0 {
                materialize_ns.push(ns / samples as f64);
            }
        }
    });
    ledger.timing("trace.materialize_ns_per_sample", &materialize_ns, "ns");
    let families = generate::TraceFamily::all();
    let mut generate_ns = Samples::new();
    sample_for(share(0.03), 10, 100_000, |i| {
        let t = Instant::now();
        let traces =
            generate::generate_family(&families[i % families.len()], 1, 600, mix(seed ^ i as u64));
        let ns = ns_since(t);
        let samples: usize = traces.iter().map(|t| t.samples().len()).sum();
        if i > 0 && samples > 0 {
            generate_ns.push(ns / samples as f64);
        }
    });
    ledger.timing("trace.generate_ns_per_sample", &generate_ns, "ns");
    let materializations = snapshot.counter(Counter::TraceMaterializations);
    ledger.put("trace.materializations", materializations as f64, "count");
    ledger.put(
        "trace.cache_hit_rate",
        snapshot.trace_cache_hit_rate(),
        "ratio",
    );

    // --- sensei-video and sensei-crowd: onboarding.
    let ladder = BitrateLadder::default_paper();
    let mut encode_ms = Samples::new();
    sample_for(share(0.02), 5, 100_000, |i| {
        let asset = &exp.assets[i % exp.assets.len()];
        let t = Instant::now();
        black_box(EncodedVideo::encode(&asset.source, &ladder, seed ^ 0xE0C));
        if i > 0 {
            encode_ms.push(ns_since(t) / 1e6);
        }
    });
    ledger.timing("video.encode_ms_per_video", &encode_ms, "ms");
    let mut profile_ms = Samples::new();
    let mut cost_per_min = Samples::new();
    let profiler = WeightProfiler::paper_default(seed ^ 0xC0);
    sample_for(share(0.04), 3, 100_000, |i| {
        let asset = &exp.assets[i % exp.assets.len()];
        let t = Instant::now();
        let profile = profiler.profile(&asset.source, &ladder, seed ^ 0xF1);
        let ms = ns_since(t) / 1e6;
        if let (true, Ok(profile)) = (i > 0, profile) {
            profile_ms.push(ms);
            cost_per_min.push(profile.cost_per_minute_usd(&asset.source));
        }
    });
    ledger.timing("crowd.profile_ms_per_video", &profile_ms, "ms");
    ledger.put(
        "crowd.profile_cost_usd_per_min",
        cost_per_min.mean(),
        "usd/min",
    );

    // --- sensei-sim and sensei-crowd scoring: BBA lanes.
    let mut sessions = Sessions {
        experiment: exp,
        players: (0..matrix.num_players())
            .map(|p| *matrix.player(exp, p))
            .collect(),
        batch: SessionBatch::new(),
        results: Vec::new(),
        seed,
    };
    let mut lane_chunk_ns = Samples::new();
    let mut score_ns = Samples::new();
    if let Ok(mut bba) = exp.policy(PolicyKind::Bba, &exp.traces[0]) {
        sample_for(share(0.04), 10, 1_000_000, |i| {
            let t = Instant::now();
            let ok = sessions.run(bba.as_mut(), false, i).is_ok();
            let ns = ns_since(t);
            if !ok || i == 0 {
                return;
            }
            let lane_chunks = sessions.players.len() * sessions.chunks(i);
            lane_chunk_ns.push(ns / lane_chunks as f64);
            let source = &exp.assets[sessions.pair(i).0].source;
            for r in &sessions.results {
                let t = Instant::now();
                let scored = exp.oracle.qoe01(source, &r.render).is_ok();
                if scored {
                    score_ns.push(ns_since(t));
                }
            }
        });
    }
    ledger.timing("sim.ns_per_lane_chunk", &lane_chunk_ns, "ns");
    ledger.timing("crowd.score_ns_per_session", &score_ns, "ns");
    let players = matrix.num_players() as u64;
    let per_policy_chunks: u64 = exp
        .assets
        .iter()
        .map(|a| a.source.num_chunks() as u64)
        .sum::<u64>()
        * exp.traces.len() as u64
        * matrix.perturbations().len() as u64
        * players;
    let lane_chunks = per_policy_chunks * policies.len() as u64;
    ledger.put("sim.lane_chunks", lane_chunks as f64, "count");

    // --- sensei-abr training and sensei-ml.
    let training = training_traces(seed);
    let plain: Vec<(SourceVideo, EncodedVideo)> = exp
        .assets
        .iter()
        .take(16)
        .map(|a| (a.source.clone(), a.encoded.clone()))
        .collect();
    let weighted: Vec<(SourceVideo, EncodedVideo, SensitivityWeights)> = exp
        .assets
        .iter()
        .take(16)
        .map(|a| (a.source.clone(), a.encoded.clone(), a.weights.clone()))
        .collect();
    const EPISODES: usize = 8;
    let mut trained_plain: Option<Pensieve> = None;
    let mut trained_sensei: Option<SenseiPensieve> = None;
    for sensei in [false, true] {
        let mut per_episode_ms = Samples::new();
        sample_for(share(0.03), 3, 100_000, |i| {
            let t = Instant::now();
            let ok = if sensei {
                let cfg = PensieveConfig {
                    episodes: EPISODES,
                    ..PensieveConfig::sensei_default()
                };
                SenseiPensieve::train(&weighted, &training, &cfg, mix(seed ^ i as u64))
                    .map(|p| trained_sensei = Some(p))
                    .is_ok()
            } else {
                let cfg = PensieveConfig {
                    episodes: EPISODES,
                    ..PensieveConfig::default()
                };
                Pensieve::train(&plain, &training, &cfg, mix(seed ^ i as u64))
                    .map(|p| trained_plain = Some(p))
                    .is_ok()
            };
            if i > 0 && ok {
                per_episode_ms.push(ns_since(t) / 1e6 / EPISODES as f64);
            }
        });
        let name = if sensei {
            "sensei_pensieve"
        } else {
            "pensieve"
        };
        ledger.timing(
            &format!("abr.{name}.train_ms_per_episode"),
            &per_episode_ms,
            "ms",
        );
    }
    let agent = trained_plain
        .as_ref()
        .map(|p| p.agent().clone())
        .or_else(|| ActorCritic::new(STATE_DIM, 5, PensieveConfig::default().a2c, seed).ok());
    let (mut forward_us, mut train_episode_us) = (Samples::new(), Samples::new());
    if let Some(mut agent) = agent {
        let state = |j: u64| -> Vec<f64> {
            (0..STATE_DIM as u64)
                .map(|d| (mix(seed ^ (j << 8) ^ d) % 1000) as f64 / 1000.0)
                .collect()
        };
        let states: Vec<Vec<f64>> = (0..64).map(state).collect();
        sample_for(share(0.02), 10, 1_000_000, |i| {
            let t = Instant::now();
            for s in &states {
                let _ = black_box(agent.action_probs(s));
            }
            if i > 0 {
                forward_us.push(ns_since(t) / 1e3 / states.len() as f64);
            }
        });
        let chunks = exp.assets[0].source.num_chunks();
        let episode: Vec<Transition> = (0..chunks)
            .map(|c| Transition {
                state: states[c % states.len()].clone(),
                action: c % 5,
                reward: (c % 7) as f64 / 7.0,
            })
            .collect();
        sample_for(share(0.02), 10, 1_000_000, |i| {
            let t = Instant::now();
            let ok = agent.train_episode(&episode).is_ok();
            if i > 0 && ok {
                train_episode_us.push(ns_since(t) / 1e3);
            }
        });
    }
    ledger.timing("ml.forward_us", &forward_us, "us");
    ledger.timing("ml.train_episode_us", &train_episode_us, "us");

    // --- sensei-abr decisions: every policy, timed, then counted on the
    // same sessions with telemetry on.
    let mut decision_mean_ns = Vec::new();
    let mut pause_nodes = (0.0, 0.0);
    let mut sensei_fugu_pairs = None;
    for kind in PolicyKind::ALL {
        let built: Option<Box<dyn AbrPolicy>> = match kind {
            PolicyKind::Pensieve if exp.pensieve.is_none() => trained_plain
                .clone()
                .map(|p| Box::new(p) as Box<dyn AbrPolicy>),
            PolicyKind::SenseiPensieve if exp.sensei_pensieve.is_none() => trained_sensei
                .clone()
                .map(|p| Box::new(p) as Box<dyn AbrPolicy>),
            _ => exp.policy(kind, &exp.traces[0]).ok(),
        };
        let Some(mut policy) = built else { continue };
        let weighted = kind.uses_weights();
        let mut timed = Timed {
            inner: policy.as_mut(),
            per_decision: Samples::new(),
            total_ns: 0.0,
            decisions: 0,
        };
        let fixed = (kind == PolicyKind::SenseiFuguNoPause)
            .then_some(sensei_fugu_pairs)
            .flatten();
        let mut failed = false;
        let pairs = sample_for(
            if fixed.is_some() {
                f64::INFINITY
            } else {
                share(0.02)
            },
            fixed.unwrap_or(2),
            fixed.unwrap_or(usize::MAX),
            |i| {
                if i == 1 {
                    // Drop the warm-up session's timings.
                    timed.per_decision = Samples::new();
                    timed.total_ns = 0.0;
                    timed.decisions = 0;
                }
                failed |= sessions.run(&mut timed, weighted, i).is_err();
            },
        );
        if kind == PolicyKind::SenseiFugu {
            sensei_fugu_pairs = Some(pairs);
        }
        let (per_decision, total_ns, decisions) =
            (timed.per_decision, timed.total_ns, timed.decisions as f64);
        telemetry::begin();
        for i in 1..=pairs {
            failed |= sessions.run(policy.as_mut(), weighted, i).is_err();
        }
        let counts = telemetry::end();
        if failed {
            checker
                .errors
                .push(format!("{} sessions failed in the ledger", kind.label()));
            checker.failed += 1;
            checker.attempted += 1;
        }
        let k = key(kind);
        ledger.timing(&format!("abr.{k}.ns_per_decision"), &per_decision, "ns");
        decision_mean_ns.push((kind, ratio(total_ns, decisions)));
        if is_mpc(kind) {
            let nodes = counts.counter(Counter::PlanNodes) as f64;
            let prunes = counts.counter(Counter::PlanPrunes) as f64;
            ledger.put(
                format!("abr.{k}.nodes_per_decision"),
                ratio(nodes, decisions),
                "count",
            );
            ledger.put(format!("abr.{k}.ns_per_node"), ratio(total_ns, nodes), "ns");
            ledger.put(
                format!("abr.{k}.prune_rate"),
                ratio(prunes, nodes + prunes),
                "ratio",
            );
            ledger.put(
                format!("abr.{k}.warm_start_rate"),
                ratio(counts.counter(Counter::WarmStartHits) as f64, decisions),
                "ratio",
            );
            match kind {
                PolicyKind::SenseiFugu => pause_nodes.0 = ratio(nodes, decisions),
                PolicyKind::SenseiFuguNoPause => pause_nodes.1 = ratio(nodes, decisions),
                PolicyKind::OracleAware | PolicyKind::OracleUnaware => ledger.put(
                    format!("abr.{k}.memo_hit_rate"),
                    ratio(
                        counts.counter(Counter::DtMemoHits) as f64,
                        counts.counter(Counter::DtMemoLookups) as f64,
                    ),
                    "ratio",
                ),
                _ => {}
            }
        }
    }
    ledger.put(
        "abr.sensei_fugu.pause_node_overhead",
        ratio(pause_nodes.0, pause_nodes.1),
        "ratio",
    );

    // --- Scaling, telemetry overhead and the accounting check.
    let scaling = ratio(rate.median(), nproc as f64 * rate_1w.median());
    println!(
        "[{}] fleet.scaling_eff {scaling:.4} = sessions_per_s {:.1} / ({nproc} x sessions_per_s_1w {:.1})",
        workload.name(),
        rate.median(),
        rate_1w.median()
    );
    ledger.put("fleet.scaling_eff", scaling, "ratio");

    let sessions_n = snapshot.counter(Counter::Sessions) as f64;
    let mean_trace_samples = exp
        .traces
        .iter()
        .map(|t| t.samples().len() as f64)
        .sum::<f64>()
        / exp.traces.len() as f64;
    let decisions_s: f64 = decision_mean_ns
        .iter()
        .filter(|(k, _)| *k != PolicyKind::Bba && policies.contains(k))
        .map(|(_, ns)| ns * per_policy_chunks as f64 * 1e-9)
        .fold(0.0, |a, b| a + b);
    let terms = [
        (
            "materialize",
            materialize_ns.mean() * mean_trace_samples * materializations as f64 * 1e-9,
        ),
        (
            "lane steps",
            lane_chunk_ns.mean() * lane_chunks as f64 * 1e-9,
        ),
        ("decisions", decisions_s),
        ("score", score_ns.mean() * sessions_n * 1e-9),
        (
            "rebind",
            rebind_ns.mean() * snapshot.counter(Counter::PolicyRebinds) as f64 * 1e-9,
        ),
        (
            "fold",
            fold_ns.mean() * sessions_n / policies.len() as f64 * 1e-9
                + merge_us.mean() * snapshot.counter(Counter::Tiles) as f64 * 1e-6,
        ),
    ];
    // Counters are deterministic, so every traced run has the same counts.
    let execute_s = exec_traced.median();
    let accounted: f64 = terms.iter().map(|(_, s)| s).sum();
    for (name, s) in &terms {
        println!(
            "[{}] accounting {name:<12} {s:.4} s ({:.1}% of traced execute_s)",
            workload.name(),
            ratio(*s, execute_s) * 100.0
        );
    }
    let unaccounted = 1.0 - ratio(accounted, execute_s);
    println!(
        "[{}] fleet.unaccounted_share {unaccounted:.4} = 1 - accounted {accounted:.4} s / traced execute_s {execute_s:.4} s (1 worker median)",
        workload.name()
    );
    ledger.put("fleet.unaccounted_share", unaccounted, "ratio");
    let overhead = ratio(exec_traced.median(), exec_1w.median()) - 1.0;
    println!(
        "[{}] telemetry.overhead_share {overhead:.4} = traced execute_s {:.4} / untraced execute_s {:.4} - 1 (1 worker medians, n={}/{})",
        workload.name(),
        exec_traced.median(),
        exec_1w.median(),
        exec_traced.len(),
        exec_1w.len()
    );
    ledger.put("telemetry.overhead_share", overhead, "ratio");
    ledger.metrics
}
