//! The three workloads: their inputs (generated from the seed), their
//! scenario matrices and the policies whose QoE gain each one reports.

use sensei_core::experiment::WeightSource;
use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{family_of, ScenarioFamilies, ScenarioMatrix, TracePerturbation};
use sensei_sim::PlayerConfig;
use sensei_trace::ThroughputTrace;
use std::collections::BTreeMap;

/// RL training budget of `rl-onboard`, per policy (Pensieve and
/// SENSEI-Pensieve each train this many episodes during set-up).
pub const RL_EPISODES: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Procedural corpus, BBA only: trace materialization, the batched
    /// session loop, oracle scoring and the tile fold.
    BbaScale,
    /// Table-1 corpus under the MPC family and DAS-IP: plan search.
    MpcPlan,
    /// Table-1 subset with trained Pensieve variants: RL training in
    /// set-up, neural-network inference per decision.
    RlOnboard,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BbaScale, Workload::MpcPlan, Workload::RlOnboard];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BbaScale => "bba-scale",
            Workload::MpcPlan => "mpc-plan",
            Workload::RlOnboard => "rl-onboard",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times one run repeats set-up (the reported `setup_s` is
    /// the median). RL training makes `rl-onboard`'s set-up the longest.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::BbaScale | Workload::MpcPlan => 5,
            Workload::RlOnboard => 3,
        }
    }

    /// The SENSEI policy and its sensitivity-unaware twin whose mean
    /// true-QoE gain the workload reports, if it runs such a pair.
    pub fn gain_pair(self) -> Option<(PolicyKind, PolicyKind)> {
        match self {
            Workload::BbaScale => None,
            Workload::MpcPlan => Some((PolicyKind::SenseiFugu, PolicyKind::Fugu)),
            Workload::RlOnboard => Some((PolicyKind::SenseiPensieve, PolicyKind::Pensieve)),
        }
    }
}

/// Mean throughput, in kbps, that `bba-scale` rescales each family's
/// traces to, from the family's slowest generated trace to its fastest.
/// The seed still draws every trace's shape, but not the corpus's overall
/// bandwidth: left free, the mean of twelve generated traces ranged from
/// about 700 to 2,300 kbps across seeds, and low-bandwidth sessions cost
/// more to simulate, so the seed alone moved throughput by over 10 %.
pub const FAMILY_LEVELS_KBPS: [f64; 4] = [500.0, 900.0, 1600.0, 2800.0];

/// Rescales each trace family to [`FAMILY_LEVELS_KBPS`], keeping every
/// trace's name, sampling interval and shape.
fn pin_family_levels(traces: &mut [ThroughputTrace]) -> Result<(), String> {
    let mut families: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, trace) in traces.iter().enumerate() {
        families
            .entry(family_of(trace.name()).to_string())
            .or_default()
            .push(i);
    }
    for members in families.values_mut() {
        members.sort_by(|&a, &b| traces[a].mean_kbps().total_cmp(&traces[b].mean_kbps()));
        for (&i, &level) in members.iter().zip(&FAMILY_LEVELS_KBPS) {
            let trace = &traces[i];
            let factor = level / trace.mean_kbps();
            let kbps = trace.samples().iter().map(|&k| k * factor).collect();
            traces[i] = ThroughputTrace::new(trace.name_handle(), trace.interval_s(), kbps)
                .map_err(|e| format!("rescaling trace {}: {e}", trace.name()))?;
        }
    }
    Ok(())
}

/// Everything a workload's fleet runs need, built from the seed alone.
pub struct Inputs {
    pub experiment: Experiment,
    pub matrix: ScenarioMatrix,
}

fn player(max_buffer_s: f64, rtt_s: f64) -> PlayerConfig {
    PlayerConfig {
        max_buffer_s,
        rtt_s,
        ..PlayerConfig::default()
    }
}

/// Generates the workload's corpus and traces from `seed`, onboards
/// them (encoding, crowd profiling, RL training) and builds the matrix.
pub fn build(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let err = |e: &dyn std::fmt::Display| format!("{} set-up: {e}", workload.name());
    match workload {
        Workload::BbaScale => {
            let families = ScenarioFamilies::builder()
                .videos(150)
                .traces_per_family(FAMILY_LEVELS_KBPS.len())
                .trace_duration_s(600)
                .seed(seed)
                .build()
                .map_err(|e| err(&e))?;
            let matrix = families
                .matrix_builder()
                .policies([PolicyKind::Bba])
                .perturbations([
                    TracePerturbation::scaled(0.8),
                    TracePerturbation::jittered(250.0),
                    TracePerturbation {
                        scale: 1.25,
                        jitter_std_kbps: 400.0,
                    },
                ])
                .players(
                    [6.0, 8.0, 12.0, 16.0, 24.0, 30.0]
                        .into_iter()
                        .flat_map(|b| [0.03, 0.08, 0.15, 0.3].map(|rtt| player(b, rtt))),
                )
                .build()
                .map_err(|e| err(&e))?;
            let config = ExperimentConfig {
                seed,
                videos: None,
                weight_source: WeightSource::Crowd,
                train_rl: false,
                rl_episodes: 0,
                ..ExperimentConfig::default()
            };
            let mut experiment = families.into_experiment(&config).map_err(|e| err(&e))?;
            pin_family_levels(&mut experiment.traces)?;
            Ok(Inputs { experiment, matrix })
        }
        Workload::MpcPlan => {
            let config = ExperimentConfig {
                seed,
                videos: None,
                weight_source: WeightSource::Crowd,
                train_rl: false,
                rl_episodes: 0,
                ..ExperimentConfig::default()
            };
            let experiment = Experiment::build(&config).map_err(|e| err(&e))?;
            let matrix = ScenarioMatrix::builder()
                .policies([
                    PolicyKind::Fugu,
                    PolicyKind::SenseiFugu,
                    PolicyKind::SenseiFuguNoPause,
                    PolicyKind::OracleAware,
                    PolicyKind::OracleUnaware,
                    PolicyKind::DasIp,
                ])
                .perturbations([
                    TracePerturbation::identity(),
                    TracePerturbation::jittered(300.0),
                ])
                .players([PlayerConfig::default()])
                .master_seed(seed)
                .build()
                .map_err(|e| err(&e))?;
            Ok(Inputs { experiment, matrix })
        }
        Workload::RlOnboard => {
            let config = ExperimentConfig {
                seed,
                videos: Some(
                    ["Soccer1", "Space", "FPS2", "Basket2"]
                        .map(String::from)
                        .to_vec(),
                ),
                weight_source: WeightSource::Crowd,
                train_rl: true,
                rl_episodes: RL_EPISODES,
                ..ExperimentConfig::default()
            };
            let experiment = Experiment::build(&config).map_err(|e| err(&e))?;
            let matrix = ScenarioMatrix::builder()
                .policies([
                    PolicyKind::Pensieve,
                    PolicyKind::SenseiPensieve,
                    PolicyKind::Bba,
                ])
                .perturbations([
                    TracePerturbation::identity(),
                    TracePerturbation::scaled(0.7),
                    TracePerturbation::scaled(1.3),
                ])
                .players(
                    [8.0, 16.0, 30.0]
                        .into_iter()
                        .flat_map(|b| [0.03, 0.15].map(|rtt| player(b, rtt))),
                )
                .master_seed(seed)
                .build()
                .map_err(|e| err(&e))?;
            Ok(Inputs { experiment, matrix })
        }
    }
}
