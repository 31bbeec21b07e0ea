//! RL pin: exact outputs of Pensieve and SENSEI-Pensieve after fixed-seed
//! training.
//!
//! `batch_soundness` compares the batched and scalar session loops, but
//! both call the same `decide`, so a change to the network arithmetic
//! moves both sides together and goes unnoticed. This suite trains both
//! agents for a few dozen episodes on a small fixture corpus and pins the
//! results bit for bit: the policy's action probabilities and the critic's
//! value over a fixed state grid, and `decide`'s `(level, pause_s)` over a
//! `PlayerState` grid that covers startup, steady streaming, and pause
//! actions up to a spent pause budget. A kernel change that claims "same
//! arithmetic, faster" must leave every number here unchanged.

use sensei_abr::pensieve::STATE_DIM;
use sensei_abr::sensei_pensieve::SENSEI_STATE_DIM;
use sensei_abr::{Pensieve, PensieveConfig, SenseiPensieve};
use sensei_ml::rl::{A2cConfig, ActorCritic, Transition};
use sensei_sim::{simulate, AbrPolicy, Decision, PlayerConfig, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;
use sensei_video::content::{Genre, SceneKind, SceneSpec};
use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights, SourceVideo};

const EPISODES: usize = 36;

/// A 20-chunk sports-like video with a key moment in the second half.
fn source() -> SourceVideo {
    SourceVideo::from_script(
        "rl-pins",
        Genre::Sports,
        &[
            SceneSpec::new(SceneKind::NormalPlay, 8),
            SceneSpec::new(SceneKind::Scenic, 4),
            SceneSpec::new(SceneKind::KeyMoment, 4),
            SceneSpec::new(SceneKind::NormalPlay, 4),
        ],
        55,
    )
    .unwrap()
}

fn encoded(src: &SourceVideo) -> EncodedVideo {
    EncodedVideo::encode(src, &BitrateLadder::default_paper(), 5)
}

/// A steady link, a variable one and a tight one.
fn traces() -> Vec<ThroughputTrace> {
    vec![
        ThroughputTrace::constant("steady", 2500.0, 600.0).unwrap(),
        sensei_trace::generate::fcc_like(1500.0, 600, 1),
        sensei_trace::generate::hsdpa_like(900.0, 600, 7),
    ]
}

fn train_pensieve() -> Pensieve {
    let src = source();
    let enc = encoded(&src);
    let cfg = PensieveConfig {
        episodes: EPISODES,
        ..PensieveConfig::default()
    };
    Pensieve::train(&[(src, enc)], &traces(), &cfg, 21).unwrap()
}

fn train_sensei() -> SenseiPensieve {
    let src = source();
    let enc = encoded(&src);
    let weights = SensitivityWeights::ground_truth(&src);
    let cfg = PensieveConfig {
        episodes: EPISODES,
        ..PensieveConfig::sensei_default()
    };
    SenseiPensieve::train(&[(src, enc, weights)], &traces(), &cfg, 23).unwrap()
}

/// A small index as `f64` (exact: every value here is far below 2^32).
fn float<T: TryInto<u32>>(n: T) -> f64
where
    T::Error: std::fmt::Debug,
{
    f64::from(n.try_into().unwrap())
}

/// A fixed grid of `dim`-dimensional states: exact zeros, negative
/// entries and values past the normalized range included.
fn state_grid(dim: usize) -> Vec<Vec<f64>> {
    (0..6u64)
        .map(|j| {
            (0..dim as u64)
                .map(|d| match (j, d % 7) {
                    (0, _) => 0.0,
                    (_, 3) => -0.0,
                    _ => {
                        let h = (j * 2_654_435_761 + d * 40_503 + 17) % 1000;
                        (float(h) / 250.0) - 0.5 * float(j % 2)
                    }
                })
                .collect()
        })
        .collect()
}

/// Per-chunk visual quality rising with level, for the session context.
fn vq(chunks: usize) -> Vec<Vec<f64>> {
    (0..chunks)
        .map(|c| {
            (0..5)
                .map(|l| 0.2 + 0.15 * float(l) + 0.005 * float(c))
                .collect()
        })
        .collect()
}

/// `decide` over a `PlayerState` grid: the startup state, then steady
/// streaming with buffers from empty to far past the cap, throughput
/// from a tenth to a hundred times the ladder, short and full histories,
/// early and late chunks. The far-out states spread the greedy choice
/// over the ladder even for a briefly trained agent.
fn decide_grid(policy: &mut dyn AbrPolicy, weighted: bool) -> String {
    let src = source();
    let enc = encoded(&src);
    let weights = SensitivityWeights::ground_truth(&src);
    let vq = vq(src.num_chunks());
    let ctx = SessionContext {
        encoded: &enc,
        vq: &vq,
        weights: weighted.then_some(&weights),
        chunk_duration_s: 4.0,
    };
    let tput = [
        400.0, 3200.0, 900.0, 1500.0, 2600.0, 700.0, 1800.0, 5000.0, 1200.0,
    ];
    let dl = [3.1, 0.4, 1.9, 2.2, 0.8, 4.5, 1.0, 0.3, 2.7];
    let mut out = vec![policy.decide(
        &PlayerState {
            next_chunk: 0,
            buffer_s: 0.0,
            last_level: None,
            throughput_history_kbps: &[],
            download_time_history_s: &[],
            elapsed_s: 0.0,
            playing: false,
        },
        &ctx,
    )];
    for k in 0..48usize {
        let scale = [0.1, 1.0, 10.0, 100.0][(k / 6) % 4];
        let hist = 1 + k % 9;
        let tput: Vec<f64> = tput[..hist].iter().map(|t| t * scale).collect();
        let dl: Vec<f64> = dl[..hist].iter().map(|d| d / scale).collect();
        let next_chunk = (k * 7) % 20;
        out.push(policy.decide(
            &PlayerState {
                next_chunk,
                buffer_s: [0.0, 2.0, 7.0, 25.0, 60.0, 150.0][k % 6],
                last_level: Some(k % 5),
                throughput_history_kbps: &tput,
                download_time_history_s: &dl,
                elapsed_s: 4.0 * float(next_chunk),
                playing: k % 11 != 0,
            },
            &ctx,
        ));
    }
    codes(&out)
}

/// One token per decision: the level, then the pause as `0`, `1` or `2`
/// when it is exactly that many seconds, else as its hex bits.
fn codes(decisions: &[Decision]) -> String {
    let tokens: Vec<String> = decisions
        .iter()
        .map(|d| match d.pause_s.to_bits() {
            b if b == 0.0f64.to_bits() => format!("{}0", d.level),
            b if b == 1.0f64.to_bits() => format!("{}1", d.level),
            b if b == 2.0f64.to_bits() => format!("{}2", d.level),
            b => format!("{}:{b:#x}", d.level),
        })
        .collect();
    tokens.join(" ")
}

/// FNV-1a over a byte stream: a compact exact fingerprint for outputs too
/// long to list.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Records every decision of the wrapped policy over a simulated session.
struct Recorder<'a> {
    inner: &'a mut dyn AbrPolicy,
    decisions: Vec<Decision>,
}

impl AbrPolicy for Recorder<'_> {
    fn name(&self) -> &str {
        "recorder"
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        let d = self.inner.decide(state, ctx);
        self.decisions.push(d);
        d
    }
}

/// Every decision of one session on the tight trace.
fn session(policy: &mut dyn AbrPolicy, weighted: bool) -> String {
    let src = source();
    let enc = encoded(&src);
    let weights = SensitivityWeights::ground_truth(&src);
    let trace = sensei_trace::generate::hsdpa_like(1100.0, 600, 99);
    let mut rec = Recorder {
        inner: policy,
        decisions: Vec::new(),
    };
    simulate(
        &src,
        &enc,
        &trace,
        &mut rec,
        &PlayerConfig::default(),
        weighted.then_some(&weights),
    )
    .unwrap();
    codes(&rec.decisions)
}

fn prob_bits(agent: &ActorCritic, dim: usize) -> Vec<u64> {
    state_grid(dim)
        .iter()
        .flat_map(|s| agent.action_probs(s).unwrap())
        .map(f64::to_bits)
        .collect()
}

fn value_bits(agent: &ActorCritic, dim: usize) -> Vec<u64> {
    state_grid(dim)
        .iter()
        .map(|s| agent.state_value(s).unwrap().to_bits())
        .collect()
}

/// A SENSEI-Pensieve-shaped agent trained directly on synthetic episodes
/// that reward the pause actions, so greedy `decide` takes pauses until
/// the 2-second budget is spent.
fn pause_agent(favoured: usize) -> ActorCritic {
    let cfg = A2cConfig {
        hidden: 24,
        ..A2cConfig::default()
    };
    let mut agent = ActorCritic::new(SENSEI_STATE_DIM, 7, cfg, 31 + favoured as u64).unwrap();
    let grid = state_grid(SENSEI_STATE_DIM);
    for ep in 0..40 {
        let episode: Vec<Transition> = (0..7)
            .map(|a| Transition {
                state: grid[(ep + a) % grid.len()].clone(),
                action: a,
                reward: if a == favoured { 1.0 } else { -0.1 * float(a) },
            })
            .collect();
        agent.train_episode(&episode).unwrap();
    }
    agent
}

#[test]
fn pensieve_network_outputs_are_pinned() {
    let p = train_pensieve();
    let probs = prob_bits(p.agent(), STATE_DIM);
    let values = value_bits(p.agent(), STATE_DIM);
    assert_eq!(probs, PENSIEVE_PROBS, "got {probs:#018x?}");
    assert_eq!(values, PENSIEVE_VALUES, "got {values:#018x?}");
    // Every trained weight and Adam moment, through `Debug`'s shortest
    // round-trip float formatting.
    let trained = fnv1a(format!("{:?}", p.agent()).into_bytes());
    assert_eq!(trained, PENSIEVE_AGENT_FNV, "got {trained:#018x}");
}

#[test]
fn pensieve_decisions_are_pinned() {
    let mut p = train_pensieve();
    let grid = decide_grid(&mut p, false);
    let run = session(&mut p, false);
    assert_eq!(grid, PENSIEVE_GRID, "got {grid:?}");
    assert_eq!(run, PENSIEVE_SESSION, "got {run:?}");
}

#[test]
fn sensei_pensieve_training_and_decisions_are_pinned() {
    let mut p = train_sensei();
    // A briefly trained SENSEI-Pensieve is greedy-constant, so its
    // decisions alone would miss a changed weight; the `Debug` fingerprint
    // covers every trained weight and Adam moment.
    let trained = fnv1a(format!("{p:?}").into_bytes());
    let grid = decide_grid(&mut p, true);
    let run = session(&mut p, true);
    assert_eq!(trained, SENSEI_AGENT_FNV, "got {trained:#018x}");
    assert_eq!(grid, SENSEI_GRID, "got {grid:?}");
    assert_eq!(run, SENSEI_SESSION, "got {run:?}");
}

#[test]
fn pause_budget_paths_are_pinned() {
    let mut outputs = Vec::new();
    let mut grids = Vec::new();
    for favoured in [4, 5, 6] {
        let agent = pause_agent(favoured);
        outputs.extend(prob_bits(&agent, SENSEI_STATE_DIM));
        outputs.extend(value_bits(&agent, SENSEI_STATE_DIM));
        let mut policy = SenseiPensieve::from_agent(agent).unwrap();
        grids.push(decide_grid(&mut policy, true));
    }
    let outputs = fnv1a(outputs.iter().flat_map(|b| b.to_le_bytes()));
    assert_eq!(outputs, PAUSE_AGENT_FNV, "got {outputs:#018x}");
    assert_eq!(grids, PAUSE_GRIDS, "got {grids:?}");
    // The pause-favouring agents pause until the budget is spent.
    for grid in &grids[1..] {
        assert!(grid.split(' ').any(|d| d.ends_with('2')), "{grid}");
    }
}

const PENSIEVE_PROBS: &[u64] = &[
    0x3fc89e277329072a,
    0x3fce9320cde7c5d4,
    0x3fcbf428bfd5f89f,
    0x3fc9dde5f35fa9ae,
    0x3fc2fca90bb990b6,
    0x3f8ea12103097fd4,
    0x3fe41421753af491,
    0x3fd5a18801a49c13,
    0x3f9412193ec707cf,
    0x3ec4efc17c9f95a0,
    0x3f9d6936dd6b9d75,
    0x3fe3d44d8ff632c4,
    0x3fd4a843dfb0783d,
    0x3f9d81b36f1e825e,
    0x3efc96e6a00fab21,
    0x3f888739e9b8fe94,
    0x3fd61d4adb81cf9d,
    0x3fdcca89ed7490d3,
    0x3fc8a665d7b15f1f,
    0x3f07cf7c65019a58,
    0x3f97f35eabb37e9f,
    0x3fd400c2bf01b157,
    0x3fda66ef205e2dfc,
    0x3fd0117b31f9b776,
    0x3f3e740facc5335b,
    0x3f87787426b9f2a2,
    0x3fe4140002d7af57,
    0x3fd609261b337f21,
    0x3f9131227531effc,
    0x3eb05a50ce6dab02,
];
const PENSIEVE_VALUES: &[u64] = &[
    0x3fabb22452c20994,
    0x40054f3f0105fb16,
    0x4000249620305d8c,
    0x400ef29c9731b13e,
    0x40090a989284d16d,
    0x40076f6ab1ef431b,
];
const PENSIEVE_AGENT_FNV: u64 = 0xcbd0bd288f2b8cb0;
const PENSIEVE_GRID: &str = "10 10 10 10 10 30 30 10 10 10 30 30 30 10 10 20 30 30 30 20 20 20 20 20 30 10 10 20 20 30 30 10 10 10 30 30 30 10 20 20 30 30 30 20 20 30 30 20 30";
const PENSIEVE_SESSION: &str = "10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 30 10";
const SENSEI_AGENT_FNV: u64 = 0x7364ca2281ab4af4;
const SENSEI_GRID: &str = "10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10";
const SENSEI_SESSION: &str = "10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10 10";
const PAUSE_AGENT_FNV: u64 = 0xbbaae17272b57b33;
const PAUSE_GRIDS: [&str; 3] = ["10 10 20 10 30 40 40 10 40 40 40 40 40 10 40 40 40 40 40 10 30 40 10 40 40 20 10 10 40 40 40 10 10 10 30 40 40 10 30 40 30 40 40 30 30 40 30 30 40", "30 30 30 32 32 32 32 32 42 32 32 32 30 32 32 30 32 42 32 32 30 30 42 30 30 32 42 32 32 32 32 32 32 32 30 32 32 32 30 30 32 32 32 32 32 40 32 32 32", "40 40 42 42 42 02 22 42 42 42 42 42 20 42 42 42 22 20 20 42 20 30 20 30 42 42 42 40 42 22 22 42 42 42 40 22 20 42 42 32 22 02 20 42 20 40 20 20 30"];
