//! Planner count pin: the exact search work of every branch-and-bound
//! planner over fixed sessions.
//!
//! The flat-reference and warm-vs-cold suites prove the planners return
//! the right *answers*; they say nothing about how much searching it
//! took. This suite pins the telemetry counters each planner emits —
//! nodes visited, subtrees pruned, warm starts taken, prunes against the
//! seeded incumbent, and the oracle's download-time memo traffic — over
//! fixed scalar sessions (with trace rebinds between them) plus one
//! multi-lane batch. A refactor that claims "same search, less code"
//! must leave every number here unchanged; a change that moves a count
//! on purpose updates the pin in the same commit.

use sensei_abr::{Fugu, OracleMpc, SenseiFugu};
use sensei_sim::{simulate, simulate_batch_in, AbrPolicy, BatchLanes, PlayerConfig, SessionBatch};
use sensei_telemetry::{self as telemetry, Counter};
use sensei_trace::ThroughputTrace;
use sensei_video::content::{Genre, SceneKind, SceneSpec};
use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights, SourceVideo};

/// The pinned counters, in the order of every expected row below.
const PINNED: [Counter; 6] = [
    Counter::PlanNodes,
    Counter::PlanPrunes,
    Counter::WarmStartHits,
    Counter::SeededPrunes,
    Counter::DtMemoLookups,
    Counter::DtMemoHits,
];

/// A 20-chunk sports-like video with a key moment in the second half
/// (mirrors the crate's internal test fixture).
fn source() -> SourceVideo {
    SourceVideo::from_script(
        "plan-counts",
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

/// A steady link, a variable one and a tight one that forces pauses.
fn traces() -> Vec<ThroughputTrace> {
    vec![
        ThroughputTrace::constant("steady", 2500.0, 600.0).unwrap(),
        sensei_trace::generate::fcc_like(1500.0, 600, 1),
        sensei_trace::generate::hsdpa_like(1200.0, 600, 7),
    ]
}

/// Runs one scalar session per trace (rebinding the policy to each) and
/// one three-lane batch on the last trace, and returns the pinned
/// counters the planner emitted over all of it.
fn counts(policy: &mut dyn AbrPolicy, weighted: bool) -> [u64; 6] {
    let src = source();
    let enc = EncodedVideo::encode(&src, &BitrateLadder::default_paper(), 5);
    let weights = SensitivityWeights::ground_truth(&src);
    let weights = weighted.then_some(&weights);
    let all = traces();
    let configs = [12.0, 24.0, 30.0].map(|max_buffer_s| PlayerConfig {
        max_buffer_s,
        ..PlayerConfig::default()
    });
    telemetry::begin();
    for trace in &all {
        policy.rebind(trace);
        simulate(&src, &enc, trace, policy, &configs[1], weights).unwrap();
    }
    let trace = &all[2];
    policy.rebind(trace);
    let mut batch = SessionBatch::new();
    let mut out = Vec::new();
    let mut groups = [BatchLanes {
        policy,
        weights,
        configs: &configs,
    }];
    simulate_batch_in(&mut batch, &src, &enc, trace, &mut groups, &mut out).unwrap();
    assert_eq!(out.len(), configs.len());
    let shard = telemetry::end();
    PINNED.map(|c| shard.counter(c))
}

#[test]
fn fugu_search_counts_are_pinned() {
    let got = counts(&mut Fugu::new(), false);
    assert_eq!(got, [26480, 13491, 114, 4832, 0, 0], "Fugu {PINNED:?}");
}

#[test]
fn sensei_fugu_search_counts_are_pinned() {
    let got = counts(&mut SenseiFugu::new(), true);
    assert_eq!(
        got,
        [74097, 36050, 276, 11888, 0, 0],
        "SENSEI-Fugu {PINNED:?}"
    );
}

#[test]
fn sensei_fugu_no_pause_search_counts_are_pinned() {
    let got = counts(&mut SenseiFugu::without_pause_action(), true);
    assert_eq!(
        got,
        [29880, 14086, 114, 5386, 0, 0],
        "SENSEI-Fugu(no-pause) {PINNED:?}"
    );
}

#[test]
fn aware_oracle_search_counts_are_pinned() {
    let all = traces();
    let got = counts(&mut OracleMpc::aware(&all[0]), true);
    assert_eq!(
        got,
        [81679, 46671, 114, 8294, 81679, 39706],
        "Oracle(aware) {PINNED:?}"
    );
}

#[test]
fn unaware_oracle_search_counts_are_pinned() {
    let all = traces();
    let got = counts(&mut OracleMpc::unaware(&all[0]), false);
    assert_eq!(
        got,
        [54669, 30935, 114, 8715, 54669, 23147],
        "Oracle(unaware) {PINNED:?}"
    );
}
