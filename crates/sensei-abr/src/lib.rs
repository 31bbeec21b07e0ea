//! Adaptive-bitrate algorithms for the SENSEI reproduction.
//!
//! The paper's baselines (§7.1) and SENSEI's variants of them (§5.2):
//!
//! * [`bba`] — Buffer-Based Adaptation (Huang et al. 2014): a reservoir/
//!   cushion map from buffer occupancy to bitrate. No explicit QoE
//!   objective, hence "cannot be optimized by SENSEI as is" (§5.1).
//! * [`predictor`] — harmonic-mean throughput prediction with discrete
//!   error scenarios `p(γ)`, the uncertainty model in Fugu's objective
//!   (Eq. 3).
//! * [`fugu`] — Fugu (Yan et al. 2020) as described by the paper: MPC over
//!   a horizon of h = 5 chunks maximizing expected KSQI chunk quality over
//!   throughput scenarios.
//! * [`sensei_fugu`] — SENSEI-Fugu (Eq. 4): the same controller with
//!   per-chunk weights in the objective and the intentional-rebuffering
//!   action.
//! * [`pensieve`] — Pensieve (Mao et al. 2017): an actor-critic policy
//!   trained in the simulator, rewarded by KSQI chunk quality.
//! * [`sensei_pensieve`] — SENSEI-Pensieve: weights of the next h chunks
//!   appended to the state, rebuffering added to the action space, reward
//!   reweighted (§5.2).
//! * [`offline`] — the idealistic §2.4 controllers that know the entire
//!   throughput trace, used to bound the potential gains (Fig. 6).
//! * [`das_ip`] — DAS-IP (Singh & Kumar, arXiv:1612.05864): a per-level
//!   index policy that replaces the MPC horizon enumeration with an
//!   `O(levels)` argmax, the fleet-scale cost point of the family.
//!
//! Fugu, SENSEI-Fugu and the offline controllers share one exact
//! branch-and-bound plan search (the crate-private `plan` module); each
//! supplies only its walk of a plan prefix.

// Ladder levels, plan indices, and horizon depths move between
// integer and f64 domains constantly; every float→index conversion
// is clamped to the ladder by construction, and counts stay far
// below 2^52. The merge-law cast rules are enforced where they
// matter (sensei-fleet) by sensei-lint's `no-lossy-cast`.
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

pub mod bba;
pub mod das_ip;
pub mod fugu;
pub mod offline;
pub mod pensieve;
mod plan;
pub mod predictor;
pub mod sensei_fugu;
pub mod sensei_pensieve;

pub use bba::Bba;
pub use das_ip::DasIp;
pub use fugu::Fugu;
pub use offline::OracleMpc;
pub use pensieve::{Pensieve, PensieveConfig};
pub use predictor::{ThroughputPredictor, ThroughputScenario};
pub use sensei_fugu::SenseiFugu;
pub use sensei_pensieve::SenseiPensieve;

use sensei_sim::{BatchStates, Decision, PlayerState};

/// Cross-chunk warm-start carry: the full winning plan of one chunk
/// step's search, committed so the *next* step can seed its incumbent
/// with the shifted suffix (see [`WarmLanes`] for who owns the slots).
///
/// Seeding is **result-invariant**: the seed is scored with the exact
/// leaf arithmetic of the search it primes, so it is indistinguishable
/// from the search having visited that leaf first — a stale or
/// mismatched slot can only cost speed, never a bit. The only
/// correctness obligations are hygiene (invalidate on `reset`/`rebind`
/// and at batch boundaries so state never leaks across sessions) and
/// safety (every seeded level must index the current ladder).
#[derive(Debug, Clone, Default)]
struct WarmSlot {
    /// Whether `plan` holds a committed plan from chunk step `next_chunk`.
    valid: bool,
    /// The chunk step `plan` was committed at.
    next_chunk: usize,
    /// The committed winning plan (one ladder level per horizon depth).
    plan: Vec<usize>,
}

/// The warm-start carries of one MPC-family policy ([`Fugu`], the search
/// inside [`SenseiFugu`], [`OracleMpc`]): the scalar slot the search reads
/// and commits, plus one slot per batch lane that
/// [`plan_lanes`] swaps into the scalar slot around the lane's decision —
/// the carry is per-session state, exactly like SENSEI-Fugu's pause
/// ledger.
#[derive(Debug, Clone, Default)]
pub(crate) struct WarmLanes {
    /// When set, searches never seed from or commit to the slots — the
    /// cold reference mode the warm-vs-cold parity suite compares against.
    cold: bool,
    slot: WarmSlot,
    lanes: Vec<WarmSlot>,
}

impl WarmLanes {
    /// Backs the policies' `with_warm_start`: disabling forces every
    /// search to start cold (bit-identical results, more nodes).
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.cold = !enabled;
        if self.cold {
            self.slot.valid = false;
            self.lanes.clear();
        }
    }

    /// Builds the warm-start seed for a search at `next_chunk` over
    /// horizon `h` into `seed`: the shifted suffix of the committed plan
    /// (step `t`'s plan minus its consumed first action), padded with its
    /// last level to fill the horizon. Returns false — and leaves the
    /// search unseeded — in cold mode, and unless the slot holds the
    /// *immediately preceding* chunk step's plan and every seeded level
    /// indexes the ladder (`< n_levels`). Seed *quality* is irrelevant to
    /// correctness (any in-range plan is a real leaf); the guards only
    /// keep indexing safe and the carry per-session.
    pub(crate) fn seed_into(
        &self,
        next_chunk: usize,
        h: usize,
        n_levels: usize,
        seed: &mut Vec<usize>,
    ) -> bool {
        let slot = &self.slot;
        if self.cold || !slot.valid || h == 0 || next_chunk != slot.next_chunk.wrapping_add(1) {
            return false;
        }
        seed.clear();
        if slot.plan.len() > 1 {
            seed.extend_from_slice(&slot.plan[1..]);
        }
        let pad = seed.last().copied().unwrap_or(0);
        seed.resize(h, pad);
        seed.iter().all(|&level| level < n_levels)
    }

    /// Records `plan` as the winner of chunk step `next_chunk`. No-op in
    /// cold mode.
    pub(crate) fn commit(&mut self, next_chunk: usize, plan: &[usize]) {
        if !self.cold {
            let slot = &mut self.slot;
            slot.valid = true;
            slot.next_chunk = next_chunk;
            slot.plan.clear();
            slot.plan.extend_from_slice(plan);
        }
    }

    /// Session-boundary hygiene: the carry never crosses a session, so a
    /// reused policy instance plans exactly like a fresh one.
    pub(crate) fn reset(&mut self) {
        self.slot.valid = false;
    }

    /// Trace-boundary hygiene: a rebound policy plans a different
    /// network, so every slot (scalar and per-lane) is dropped.
    pub(crate) fn rebind(&mut self) {
        self.reset();
        for slot in &mut self.lanes {
            slot.valid = false;
        }
    }

    /// Batch-boundary hygiene: the scalar reset plus one fresh slot per
    /// lane of the new batch (sized once here; `select_batch` relies on
    /// the `begin_batch`-first contract).
    pub(crate) fn begin_batch(&mut self, lanes: usize) {
        self.reset();
        self.lanes.clear();
        self.lanes.resize_with(lanes, WarmSlot::default);
    }

    /// Swaps lane `lane`'s carry with the scalar slot (its own inverse).
    fn swap_lane(&mut self, lane: usize) {
        std::mem::swap(&mut self.slot, &mut self.lanes[lane]);
    }
}

/// The batched decision loop of the MPC family: `decide(policy, lane,
/// state)` runs once per lane over tables the caller prepared for the
/// batch's shared chunk step, with the lane's warm carry (reached through
/// `warm`) swapped into the scalar slot around it, so every lane plans
/// exactly as a dedicated scalar instance would. An effective horizon `h`
/// of 0 (the video end) decides level 0 for every lane.
pub(crate) fn plan_lanes<P>(
    policy: &mut P,
    warm: fn(&mut P) -> &mut WarmLanes,
    h: usize,
    states: &BatchStates<'_>,
    out: &mut [Decision],
    mut decide: impl FnMut(&mut P, usize, &PlayerState<'_>) -> Decision,
) {
    for (lane, slot) in out.iter_mut().enumerate().take(states.len()) {
        if h == 0 {
            *slot = Decision::level(0);
            continue;
        }
        let state = states.state(lane);
        warm(policy).swap_lane(lane);
        *slot = decide(policy, lane, &state);
        warm(policy).swap_lane(lane);
    }
}

/// Errors produced by ABR construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum AbrError {
    /// A hyperparameter is invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Training failed (empty corpus, simulator failure).
    Training(String),
    /// An underlying ML error.
    Ml(sensei_ml::MlError),
    /// An underlying simulator error.
    Sim(sensei_sim::SimError),
}

impl std::fmt::Display for AbrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbrError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            AbrError::Training(msg) => write!(f, "training failed: {msg}"),
            AbrError::Ml(e) => write!(f, "ml error: {e}"),
            AbrError::Sim(e) => write!(f, "sim error: {e}"),
        }
    }
}

impl std::error::Error for AbrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AbrError::Ml(e) => Some(e),
            AbrError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sensei_ml::MlError> for AbrError {
    fn from(e: sensei_ml::MlError) -> Self {
        AbrError::Ml(e)
    }
}

impl From<sensei_sim::SimError> for AbrError {
    fn from(e: sensei_sim::SimError) -> Self {
        AbrError::Sim(e)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for ABR tests.
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::{BitrateLadder, EncodedVideo, SourceVideo};

    /// A 20-chunk sports-like video with a key moment in the second half.
    pub fn source() -> SourceVideo {
        SourceVideo::from_script(
            "abr-test",
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

    pub fn encoded(src: &SourceVideo) -> EncodedVideo {
        EncodedVideo::encode(src, &BitrateLadder::default_paper(), 5)
    }
}
