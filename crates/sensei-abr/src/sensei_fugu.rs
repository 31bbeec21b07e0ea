//! SENSEI-Fugu: Fugu with sensitivity weights and intentional rebuffering
//! (Eq. 4).
//!
//! Two changes over Fugu, exactly the §5.2 recipe:
//!
//! 1. The horizon objective weights each chunk's quality by its
//!    sensitivity: `Σ_γ p(γ) Σ_j w_j · q(b_j, t_j)`.
//! 2. The action space gains an intentional rebuffering time for the next
//!    chunk, drawn from {0, 1, 2} seconds. Pausing now freezes playback at
//!    the current playhead chunk (charged at *that* chunk's weight) and
//!    buys buffer headroom for the high-sensitivity chunks ahead — the
//!    "borrow from low-sensitivity chunks" optimization of Fig. 11(d).
//!
//! Each pause candidate runs Fugu's scenario-walk search from its own
//! paused buffer with a fresh incumbent; the candidates are then compared
//! after the pause cost and a hysteresis margin.

use crate::fugu::Fugu;
use crate::plan;
pub use crate::plan::PAUSE_LEVELS_S;
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;

/// The SENSEI-Fugu policy.
#[derive(Debug, Clone)]
pub struct SenseiFugu {
    inner: Fugu,
    /// When false, the policy only reweights the objective and never
    /// pauses — the "only bitrate adaptation" ablation of Fig. 18b.
    allow_pause: bool,
    /// Intentional stall spent so far this session, seconds.
    pause_spent_s: f64,
    /// Per-lane pause ledgers when the instance serves a batch: the pause
    /// budget is **per-session** state, so each lane keeps its own spend,
    /// swapped into `pause_spent_s` around the lane's decision.
    lane_pause_spent_s: Vec<f64>,
    /// The winning pause candidate's full plan: every candidate runs its
    /// own search, so the carry must commit the *winner's* plan, not the
    /// last one searched.
    winner_plan: Vec<usize>,
}

impl SenseiFugu {
    /// Fraction of the video duration the policy may spend on intentional
    /// stalls. Peak-end raters punish *concentrated* stalls far beyond
    /// their total length, so the budget keeps the new action surgical.
    const PAUSE_BUDGET_FRACTION: f64 = 0.04;

    /// Builds SENSEI-Fugu with the full action space.
    pub fn new() -> Self {
        Self {
            inner: Fugu::new(),
            allow_pause: true,
            pause_spent_s: 0.0,
            lane_pause_spent_s: Vec::new(),
            winner_plan: Vec::new(),
        }
    }

    /// Toggles the inner MPC's cross-chunk warm start (on by default);
    /// see [`Fugu::with_warm_start`].
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.inner = self.inner.with_warm_start(enabled);
        self
    }

    /// The Fig. 18b ablation: weighted objective, no new actions.
    pub fn without_pause_action() -> Self {
        Self {
            allow_pause: false,
            ..Self::new()
        }
    }

    /// One decision over the inner MPC's prepared chunk tables. The
    /// scenario rates and download times are filled here once and shared
    /// by every pause candidate — a candidate perturbs only the buffer,
    /// which neither table reads.
    fn decide_prepared(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.inner.prepare_rates(state);
        let d = ctx.chunk_duration_s;
        let playhead_w = plan::playhead_weight(state, ctx);
        let budget = Self::PAUSE_BUDGET_FRACTION * ctx.num_chunks() as f64 * d;

        let mut best = (0usize, 0.0f64);
        let mut best_q = f64::NEG_INFINITY;
        // Pausing banks buffer for upcoming high-sensitivity chunks. That
        // is meaningless when the buffer is already starving or the link
        // cannot even sustain the lowest rung - there a pause only
        // concentrates stalls, which peak-end raters punish brutally.
        let predicted = state.harmonic_mean_throughput(5).unwrap_or(0.0);
        let pause_sensible =
            state.buffer_s >= 2.0 * d && predicted * 0.85 > ctx.encoded.ladder().min_kbps();
        let pauses: &[f64] = if self.allow_pause && state.playing && pause_sensible {
            &PAUSE_LEVELS_S
        } else {
            &PAUSE_LEVELS_S[..1]
        };
        for &pause in pauses {
            if pause > 0.0 && self.pause_spent_s + pause > budget {
                continue;
            }
            // Pausing delays playback: the horizon walk sees extra buffer,
            // and the stall is charged at the playhead chunk's weight.
            let mut paused_state = *state;
            paused_state.buffer_s += pause;
            let pause_cost = plan::pause_cost(&self.inner.qoe, playhead_w, pause, d);
            // Hysteresis: an intentional stall must buy a clear planned
            // improvement, not a prediction-noise-sized one.
            let margin = if pause > 0.0 { 0.05 } else { 0.0 };
            let searched = self.inner.plan_prepared(&paused_state, ctx);
            let q = searched.q - pause_cost - margin;
            if q > best_q {
                best_q = q;
                best = (searched.plan0, pause);
                // Remember the winning candidate's full plan: the pause
                // 0.0 candidate always runs, so this is always set.
                self.winner_plan.clear();
                self.winner_plan
                    .extend_from_slice(&self.inner.kernel.best_plan);
            }
        }
        // Carry the *winner's* plan to the next chunk step — a later
        // candidate's search may have overwritten the inner best-plan
        // scratch with a losing plan.
        self.inner.warm.commit(state.next_chunk, &self.winner_plan);
        self.pause_spent_s += best.1;
        Decision {
            level: best.0,
            pause_s: best.1,
        }
    }
}

impl Default for SenseiFugu {
    fn default() -> Self {
        Self::new()
    }
}

impl AbrPolicy for SenseiFugu {
    fn name(&self) -> &str {
        if self.allow_pause {
            "SENSEI-Fugu"
        } else {
            "SENSEI-Fugu(no-pause)"
        }
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        match self.inner.prepare(state.next_chunk, ctx, ctx.weights) {
            0 => Decision::level(0),
            _ => self.decide_prepared(state, ctx),
        }
    }

    fn reset(&mut self) {
        self.pause_spent_s = 0.0;
        self.inner.reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.inner.rebind(trace);
    }

    /// The pause budget is per-session state, so a batch keeps one ledger
    /// slot per lane — and likewise one warm-start carry slot per lane.
    fn begin_batch(&mut self, lanes: usize) {
        self.pause_spent_s = 0.0;
        self.inner.begin_batch(lanes);
        self.lane_pause_spent_s.clear();
        self.lane_pause_spent_s.resize(lanes, 0.0);
    }

    /// Plans every lane of the batch over chunk tables and a weight
    /// window filled once for the whole tile, swapping each lane's pause
    /// ledger (and warm carry) into the scalar slot so every lane sees
    /// exactly the state a dedicated per-session instance would.
    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        let h = self.inner.prepare(states.next_chunk(), ctx, ctx.weights);
        crate::plan_lanes(
            self,
            |p| &mut p.inner.warm,
            h,
            states,
            out,
            |p, lane, state| {
                std::mem::swap(&mut p.pause_spent_s, &mut p.lane_pause_spent_s[lane]);
                let decision = p.decide_prepared(state, ctx);
                std::mem::swap(&mut p.pause_spent_s, &mut p.lane_pause_spent_s[lane]);
                decision
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{encoded, source};
    use sensei_crowd::TrueQoe;
    use sensei_qoe::Ksqi;
    use sensei_sim::{simulate, PlayerConfig};
    use sensei_trace::ThroughputTrace;
    use sensei_video::SensitivityWeights;

    #[test]
    fn reduces_to_fugu_with_uniform_weights_and_ample_bandwidth() {
        let src = source();
        let enc = encoded(&src);
        let trace = ThroughputTrace::constant("fast", 10_000.0, 600.0).unwrap();
        let uniform = SensitivityWeights::uniform(src.num_chunks()).unwrap();
        let config = PlayerConfig::default();
        let s = simulate(
            &src,
            &enc,
            &trace,
            &mut SenseiFugu::new(),
            &config,
            Some(&uniform),
        )
        .unwrap();
        let f = simulate(&src, &enc, &trace, &mut crate::Fugu::new(), &config, None).unwrap();
        // With no sensitivity variation and plenty of bandwidth the two
        // should track closely (identical average bitrate).
        assert!((s.render.avg_bitrate_kbps() - f.render.avg_bitrate_kbps()).abs() < 200.0);
        let s_stall = s.render.total_rebuffer_s() - s.render.startup_delay_s();
        assert!(s_stall < 0.5, "no reason to pause: stall = {s_stall}");
    }

    #[test]
    fn improves_true_qoe_over_fugu_on_tight_links() {
        // The headline behavior: with ground-truth weights on a link that
        // cannot afford top bitrate everywhere, SENSEI-Fugu aligns quality
        // with sensitivity and wins on true QoE.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let oracle = TrueQoe::default();
        let config = PlayerConfig::default();
        let mut sensei_total = 0.0;
        let mut fugu_total = 0.0;
        for seed in 0..6 {
            let trace = sensei_trace::generate::fcc_like(1500.0, 600, 100 + seed);
            let s = simulate(
                &src,
                &enc,
                &trace,
                &mut SenseiFugu::new(),
                &config,
                Some(&weights),
            )
            .unwrap();
            let f = simulate(&src, &enc, &trace, &mut crate::Fugu::new(), &config, None).unwrap();
            sensei_total += oracle.qoe01(&src, &s.render).unwrap();
            fugu_total += oracle.qoe01(&src, &f.render).unwrap();
        }
        assert!(
            sensei_total > fugu_total,
            "SENSEI-Fugu {sensei_total:.3} vs Fugu {fugu_total:.3}"
        );
    }

    #[test]
    fn no_pause_ablation_never_pauses() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let trace = sensei_trace::generate::hsdpa_like(1200.0, 600, 3);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut SenseiFugu::without_pause_action(),
            &PlayerConfig::default(),
            Some(&weights),
        )
        .unwrap();
        let intentional: f64 = result
            .render
            .chunks()
            .iter()
            .map(|c| c.intentional_rebuffer_s)
            .sum();
        assert_eq!(intentional, 0.0);
    }

    /// SENSEI-Fugu's decision restated from the flat plan reference: one
    /// independent odometer enumeration per pause candidate, then the
    /// policy's own rules across candidates — the `pause_sensible` guard,
    /// the 4 % budget against what the session already spent, the 0.05
    /// hysteresis margin, the playhead-weighted pause cost, and strict
    /// `>` between candidates in declaration order.
    fn reference_decide(
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        pause_spent_s: f64,
        allow_pause: bool,
    ) -> Decision {
        let n = ctx.num_chunks();
        let d = ctx.chunk_duration_s;
        let h = crate::fugu::DEFAULT_HORIZON.min(n - state.next_chunk);
        let mut weights = ctx
            .weights
            .map_or_else(Vec::new, |w| w.window(state.next_chunk, h).to_vec());
        weights.resize(h, 1.0);
        let playhead_w = ctx.weights.map_or(1.0, |w| {
            let buffered = (state.buffer_s / d).ceil() as usize;
            let playhead = state.next_chunk.saturating_sub(buffered);
            w.get(playhead.min(w.len() - 1)).unwrap_or(1.0)
        });
        let (_, stall_penalty, _, _) = Ksqi::canonical().coefficients();
        let budget = 0.04 * n as f64 * d;
        let predicted = state.harmonic_mean_throughput(5).unwrap_or(0.0);
        let sensible = state.buffer_s >= 2.0 * d && predicted * 0.85 > 300.0;
        let pauses: &[f64] = if allow_pause && state.playing && sensible {
            &[0.0, 1.0, 2.0]
        } else {
            &[0.0]
        };
        let mut best = Decision::level(0);
        let mut best_q = f64::NEG_INFINITY;
        for &pause in pauses {
            if pause > 0.0 && pause_spent_s + pause > budget {
                continue;
            }
            let mut paused = *state;
            paused.buffer_s += pause;
            let (level, plan_q) = crate::fugu::tests::reference_best_plan(
                &crate::Fugu::new(),
                &paused,
                ctx,
                Some(&weights),
            );
            let cost = playhead_w * stall_penalty * 3.0 * (pause / d).clamp(0.0, 1.0);
            let margin = if pause > 0.0 { 0.05 } else { 0.0 };
            let q = plan_q - cost - margin;
            if q > best_q {
                best_q = q;
                best = Decision {
                    level,
                    pause_s: pause,
                };
            }
        }
        best
    }

    #[test]
    fn pause_decisions_match_the_flat_reference() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let ctx = SessionContext {
            encoded: &enc,
            vq: enc.vq_table(),
            weights: Some(&weights),
            chunk_duration_s: src.chunk_duration_s(),
        };
        let d = src.chunk_duration_s();
        let budget = 0.04 * src.num_chunks() as f64 * d;
        // Histories just below and just above the pause guard's ladder
        // floor (0.85 · harmonic mean vs the 300 kbps rung), plus a
        // comfortable link.
        let histories: [&[f64]; 3] = [
            &[350.0, 355.0, 348.0],
            &[360.0, 365.0, 358.0],
            &[1400.0, 1100.0, 1600.0],
        ];
        // Fresh, partly spent (only the 1 s pause still fits) and
        // exhausted pause budgets.
        let spent = [0.0, budget - 1.5, budget];
        let mut pauses_taken = 0;
        for allow_pause in [true, false] {
            let mut policy = if allow_pause {
                SenseiFugu::new()
            } else {
                SenseiFugu::without_pause_action()
            };
            for hist in histories {
                // Chunks 11 and 12 plan into the key moment, where a
                // pause on a near-floor link pays.
                for next_chunk in [0, 6, 11, 12, src.num_chunks() - 2] {
                    // Buffers below, at and above the guard's 2·d.
                    for buffer_s in [3.0, 2.0 * d - 0.1, 2.0 * d, 9.0, 21.0] {
                        for &pause_spent_s in &spent {
                            let state = PlayerState {
                                next_chunk,
                                buffer_s,
                                last_level: Some(1),
                                throughput_history_kbps: hist,
                                download_time_history_s: &[1.0; 3],
                                elapsed_s: 4.0 * next_chunk as f64,
                                playing: next_chunk > 0,
                            };
                            policy.pause_spent_s = pause_spent_s;
                            let fast = policy.decide(&state, &ctx);
                            let slow = reference_decide(&state, &ctx, pause_spent_s, allow_pause);
                            let label = format!(
                                "{} at chunk {next_chunk}, buffer {buffer_s}, spent \
                                 {pause_spent_s}, history {hist:?}",
                                policy.name()
                            );
                            assert_eq!(fast.level, slow.level, "level: {label}");
                            assert_eq!(
                                fast.pause_s.to_bits(),
                                slow.pause_s.to_bits(),
                                "pause: {label}"
                            );
                            pauses_taken += usize::from(fast.pause_s > 0.0);
                        }
                    }
                }
            }
        }
        assert!(pauses_taken > 0, "the grid must exercise the pause path");
    }

    #[test]
    fn runs_without_weights_in_manifest() {
        // A SENSEI player on a legacy manifest degrades to weighted=uniform.
        let src = source();
        let enc = encoded(&src);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut SenseiFugu::new(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(result.levels.len(), src.num_chunks());
    }
}
