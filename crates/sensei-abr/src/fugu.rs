//! Fugu: model-predictive bitrate control (Eq. 3).
//!
//! As §5.2 describes it: "before downloading the i-th chunk, Fugu considers
//! the throughput prediction for the next h chunks. For any throughput
//! variation γ (with predicted probability p(γ)) and bitrate selection B,
//! it simulates when each of the next h chunks will be downloaded and
//! estimates the rebuffering time of each chunk. It then picks the bitrate
//! vector maximizing the expected total quality", where per-chunk quality
//! `q(b, t)` is a simplified KSQI.
//!
//! This module is that objective as the *scenario walk* of the shared plan
//! search ([`crate::plan`], which documents the search and why it is
//! exact): every plan prefix carries one buffer walk per predicted
//! throughput scenario (`(h + 1) × S` rows), download times come from a
//! per-decision `(chunk, level, scenario)` table, a leaf scores the
//! probability-weighted fold of its scenario totals, and the sibling
//! leaves under one parent are scored in one dense per-scenario pass. Its
//! bound charges each scenario a stall lower bound from a buffer-cap
//! recurrence. SENSEI-Fugu (Eq. 4) runs the same walk with sensitivity
//! weights and a pause-perturbed buffer.

use crate::plan::{self, Best, ChunkRows, Kernel, Walk, MAX_BUFFER_S, RISK_AVERSION, RTT_S};
use crate::predictor::ThroughputPredictor;
use crate::WarmLanes;
use sensei_qoe::Ksqi;
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;
use sensei_video::SensitivityWeights;

/// The paper's planning horizon ("We pick h = 5 since we observe that QoE
/// gains flatten beyond a horizon of 4 chunks").
pub const DEFAULT_HORIZON: usize = 5;

/// Reusable scenario-walk scratch: one allocation per policy instance
/// instead of several per decision. All tables are flat row-major arrays.
#[derive(Debug, Clone, Default)]
struct PlanScratch {
    /// The horizon's manifest rows and weight window (per chunk step).
    rows: ChunkRows,
    /// `(h + 1) × scenarios` rows of running walk state, indexed by depth.
    stack: Vec<Row>,
    /// Per-decision scenario `(probability, kbps)` pairs.
    rates: Vec<(f64, f64)>,
    /// The scenario probabilities `rates[si].0`, densely packed.
    probs: Vec<f64>,
    /// `dt[depth·L·S + level·S + si]`: download time of `(chunk, level)`
    /// under scenario `si` — state-independent within one decision.
    dt: Vec<f64>,
    /// `umax[depth·S + si]`: upper bound on the weighted quality any
    /// level can contribute at `depth` under scenario `si`, maximized
    /// over every (previous level, level) pair — switch penalty and
    /// stall lower bound included.
    umax: Vec<f64>,
    /// `ufirst[(depth·S + si)·L + lprev]`: the same bound conditioned on
    /// the *actual* previous level `lprev`, used for the first remaining
    /// step of a node (whose last chosen level the search knows).
    ufirst: Vec<f64>,
    /// The no-stall (buffer-independent) `ufirst`/`umax` tables, filled
    /// lazily once per chunk step and shared by every lane and pause
    /// candidate of that step. Rows of `ufirst` whose buffer cap proves
    /// no level can stall copy from here (the stall lower bound is
    /// exactly `0.0` there, so the copy is bit-identical).
    ufirst0: Vec<f64>,
    umax0: Vec<f64>,
    /// `caps[depth·S + si]`: upper bound on scenario `si`'s buffer
    /// entering `depth`, charging the cheapest possible download at every
    /// prior depth.
    caps: Vec<f64>,
    /// Dense per-scenario copies of the leaf-parent row's buffers and
    /// running totals, and one sibling leaf's per-scenario terms.
    pbuf: Vec<f64>,
    ptot: Vec<f64>,
    terms: Vec<f64>,
}

/// The Fugu MPC policy.
#[derive(Debug, Clone)]
pub struct Fugu {
    predictor: ThroughputPredictor,
    pub(crate) qoe: Ksqi,
    scratch: PlanScratch,
    pub(crate) kernel: Kernel,
    pub(crate) warm: WarmLanes,
}

impl Fugu {
    /// Builds Fugu with the default predictor and canonical KSQI.
    pub fn new() -> Self {
        Self {
            predictor: ThroughputPredictor::default(),
            qoe: Ksqi::canonical(),
            scratch: PlanScratch::default(),
            kernel: Kernel::default(),
            warm: WarmLanes::default(),
        }
    }

    /// Toggles the cross-chunk warm start (on by default). Disabling it
    /// forces every search to start cold — bit-identical results, more
    /// nodes — which is exactly what the warm-vs-cold parity suite runs
    /// as its reference.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm.set_enabled(enabled);
        self
    }

    /// Fills the chunk-step tables for the horizon at `next_chunk` — the
    /// manifest rows and the weight window (`None` plans unweighted) —
    /// and returns the effective horizon: 0 at the video end, where
    /// nothing is filled.
    pub(crate) fn prepare(
        &mut self,
        next_chunk: usize,
        ctx: &SessionContext<'_>,
        weights: Option<&SensitivityWeights>,
    ) -> usize {
        let h = DEFAULT_HORIZON.min(ctx.num_chunks() - next_chunk);
        if h > 0 {
            self.scratch.rows.fill(ctx, next_chunk, h, weights);
            // The no-stall bound tables read the rows just filled; the
            // step's first prunable search refills them.
            self.scratch.ufirst0.clear();
        }
        h
    }

    /// Fills the scenario `(probability, kbps)` pairs and the
    /// per-(chunk, level, scenario) download-time table for one decision.
    /// Both depend on the throughput history but **not** on the buffer,
    /// so SENSEI-Fugu's pause candidates — which perturb only the buffer
    /// — share one fill across all candidate searches.
    pub(crate) fn prepare_rates(&mut self, state: &PlayerState<'_>) {
        let PlanScratch {
            rows,
            rates,
            probs,
            dt,
            ..
        } = &mut self.scratch;
        self.predictor.scenario_rates_into(state, rates);
        probs.clear();
        probs.extend(rates.iter().map(|r| r.0));
        dt.clear();
        for &size in &rows.sizes {
            for &(_, rate_kbps) in rates.iter() {
                dt.push(RTT_S + size / (rate_kbps * 1000.0));
            }
        }
    }

    /// The plan search proper, over the tables [`Self::prepare`] and
    /// [`Self::prepare_rates`] filled; [`Kernel::best_plan`] holds the
    /// winner's full plan afterwards.
    pub(crate) fn plan_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
    ) -> Best {
        let n_levels = ctx.num_levels();
        let d = ctx.chunk_duration_s;
        let PlanScratch {
            rows,
            stack,
            probs,
            dt,
            umax,
            ufirst,
            ufirst0,
            umax0,
            caps,
            pbuf,
            ptot,
            terms,
            ..
        } = &mut self.scratch;
        let h = rows.weights.len();
        let s = probs.len();
        let prunable = plan::monotone(&self.qoe, &rows.weights)
            && state.buffer_s >= 0.0
            && probs.iter().all(|&p| p >= 0.0);
        if prunable {
            // `caps[j·S + si]` dominates scenario `si`'s buffer entering
            // depth `j` for EVERY plan: the walk step is
            // `buf' = min(max(buf − dt, 0) + d, B)`, `dt` is bounded
            // below by the depth's cheapest level under that scenario,
            // and each operation in the chain is monotone under IEEE-754
            // round-to-nearest — so the recurrence bounds all plans at
            // once *as floating point*. The root cap is the caller's
            // buffer itself (pause candidates may push it past the
            // clamp). A buffer upper bound gives a stall *lower* bound,
            // hence a per-(depth, scenario) quality upper bound.
            caps.clear();
            caps.resize(s, state.buffer_s);
            for depth in 1..h {
                for si in 0..s {
                    let mut dt_min = f64::INFINITY;
                    for level in 0..n_levels {
                        dt_min = dt_min.min(dt[((depth - 1) * n_levels + level) * s + si]);
                    }
                    let parent = caps[(depth - 1) * s + si];
                    caps.push(((parent - dt_min).max(0.0) + d).min(MAX_BUFFER_S));
                }
            }
            // Guided order: most promising level (by expected
            // stall-bounded score) first.
            self.kernel.order_by(h, n_levels, |depth, level| {
                let vq = rows.vqs[depth * n_levels + level];
                let mut score = 0.0;
                for si in 0..s {
                    let stall_lb =
                        (dt[(depth * n_levels + level) * s + si] - caps[depth * s + si]).max(0.0);
                    let q = self.qoe.chunk_quality(vq, stall_lb * RISK_AVERSION, 0.0, d);
                    score += probs[si] * (rows.weights[depth] * q);
                }
                score
            });
            // Switch-aware per-depth bounds with each scenario's stall
            // lower bound from its buffer cap.
            if ufirst0.is_empty() {
                plan::fill_no_stall_bounds(&self.qoe, rows, d, ufirst0, umax0);
            }
            ufirst.clear();
            ufirst.resize(h * s * n_levels, 0.0);
            umax.clear();
            umax.resize(h * s, 0.0);
            for depth in 1..h {
                for si in 0..s {
                    let cap = caps[depth * s + si];
                    let dt_at = |level: usize| dt[(depth * n_levels + level) * s + si];
                    let row = (depth * s + si) * n_levels;
                    let row = &mut ufirst[row..row + n_levels];
                    if (0..n_levels).all(|level| dt_at(level) <= cap) {
                        // No level can stall under this scenario's cap:
                        // the hoisted no-stall row IS this row.
                        row.copy_from_slice(&ufirst0[depth * n_levels..(depth + 1) * n_levels]);
                        umax[depth * s + si] = umax0[depth];
                    } else {
                        let stall_lb = |level: usize| (dt_at(level) - cap).max(0.0);
                        umax[depth * s + si] =
                            plan::switch_bound_row(&self.qoe, rows, depth, d, stall_lb, row);
                    }
                }
            }
        }
        let prev = state
            .last_level
            .map(|l| (ctx.vq[state.next_chunk.saturating_sub(1)][l], l));
        let root = Row {
            buf: state.buffer_s,
            prev,
            total: 0.0,
        };
        stack.clear();
        stack.resize((h + 1) * s, root);
        for scratch in [&mut *pbuf, &mut *ptot, &mut *terms] {
            scratch.clear();
            scratch.resize(s, 0.0);
        }
        let walk = ScenarioWalk {
            qoe: &self.qoe,
            d,
            h,
            n_levels,
            weights: &rows.weights,
            vqs: &rows.vqs,
            probs,
            dt,
            umax,
            ufirst,
            stack,
            pbuf,
            ptot,
            terms,
        };
        self.kernel
            .run(walk, &self.warm, state.next_chunk, prunable, &[0.0])
    }

    /// One decision over the chunk step's prepared tables.
    fn decide_prepared(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.prepare_rates(state);
        let best = self.plan_prepared(state, ctx);
        self.warm.commit(state.next_chunk, &self.kernel.best_plan);
        Decision::level(best.plan0)
    }
}

/// Per-scenario running state of one plan prefix: the buffer walk's
/// position, the previous chunk's `(vq, level)` for switch penalties, and
/// the accumulated weighted quality.
#[derive(Debug, Clone, Copy)]
struct Row {
    buf: f64,
    prev: Option<(f64, usize)>,
    total: f64,
}

/// Fugu's [`Walk`]: one buffer walk per throughput scenario over the
/// prefilled download-time table, folded by scenario probability.
struct ScenarioWalk<'a> {
    qoe: &'a Ksqi,
    d: f64,
    h: usize,
    n_levels: usize,
    weights: &'a [f64],
    vqs: &'a [f64],
    probs: &'a [f64],
    dt: &'a [f64],
    umax: &'a [f64],
    ufirst: &'a [f64],
    stack: &'a mut [Row],
    pbuf: &'a mut [f64],
    ptot: &'a mut [f64],
    terms: &'a mut [f64],
}

impl Walk for ScenarioWalk<'_> {
    fn horizon(&self) -> usize {
        self.h
    }

    fn levels(&self) -> usize {
        self.n_levels
    }

    /// Row 0 is the decision state, written at set-up: a scenario walk
    /// has the single candidate 0 (SENSEI-Fugu searches each pause
    /// candidate as its own decision state).
    fn root(&mut self, _candidate: usize) {}

    fn step(&mut self, depth: usize, level: usize) {
        let s = self.probs.len();
        let d = self.d;
        let vq = self.vqs[depth * self.n_levels + level];
        let w = self.weights[depth];
        let (above, below) = self.stack.split_at_mut((depth + 1) * s);
        let dts = &self.dt[(depth * self.n_levels + level) * s..][..s];
        for ((child, parent), &dt) in below[..s].iter_mut().zip(&above[depth * s..]).zip(dts) {
            let stall = (dt - parent.buf).max(0.0);
            let buf = ((parent.buf - dt).max(0.0) + d).min(MAX_BUFFER_S);
            let switch = plan::switch_penalty(parent.prev, vq, level);
            let q = self.qoe.chunk_quality(vq, stall * RISK_AVERSION, switch, d);
            *child = Row {
                buf,
                prev: Some((vq, level)),
                total: parent.total + w * q,
            };
        }
    }

    /// Extends each scenario's running total with `ufirst` for the first
    /// remaining step and `umax` for deeper ones, folded by probability
    /// exactly like [`Self::total`].
    fn bound(&self, depth: usize) -> f64 {
        let s = self.probs.len();
        // `prev` is scenario-invariant and always `Some` at depth ≥ 1.
        let prev_level = self.stack[depth * s].prev.map_or(0, |(_, l)| l);
        let mut ub = 0.0;
        for si in 0..s {
            let mut bnd = self.stack[depth * s + si].total
                + self.ufirst[(depth * s + si) * self.n_levels + prev_level];
            for j in depth + 1..self.h {
                bnd += self.umax[j * s + si];
            }
            ub += self.probs[si] * bnd;
        }
        ub
    }

    /// Copies the parent row into dense slices once, then runs one
    /// straight-line pass per level (no struct-of-walks indirection, no
    /// branches beyond the clamp `max`) that the autovectorizer can turn
    /// into SIMD lanes. Each element computes exactly one [`Self::step`]
    /// term, `probs[si] · (parent.total + w·q)`, and the terms fold in
    /// scenario order from `0.0` exactly like [`Self::total`].
    fn score_leaves(&mut self, depth: usize, leaf_q: &mut [f64]) {
        let s = self.probs.len();
        let n_levels = self.n_levels;
        let d = self.d;
        // `prev` is scenario-invariant by construction.
        let prev = self.stack[depth * s].prev;
        let w = self.weights[depth];
        for si in 0..s {
            let parent = self.stack[depth * s + si];
            self.pbuf[si] = parent.buf;
            self.ptot[si] = parent.total;
        }
        for (level, leaf) in leaf_q.iter_mut().enumerate() {
            let vq = self.vqs[depth * n_levels + level];
            let switch = plan::switch_penalty(prev, vq, level);
            let base = (depth * n_levels + level) * s;
            for si in 0..s {
                let stall = (self.dt[base + si] - self.pbuf[si]).max(0.0);
                let q = self.qoe.chunk_quality(vq, stall * RISK_AVERSION, switch, d);
                self.terms[si] = self.probs[si] * (self.ptot[si] + w * q);
            }
            let mut acc = 0.0;
            for &term in self.terms.iter() {
                acc += term;
            }
            *leaf = acc;
        }
    }

    fn total(&self) -> f64 {
        let s = self.probs.len();
        let mut q = 0.0;
        for si in 0..s {
            q += self.probs[si] * self.stack[self.h * s + si].total;
        }
        q
    }
}

impl Default for Fugu {
    fn default() -> Self {
        Self::new()
    }
}

impl AbrPolicy for Fugu {
    fn name(&self) -> &str {
        "Fugu"
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        match self.prepare(state.next_chunk, ctx, None) {
            0 => Decision::level(0),
            _ => self.decide_prepared(state, ctx),
        }
    }

    fn reset(&mut self) {
        self.warm.reset();
    }

    fn rebind(&mut self, _trace: &ThroughputTrace) {
        self.warm.rebind();
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.warm.begin_batch(lanes);
    }

    /// Plans every lane of the batch over chunk tables filled once for
    /// the whole tile (all lanes sit at the same chunk step), so decisions
    /// are bit-identical to [`Self::decide`].
    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        let h = self.prepare(states.next_chunk(), ctx, None);
        crate::plan_lanes(
            self,
            |p| &mut p.warm,
            h,
            states,
            out,
            |p, _, state| p.decide_prepared(state, ctx),
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_support::{encoded, source};
    use sensei_sim::{simulate, PlayerConfig};
    use sensei_trace::ThroughputTrace;

    impl Fugu {
        /// One scalar search with explicit horizon weights (`None` plans
        /// unweighted): the best plan's first level and its score.
        pub(crate) fn best_plan(
            &mut self,
            state: &PlayerState<'_>,
            ctx: &SessionContext<'_>,
            weights: Option<&[f64]>,
        ) -> (usize, f64) {
            let h = self.prepare(state.next_chunk, ctx, None);
            if h == 0 {
                return (0, 0.0);
            }
            if let Some(w) = weights {
                self.scratch.rows.weights.clear();
                self.scratch.rows.weights.extend_from_slice(&w[..h]);
            }
            self.prepare_rates(state);
            let best = self.plan_prepared(state, ctx);
            self.warm.commit(state.next_chunk, &self.kernel.best_plan);
            (best.plan0, best.q)
        }
    }

    fn run(trace_kbps: f64) -> sensei_sim::SessionResult {
        let src = source();
        let enc = encoded(&src);
        let trace = ThroughputTrace::constant("t", trace_kbps, 600.0).unwrap();
        simulate(
            &src,
            &enc,
            &trace,
            &mut Fugu::new(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn high_bandwidth_reaches_top_rate_without_stalls() {
        let result = run(10_000.0);
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(stalls < 0.2, "stalls = {stalls}");
        // The tail of the session should run at the top bitrate.
        let tail: Vec<usize> = result.levels[10..].to_vec();
        assert!(tail.iter().all(|&l| l == 4), "tail = {tail:?}");
    }

    #[test]
    fn low_bandwidth_stays_low_and_avoids_stalls() {
        let result = run(700.0);
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(stalls < 1.0, "stalls = {stalls}");
        assert!(result.render.avg_bitrate_kbps() < 1000.0);
    }

    #[test]
    fn beats_bba_on_variable_traces() {
        use crate::bba::Bba;
        let src = source();
        let enc = encoded(&src);
        let qoe = Ksqi::canonical();
        let mut fugu_total = 0.0;
        let mut bba_total = 0.0;
        for seed in 0..5 {
            let trace = sensei_trace::generate::fcc_like(1800.0, 600, seed);
            let config = PlayerConfig::default();
            let f = simulate(&src, &enc, &trace, &mut Fugu::new(), &config, None).unwrap();
            let b = simulate(&src, &enc, &trace, &mut Bba::paper_default(), &config, None).unwrap();
            fugu_total += sensei_qoe::QoeModel::predict(&qoe, &f.render).unwrap();
            bba_total += sensei_qoe::QoeModel::predict(&qoe, &b.render).unwrap();
        }
        assert!(
            fugu_total > bba_total,
            "Fugu {fugu_total:.3} should beat BBA {bba_total:.3} on its own objective"
        );
    }

    #[test]
    fn horizon_truncates_at_video_end() {
        // A 3-chunk video with horizon 5 must not panic.
        let src = sensei_video::SourceVideo::from_script(
            "short",
            sensei_video::Genre::Sports,
            &[sensei_video::content::SceneSpec::new(
                sensei_video::SceneKind::NormalPlay,
                3,
            )],
            1,
        )
        .unwrap();
        let enc = sensei_video::EncodedVideo::encode(
            &src,
            &sensei_video::BitrateLadder::default_paper(),
            1,
        );
        let trace = ThroughputTrace::constant("t", 3000.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut Fugu::new(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(result.levels.len(), 3);
    }

    /// The pre-refactor flat enumeration, kept as the reference the
    /// prefix-sharing, table-hoisting, branch-and-bound DFS must reproduce
    /// bit for bit: every plan scored from scratch by an independent
    /// buffer walk per scenario, plans visited in odometer (lexicographic)
    /// order, no pruning anywhere.
    pub(crate) fn reference_best_plan(
        fugu: &Fugu,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        weights: Option<&[f64]>,
    ) -> (usize, f64) {
        let plan_quality = |plan: &[usize], rate_kbps: f64| -> f64 {
            let d = ctx.chunk_duration_s;
            let mut buf = state.buffer_s;
            let mut prev: Option<(f64, usize)> = state
                .last_level
                .map(|l| (ctx.vq[state.next_chunk.saturating_sub(1)][l], l));
            let mut total = 0.0;
            for (j, &level) in plan.iter().enumerate() {
                let chunk = state.next_chunk + j;
                let size = ctx.encoded.size_bits(chunk, level).unwrap();
                let dt = 0.08 + size / (rate_kbps * 1000.0);
                let stall = (dt - buf).max(0.0);
                buf = (buf - dt).max(0.0) + d;
                buf = buf.min(24.0);
                let vq = ctx.vq[chunk][level];
                let switch = match prev {
                    Some((pvq, plevel)) if plevel != level => (vq - pvq).abs(),
                    _ => 0.0,
                };
                prev = Some((vq, level));
                let q = Ksqi::canonical().chunk_quality(vq, stall * RISK_AVERSION, switch, d);
                total += weights.map_or(q, |w| w[j] * q);
            }
            total
        };
        let n_levels = ctx.num_levels();
        let h = DEFAULT_HORIZON.min(ctx.num_chunks() - state.next_chunk);
        let scenario_rates = fugu.predictor.scenario_rates(state);
        let mut plan = vec![0usize; h];
        let mut best_plan0 = 0usize;
        let mut best_q = f64::NEG_INFINITY;
        loop {
            let q: f64 = scenario_rates
                .iter()
                .map(|&(p, rate)| p * plan_quality(&plan, rate))
                .sum();
            if q > best_q {
                best_q = q;
                best_plan0 = plan[0];
            }
            let mut pos = h;
            loop {
                if pos == 0 {
                    return (best_plan0, best_q);
                }
                pos -= 1;
                plan[pos] += 1;
                if plan[pos] < n_levels {
                    break;
                }
                plan[pos] = 0;
            }
        }
    }

    #[test]
    fn dfs_enumeration_matches_the_flat_reference_bit_for_bit() {
        use sensei_sim::SessionContext;
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            vq: enc.vq_table(),
            weights: None,
            chunk_duration_s: src.chunk_duration_s(),
        };
        let mut fugu = Fugu::new();
        // Weight rows exercise every search mode: no weights (plain Fugu),
        // nonnegative weights (SENSEI-Fugu, pruning active including zero
        // weights), and a negative weight that must disable pruning and
        // fall back to the full enumeration.
        let weight_rows: [Option<Vec<f64>>; 4] = [
            None,
            Some(vec![1.4, 0.6, 1.0, 2.0, 0.8, 1.1, 0.9]),
            Some(vec![0.0, 1.5, 0.0, 2.0, 1.0, 0.3, 0.7]),
            Some(vec![-0.5, 1.0, 0.8, 1.2, 0.4, 1.0, 1.0]),
        ];
        // A spread of buffer levels, histories, and positions — including
        // the truncated-horizon video tail and near-tie states.
        let histories: [&[f64]; 3] = [
            &[1200.0, 900.0, 1500.0],
            &[400.0, 420.0, 380.0, 410.0, 395.0],
            &[5000.0; 6],
        ];
        for weights in &weight_rows {
            for hist in histories {
                for next_chunk in [0, 3, src.num_chunks() - 3, src.num_chunks() - 1] {
                    for buffer_s in [0.5, 4.0, 11.0, 23.0] {
                        let state = PlayerState {
                            next_chunk,
                            buffer_s,
                            last_level: Some(2),
                            throughput_history_kbps: hist,
                            download_time_history_s: &[1.0; 6][..hist.len()],
                            elapsed_s: 30.0,
                            playing: true,
                        };
                        let w = weights
                            .as_deref()
                            .map(|w| &w[..DEFAULT_HORIZON.min(src.num_chunks() - next_chunk)]);
                        let fast = fugu.best_plan(&state, &ctx, w);
                        let slow = reference_best_plan(&fugu, &state, &ctx, w);
                        assert_eq!(fast.0, slow.0, "chosen level at chunk {next_chunk}");
                        assert_eq!(
                            fast.1.to_bits(),
                            slow.1.to_bits(),
                            "plan score at chunk {next_chunk} (buffer {buffer_s})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_decisions_is_stateless() {
        // One long-lived instance planning many unrelated states must
        // produce exactly what a fresh instance produces per state: the
        // scratch tables are per-decision, never carried over.
        use sensei_sim::SessionContext;
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            vq: enc.vq_table(),
            weights: None,
            chunk_duration_s: src.chunk_duration_s(),
        };
        let mut warm = Fugu::new();
        for next_chunk in 0..src.num_chunks() {
            for buffer_s in [0.0, 6.5, 19.0] {
                let state = PlayerState {
                    next_chunk,
                    buffer_s,
                    last_level: Some(1),
                    throughput_history_kbps: &[900.0, 1100.0, 1000.0],
                    download_time_history_s: &[1.0; 3],
                    elapsed_s: 12.0,
                    playing: true,
                };
                let warm_plan = warm.best_plan(&state, &ctx, None);
                let cold_plan = Fugu::new().best_plan(&state, &ctx, None);
                assert_eq!(warm_plan.0, cold_plan.0);
                assert_eq!(warm_plan.1.to_bits(), cold_plan.1.to_bits());
            }
        }
    }
}
