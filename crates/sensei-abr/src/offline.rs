//! Idealistic offline controllers for the §2.4 potential-gains experiment.
//!
//! The paper's Fig. 6 compares "two simple ABR algorithms whose only
//! difference is the QoE model they explicitly optimize", both given the
//! *entire throughput trace in advance* to eliminate prediction error. The
//! paper solves a full-trace bitrate assignment; we approximate it with a
//! receding-horizon controller that integrates the *exact* future
//! throughput (no scenarios, no estimation) — documented in DESIGN.md as a
//! substitution. The sensitivity-aware variant weights chunk quality and
//! may schedule intentional rebuffering; the unaware variant optimizes the
//! same objective with uniform weights.
//!
//! The controller is the *trace walk* of the shared plan search
//! ([`crate::plan`], which documents the search and why it is exact): one
//! timed row per plan prefix (wall clock, buffer, previous level, running
//! total), download times from the trace's cumulative index through a
//! per-instance memo keyed by the exact bits of the wall clock, and the
//! pause candidates searched inside one incumbent. Pause candidates share
//! the whole wall-clock tree (a pause shifts buffer, not wall clock),
//! lanes of a tile replay the same network, and the chosen subtree recurs
//! across chunk steps — all memo hits. The bound is stall-free (the walk's
//! download times depend on the wall clock, which the bound cannot know).

// sensei-lint: allow(no-unordered-iteration) — the memo below is keyed lookups only, never iterated
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::plan::{
    self, ChunkRows, Kernel, Walk, MAX_BUFFER_S, PAUSE_LEVELS_S, RISK_AVERSION, RTT_S,
};
use crate::WarmLanes;
use sensei_qoe::Ksqi;
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};
use sensei_telemetry as telemetry;
use sensei_trace::{CumulativeTrace, ThroughputTrace};

/// Memo entries above this count trigger a wholesale clear (the table is a
/// pure cache, so clearing at any point is bit-invisible). Sized so one
/// decision's worst-case key set (~`levels^h` wall-clock nodes) fits with
/// two orders of magnitude to spare.
const MEMO_CAP: usize = 1 << 18;

/// Download-time memo: `(t.to_bits(), chunk·256 + level) → dt`.
///
/// A `HashMap` is sound here because the memo is only ever probed by
/// key (`get`/`insert`/`clear`): iteration order can never reach a
/// result bit, and the FxHash probe is ~2× cheaper than an ordered map
/// on this hot path.
// sensei-lint: allow(no-unordered-iteration) — pure get/insert/clear cache; iteration order unobservable
type DtMemo = HashMap<(u64, u64), f64, FxBuildHasher>;

/// A tiny multiply-xor hasher for the memo's integer keys. `SipHash`'s
/// DoS resistance buys nothing against our own plan enumeration and costs
/// ~2× on the hot path; no external crates, so hand-rolled.
#[derive(Debug, Clone, Copy, Default)]
struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// See [`FxBuildHasher`].
#[derive(Debug)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = self.0.rotate_left(26);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }
}

/// Reusable planning scratch: allocated once per policy instance and
/// recycled across decisions, lanes, and (for the memo) whole batches.
#[derive(Debug, Clone, Default)]
struct OracleScratch {
    /// The horizon's manifest rows and weight window (uniform for the
    /// unaware variant), per chunk step.
    rows: ChunkRows,
    /// `h + 1` rows of running walk state, indexed by depth.
    stack: Vec<Row>,
    /// No-stall switch-aware bounds `ufirst[depth·L + lprev]` and
    /// `umax[depth]` (see [`plan::fill_no_stall_bounds`]).
    ufirst: Vec<f64>,
    umax: Vec<f64>,
    /// Whether the bounds are floating-point monotone; pruning is
    /// disabled otherwise.
    prunable: bool,
    /// The download-time memo (see module docs).
    memo: DtMemo,
    /// Per-level download times of one sibling-leaf block.
    dts: Vec<f64>,
    /// Per-candidate pause costs of one decision.
    costs: Vec<f64>,
}

/// Oracle-throughput receding-horizon controller.
#[derive(Debug, Clone)]
pub struct OracleMpc {
    cum: CumulativeTrace,
    qoe: Ksqi,
    horizon: usize,
    /// Whether the controller may schedule intentional rebuffering.
    allow_pause: bool,
    /// Whether the controller uses the manifest's sensitivity weights.
    sensitivity_aware: bool,
    name: String,
    scratch: OracleScratch,
    kernel: Kernel,
    warm: WarmLanes,
}

impl OracleMpc {
    /// The §2.4 *dynamic-sensitivity-aware* idealistic ABR.
    pub fn aware(trace: &ThroughputTrace) -> Self {
        Self {
            cum: CumulativeTrace::new(trace),
            qoe: Ksqi::canonical(),
            horizon: 6,
            allow_pause: true,
            sensitivity_aware: true,
            name: "Oracle(aware)".to_string(),
            scratch: OracleScratch::default(),
            kernel: Kernel::default(),
            warm: WarmLanes::default(),
        }
    }

    /// Toggles the cross-chunk warm start (on by default). Disabling it
    /// forces every search to start cold — bit-identical results, more
    /// nodes — which is the warm-vs-cold parity suite's reference.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm.set_enabled(enabled);
        self
    }

    /// The §2.4 *dynamic-sensitivity-unaware* idealistic ABR (optimizes
    /// plain KSQI).
    pub fn unaware(trace: &ThroughputTrace) -> Self {
        Self {
            allow_pause: false,
            sensitivity_aware: false,
            name: "Oracle(unaware)".to_string(),
            ..Self::aware(trace)
        }
    }

    /// Fills every per-decision table that depends only on the chunk
    /// position — the manifest rows and weight window, the bound tables
    /// and the guided order — and returns the effective horizon (0 at the
    /// video end, where nothing is filled). All lanes of a batch sit at
    /// the same chunk step, so the batched path runs this once per chunk.
    fn prepare(&mut self, next_chunk: usize, ctx: &SessionContext<'_>) -> usize {
        let h = self.horizon.min(ctx.num_chunks() - next_chunk);
        if h == 0 {
            return 0;
        }
        let OracleScratch {
            rows,
            ufirst,
            umax,
            prunable,
            memo,
            ..
        } = &mut self.scratch;
        if memo.len() > MEMO_CAP {
            memo.clear();
        }
        let weights = ctx.weights.filter(|_| self.sensitivity_aware);
        rows.fill(ctx, next_chunk, h, weights);
        *prunable = plan::monotone(&self.qoe, &rows.weights);
        if *prunable {
            let d = ctx.chunk_duration_s;
            let n_levels = ctx.num_levels();
            // Guided order: highest no-stall, no-switch score first
            // (leading with the bound's own argmax makes a feasible
            // no-stall plan prune everything else near the root).
            self.kernel.order_by(h, n_levels, |depth, level| {
                let vq = rows.vqs[depth * n_levels + level];
                rows.weights[depth] * self.qoe.chunk_quality(vq, 0.0, 0.0, d)
            });
            plan::fill_no_stall_bounds(&self.qoe, rows, d, ufirst, umax);
        }
        h
    }

    /// The per-lane decision, assuming [`Self::prepare`] has run for
    /// `state.next_chunk`. The pause candidates run inside one search:
    /// candidate `i` roots its walk at `buffer + PAUSE_LEVELS_S[i]` and
    /// pays its pause cost on every leaf.
    fn decide_prepared(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        let d = ctx.chunk_duration_s;
        let playhead_w = if self.sensitivity_aware {
            plan::playhead_weight(state, ctx)
        } else {
            1.0
        };
        let pauses = if self.allow_pause && state.playing {
            &PAUSE_LEVELS_S[..]
        } else {
            &PAUSE_LEVELS_S[..1]
        };
        let OracleScratch {
            rows,
            stack,
            ufirst,
            umax,
            prunable,
            memo,
            dts,
            costs,
        } = &mut self.scratch;
        costs.clear();
        costs.extend(
            pauses
                .iter()
                .map(|&p| plan::pause_cost(&self.qoe, playhead_w, p, d)),
        );
        let h = rows.weights.len();
        let n_levels = ctx.num_levels();
        let root = Row {
            t: state.elapsed_s,
            buf: state.buffer_s,
            prev: state
                .last_level
                .map(|l| (ctx.vq[state.next_chunk.saturating_sub(1)][l], l)),
            total: 0.0,
        };
        stack.clear();
        stack.resize(h + 1, root);
        dts.clear();
        dts.resize(n_levels, 0.0);
        let walk = TraceWalk {
            cum: &self.cum,
            qoe: &self.qoe,
            d,
            next_chunk: state.next_chunk,
            h,
            n_levels,
            weights: &rows.weights,
            sizes: &rows.sizes,
            vqs: &rows.vqs,
            ufirst,
            umax,
            root,
            pauses,
            stack,
            memo,
            dts,
            memo_lookups: 0,
            memo_hits: 0,
        };
        let best = self
            .kernel
            .run(walk, &self.warm, state.next_chunk, *prunable, costs);
        self.warm.commit(state.next_chunk, &self.kernel.best_plan);
        Decision {
            level: best.plan0,
            pause_s: pauses[best.candidate],
        }
    }
}

/// Running state of one exact-throughput plan prefix: wall clock, buffer,
/// previous `(vq, level)`, and accumulated weighted quality.
#[derive(Debug, Clone, Copy)]
struct Row {
    t: f64,
    buf: f64,
    prev: Option<(f64, usize)>,
    total: f64,
}

/// The oracle's [`Walk`]: one timed walk over the exact trace, with
/// memoized download times.
struct TraceWalk<'a> {
    cum: &'a CumulativeTrace,
    qoe: &'a Ksqi,
    d: f64,
    next_chunk: usize,
    h: usize,
    n_levels: usize,
    weights: &'a [f64],
    sizes: &'a [f64],
    vqs: &'a [f64],
    ufirst: &'a [f64],
    umax: &'a [f64],
    /// The unpaused decision state; candidate `i` adds `pauses[i]` to
    /// its buffer.
    root: Row,
    pauses: &'a [f64],
    stack: &'a mut [Row],
    memo: &'a mut DtMemo,
    dts: &'a mut [f64],
    /// Memo traffic, flushed to telemetry once per decision.
    memo_lookups: u64,
    memo_hits: u64,
}

impl TraceWalk<'_> {
    /// The memoized walk step `rtt + download_time(t + rtt, size)` — a
    /// pure function of `(t, chunk, level)` for a fixed trace, keyed by
    /// the *exact bits* of `t`. A hit returns exactly what recomputation
    /// would, so caching is bit-invisible.
    fn download_time(&mut self, t: f64, depth: usize, level: usize) -> f64 {
        let chunk = self.next_chunk + depth;
        let key = (t.to_bits(), ((chunk as u64) << 8) | level as u64);
        self.memo_lookups += 1;
        if let Some(&dt) = self.memo.get(&key) {
            self.memo_hits += 1;
            return dt;
        }
        let size = self.sizes[depth * self.n_levels + level];
        let dt = RTT_S + self.cum.download_time(t + RTT_S, size);
        self.memo.insert(key, dt);
        dt
    }
}

impl Walk for TraceWalk<'_> {
    fn horizon(&self) -> usize {
        self.h
    }

    fn levels(&self) -> usize {
        self.n_levels
    }

    fn root(&mut self, candidate: usize) {
        self.stack[0] = Row {
            buf: self.root.buf + self.pauses[candidate],
            ..self.root
        };
    }

    fn step(&mut self, depth: usize, level: usize) {
        let parent = self.stack[depth];
        let dt = self.download_time(parent.t, depth, level);
        let stall = (dt - parent.buf).max(0.0);
        let buf = ((parent.buf - dt).max(0.0) + self.d).min(MAX_BUFFER_S);
        let vq = self.vqs[depth * self.n_levels + level];
        let switch = plan::switch_penalty(parent.prev, vq, level);
        let q = self
            .qoe
            .chunk_quality(vq, stall * RISK_AVERSION, switch, self.d);
        self.stack[depth + 1] = Row {
            t: parent.t + dt,
            buf,
            prev: Some((vq, level)),
            total: parent.total + self.weights[depth] * q,
        };
    }

    /// Extends the running total with `ufirst` for the first remaining
    /// step and `umax` for deeper ones.
    fn bound(&self, depth: usize) -> f64 {
        // `prev` is always `Some` at depth ≥ 1.
        let prev_level = self.stack[depth].prev.map_or(0, |(_, l)| l);
        let mut bnd = self.stack[depth].total + self.ufirst[depth * self.n_levels + prev_level];
        for j in depth + 1..self.h {
            bnd += self.umax[j];
        }
        bnd
    }

    /// Prefetches the per-level download times through the memo first,
    /// then runs one straight-line walk step per level. (Memo *insertion*
    /// order is level order, not visit order; the memo is keyed exactly,
    /// so insertion order is unobservable.)
    fn score_leaves(&mut self, depth: usize, leaf_q: &mut [f64]) {
        let parent = self.stack[depth];
        for level in 0..self.n_levels {
            self.dts[level] = self.download_time(parent.t, depth, level);
        }
        let w = self.weights[depth];
        for (level, leaf) in leaf_q.iter_mut().enumerate() {
            let stall = (self.dts[level] - parent.buf).max(0.0);
            let vq = self.vqs[depth * self.n_levels + level];
            let switch = plan::switch_penalty(parent.prev, vq, level);
            let q = self
                .qoe
                .chunk_quality(vq, stall * RISK_AVERSION, switch, self.d);
            *leaf = parent.total + w * q;
        }
    }

    fn total(&self) -> f64 {
        self.stack[self.h].total
    }

    fn flush(&self) {
        telemetry::count(telemetry::Counter::DtMemoLookups, self.memo_lookups);
        telemetry::count(telemetry::Counter::DtMemoHits, self.memo_hits);
    }
}

impl AbrPolicy for OracleMpc {
    fn name(&self) -> &str {
        &self.name
    }

    /// Oracles are constructed around a specific trace, so reusing one
    /// instance across sessions requires re-indexing the new network. The
    /// cumulative index rebuilds into its existing buffers, keeping the
    /// per-session cost allocation-free — and the download-time memo and
    /// every warm-start carry are dropped, because they are only valid
    /// for the trace they were computed against.
    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.cum.rebind(trace);
        self.scratch.memo.clear();
        self.warm.rebind();
    }

    fn reset(&mut self) {
        self.warm.reset();
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        match self.prepare(state.next_chunk, ctx) {
            0 => Decision::level(0),
            _ => self.decide_prepared(state, ctx),
        }
    }

    /// Recycles the memo at the batch boundary: entries from the previous
    /// batch's trace (already cleared by `rebind`) or from far-away chunk
    /// positions rarely hit again, and a bounded table keeps lookups hot.
    fn begin_batch(&mut self, lanes: usize) {
        self.warm.begin_batch(lanes);
        self.scratch.memo.clear();
    }

    /// Plans every lane of the batch over tables prepared once per chunk
    /// step, plus a download-time memo that lets lanes reuse each other's
    /// trace walks. Decisions are bit-identical to [`Self::decide`] per
    /// lane.
    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        let h = self.prepare(states.next_chunk(), ctx);
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
mod tests {
    use super::*;
    use crate::test_support::{encoded, source};
    use sensei_crowd::TrueQoe;
    use sensei_sim::{simulate, PlayerConfig};
    use sensei_video::SensitivityWeights;

    #[test]
    fn oracle_avoids_stalls_a_predictor_cannot_foresee() {
        // A trace with a deep fade: the oracle knows it is coming.
        let mut samples = vec![3000.0; 30];
        samples.extend(vec![300.0; 20]);
        samples.extend(vec![3000.0; 100]);
        let trace = ThroughputTrace::new("fade", 1.0, samples).unwrap();
        let src = source();
        let enc = encoded(&src);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut OracleMpc::unaware(&trace),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(
            stalls < 1.0,
            "oracle stalled {stalls}s despite full knowledge"
        );
    }

    #[test]
    fn aware_beats_unaware_on_true_qoe_under_tight_bandwidth() {
        // The Fig. 6 claim, in miniature.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let oracle = TrueQoe::default();
        let config = PlayerConfig::default();
        let mut aware_total = 0.0;
        let mut unaware_total = 0.0;
        for seed in 0..5 {
            let trace = sensei_trace::generate::hsdpa_like(1300.0, 600, 40 + seed);
            let a = simulate(
                &src,
                &enc,
                &trace,
                &mut OracleMpc::aware(&trace),
                &config,
                Some(&weights),
            )
            .unwrap();
            let u = simulate(
                &src,
                &enc,
                &trace,
                &mut OracleMpc::unaware(&trace),
                &config,
                None,
            )
            .unwrap();
            aware_total += oracle.qoe01(&src, &a.render).unwrap();
            unaware_total += oracle.qoe01(&src, &u.render).unwrap();
        }
        assert!(
            aware_total > unaware_total,
            "aware {aware_total:.3} vs unaware {unaware_total:.3}"
        );
    }

    #[test]
    fn unaware_never_pauses() {
        let src = source();
        let enc = encoded(&src);
        let trace = sensei_trace::generate::hsdpa_like(1300.0, 600, 9);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut OracleMpc::unaware(&trace),
            &PlayerConfig::default(),
            None,
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

    /// The pre-optimization semantics, restated as a flat reference: every
    /// `(pause, plan)` pair scored by an independent exact-throughput walk
    /// (fresh trace integration per plan, no prefix sharing, no memo, no
    /// pruning), pauses in declaration order, plans in odometer
    /// (lexicographic) order, strictly-greater winner updates. The
    /// memoized branch-and-bound search must reproduce its decisions —
    /// level, pause, and score provenance — exactly.
    fn reference_decide(
        mpc: &OracleMpc,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
    ) -> Decision {
        let remaining = ctx.num_chunks() - state.next_chunk;
        let h = mpc.horizon.min(remaining);
        if h == 0 {
            return Decision::level(0);
        }
        let weights: Vec<f64> = if mpc.sensitivity_aware {
            match ctx.weights {
                Some(w) => {
                    let mut v = w.window(state.next_chunk, h).to_vec();
                    v.resize(h, 1.0);
                    v
                }
                None => vec![1.0; h],
            }
        } else {
            vec![1.0; h]
        };
        let playhead_w = if mpc.sensitivity_aware {
            ctx.weights
                .map(|w| {
                    let buffered = (state.buffer_s / ctx.chunk_duration_s).ceil() as usize;
                    let playhead = state.next_chunk.saturating_sub(buffered);
                    w.get(playhead.min(w.len() - 1)).unwrap_or(1.0)
                })
                .unwrap_or(1.0)
        } else {
            1.0
        };
        let (_, stall_penalty, _, _) = mpc.qoe.coefficients();
        let pauses: &[f64] = if mpc.allow_pause && state.playing {
            &[0.0, 1.0, 2.0]
        } else {
            &[0.0]
        };
        let n_levels = ctx.num_levels();
        let d = ctx.chunk_duration_s;
        let mut best = Decision::level(0);
        let mut best_q = f64::NEG_INFINITY;
        for &pause in pauses {
            let pause_cost =
                playhead_w * stall_penalty * RISK_AVERSION * (pause / d).clamp(0.0, 1.0);
            let mut plan = vec![0usize; h];
            'plans: loop {
                // Score this plan from scratch.
                let mut t = state.elapsed_s;
                let mut buf = state.buffer_s + pause;
                let mut prev = state
                    .last_level
                    .map(|l| (ctx.vq[state.next_chunk.saturating_sub(1)][l], l));
                let mut total = 0.0;
                for (j, &level) in plan.iter().enumerate() {
                    let chunk = state.next_chunk + j;
                    let size = ctx.encoded.size_bits(chunk, level).unwrap();
                    let dt = RTT_S + mpc.cum.download_time(t + RTT_S, size);
                    let stall = (dt - buf).max(0.0);
                    buf = (buf - dt).max(0.0) + d;
                    buf = buf.min(MAX_BUFFER_S);
                    let vq = ctx.vq[chunk][level];
                    let switch = match prev {
                        Some((pvq, plevel)) if plevel != level => (vq - pvq).abs(),
                        _ => 0.0,
                    };
                    prev = Some((vq, level));
                    total +=
                        weights[j] * mpc.qoe.chunk_quality(vq, stall * RISK_AVERSION, switch, d);
                    t += dt;
                }
                let q = total - pause_cost;
                if q > best_q {
                    best_q = q;
                    best = Decision {
                        level: plan[0],
                        pause_s: pause,
                    };
                }
                // Odometer increment (lexicographic plan order); a full
                // wrap ends this pause candidate's enumeration.
                let mut pos = h;
                loop {
                    if pos == 0 {
                        break 'plans;
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
        best
    }

    #[test]
    fn memoized_search_matches_the_flat_reference() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let trace = sensei_trace::generate::hsdpa_like(1400.0, 600, 23);
        // Horizon 4 keeps the 3 · levels^h · h reference walks tractable
        // in debug builds; the search structure (prefix sharing, memo,
        // bound, pause loop) is identical at every horizon, and the full
        // default horizon is additionally spot-checked below.
        let mut configs = [OracleMpc::aware(&trace), OracleMpc::unaware(&trace)];
        for mpc in &mut configs {
            mpc.horizon = 4;
            let ctx = SessionContext {
                encoded: &enc,
                vq: enc.vq_table(),
                weights: mpc.sensitivity_aware.then_some(&weights),
                chunk_duration_s: src.chunk_duration_s(),
            };
            for next_chunk in [0, 2, 7, src.num_chunks() - 2, src.num_chunks() - 1] {
                for buffer_s in [0.5, 4.0, 12.5, 23.5] {
                    for elapsed_s in [0.0, 37.25, 188.0] {
                        let state = PlayerState {
                            next_chunk,
                            buffer_s,
                            last_level: Some(2),
                            throughput_history_kbps: &[1000.0; 4],
                            download_time_history_s: &[1.0; 4],
                            elapsed_s,
                            playing: true,
                        };
                        let fast = mpc.decide(&state, &ctx);
                        let slow = reference_decide(mpc, &state, &ctx);
                        assert_eq!(
                            fast.level, slow.level,
                            "{} level at chunk {next_chunk}, buf {buffer_s}, t {elapsed_s}",
                            mpc.name
                        );
                        assert_eq!(
                            fast.pause_s.to_bits(),
                            slow.pause_s.to_bits(),
                            "{} pause at chunk {next_chunk}, buf {buffer_s}, t {elapsed_s}",
                            mpc.name
                        );
                    }
                }
            }
        }
        // Full default horizon, one representative mid-session state per
        // variant (the reference enumerates 3 · 5^6 plans here — costly,
        // so just one state each).
        for mpc in &mut [OracleMpc::aware(&trace), OracleMpc::unaware(&trace)] {
            let ctx = SessionContext {
                encoded: &enc,
                vq: enc.vq_table(),
                weights: mpc.sensitivity_aware.then_some(&weights),
                chunk_duration_s: src.chunk_duration_s(),
            };
            let state = PlayerState {
                next_chunk: 6,
                buffer_s: 9.0,
                last_level: Some(1),
                throughput_history_kbps: &[1200.0; 5],
                download_time_history_s: &[1.0; 5],
                elapsed_s: 51.5,
                playing: true,
            };
            let fast = mpc.decide(&state, &ctx);
            let slow = reference_decide(mpc, &state, &ctx);
            assert_eq!((fast.level, fast.pause_s), (slow.level, slow.pause_s));
        }
    }

    #[test]
    fn warm_memo_matches_cold_instance_bit_for_bit() {
        // One long-lived instance whose memo fills up across many
        // decisions must decide exactly like a fresh instance per state:
        // memo hits are bit-invisible.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let trace = sensei_trace::generate::hsdpa_like(1100.0, 600, 7);
        let mut warm = OracleMpc::aware(&trace);
        let ctx = SessionContext {
            encoded: &enc,
            vq: enc.vq_table(),
            weights: Some(&weights),
            chunk_duration_s: src.chunk_duration_s(),
        };
        for next_chunk in 0..src.num_chunks() {
            for (buffer_s, elapsed_s) in [(1.0, 10.0), (8.0, 77.7), (20.0, 140.0)] {
                let state = PlayerState {
                    next_chunk,
                    buffer_s,
                    last_level: Some(3),
                    throughput_history_kbps: &[900.0; 3],
                    download_time_history_s: &[1.0; 3],
                    elapsed_s,
                    playing: true,
                };
                let warm_d = warm.decide(&state, &ctx);
                let cold_d = OracleMpc::aware(&trace).decide(&state, &ctx);
                assert_eq!(warm_d.level, cold_d.level);
                assert_eq!(warm_d.pause_s.to_bits(), cold_d.pause_s.to_bits());
            }
        }
        assert!(
            !warm.scratch.memo.is_empty(),
            "the memo should actually be exercised"
        );
    }
}
