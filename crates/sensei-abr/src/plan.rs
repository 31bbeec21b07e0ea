//! The branch-and-bound plan search shared by every MPC planner.
//!
//! Fugu (Eq. 3), SENSEI-Fugu (Eq. 4) and the §2.4 oracles all solve the
//! same problem: pick the bitrate plan over the next `h` chunks that
//! maximizes the (weighted, risk-averse) KSQI total, optionally under a
//! few intentional-pause candidates, and act on its first level. They
//! differ only in how a plan prefix is *walked* — Fugu averages one
//! buffer walk per predicted throughput scenario over a prefilled
//! download-time table ([`crate::fugu`]), the oracles walk the exact
//! future trace through a memoized download-time lookup
//! ([`crate::offline`]). This module is the search itself, generic over
//! that walk ([`Walk`], monomorphized per planner), plus the helpers both
//! walks build their tables with.
//!
//! The search is an exhaustive enumeration of every `(candidate, plan)`
//! pair, made fast by five structural moves that do not change a single
//! result bit (asserted against flat reference odometers in `fugu.rs`,
//! `offline.rs` and `sensei_fugu.rs`, by the warm-vs-cold parity suite,
//! and by the pinned search counts in `tests/plan_counts.rs`):
//!
//! 1. **Prefix sharing** — plans are enumerated as a depth-first tree, so
//!    every shared prefix is walked once (an ~h-fold cut).
//! 2. **Hoisted and memoized download times** — within one decision the
//!    per-(chunk, level) size/vq lookups are pure manifest reads, filled
//!    once per chunk step for every lane of a batch ([`ChunkRows`]). A
//!    scenario walk's download time `rtt + size/rate` is a pure function
//!    of `(chunk, level, scenario)` and is prefilled into a table; a trace
//!    walk's `rtt + download_time(t + rtt, size)` is a pure function of
//!    `(t, chunk, level)` and is memoized by the exact bits of `t`. A
//!    table read or memo hit returns exactly what recomputation would.
//! 3. **Exact branch-and-bound with guided order** — subtrees are
//!    explored most-promising-first (`ord`) and skipped when a
//!    floating-point-monotone upper bound on every leaf they contain
//!    shows they cannot change the result. The update rule tracks
//!    exactly the tuple the flat reference returns — see
//!    [`Search::descend`] — so neither the visit order nor the pruning
//!    can move a bit.
//! 4. **Cross-chunk warm starts** — consecutive decisions solve almost
//!    the same problem shifted by one chunk, so the shifted suffix of
//!    step *t*'s winning plan is a feasible leaf of step *t+1*'s tree
//!    (see [`crate::WarmLanes::seed_into`]). It is scored first, under candidate 0,
//!    with the exact leaf arithmetic and seeds the incumbent, so the
//!    first `descend` already prunes against a near-optimal bound.
//!    Seeding is indistinguishable from the search having visited that
//!    leaf first: the tie rule still steers every tie to the reference
//!    winner even when the seed's first level is larger.
//! 5. **Block leaf scoring** — the `n_levels` sibling leaves under one
//!    parent share everything but the level, so a walk scores them in one
//!    straight-line pass (dense per-scenario slices for the scenario
//!    walk, one memo prefetch for the trace walk), each element computing
//!    precisely one reference walk step, and the kernel consumes them in
//!    the unchanged visit order.
//!
//! Branch-and-bound is sound only when every bound step is floating-point
//! monotone: nonnegative plan weights, scenario probabilities and QoE
//! penalties. A walk that cannot promise that runs unpruned — the full
//! enumeration in lexicographic order — rather than risk a changed bit.

use crate::WarmLanes;
use sensei_qoe::Ksqi;
use sensei_sim::{PlayerState, SessionContext};
use sensei_telemetry as telemetry;
use sensei_video::SensitivityWeights;

/// Per-request latency the planners add to every download, seconds.
pub(crate) const RTT_S: f64 = 0.08;

/// Buffer cap the planners' walks clamp at, seconds.
pub(crate) const MAX_BUFFER_S: f64 = 24.0;

/// Multiplier on predicted stall time during planning. Deployed MPC
/// controllers weight rebuffering far above its average-QoE cost because
/// real raters judge sessions by their worst moment; planning
/// risk-neutrally against a mean-additive model stalls too often. Even
/// the oracles, with exact future throughput, would otherwise trade
/// "cheap" stalls for bitrate that peak-end raters punish.
pub(crate) const RISK_AVERSION: f64 = 3.0;

/// The intentional-rebuffer action levels (§5.2: "{0, 1, 2} seconds ...
/// only ... at chunk boundaries").
pub const PAUSE_LEVELS_S: [f64; 3] = [0.0, 1.0, 2.0];

/// The per-(depth, level) manifest rows of one chunk step's horizon, plus
/// its weight window. Pure lookups shared by every lane of a batch (all
/// lanes sit at the same chunk), so batched planners fill them once per
/// chunk step.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkRows {
    /// `sizes[depth·L + level]`: chunk size in bits.
    pub(crate) sizes: Vec<f64>,
    /// `vqs[depth·L + level]`: visual quality.
    pub(crate) vqs: Vec<f64>,
    /// `weights[depth]`: the horizon's sensitivity weights, uniform
    /// (`1.0`, an exact multiplicative identity) past the manifest's end
    /// or without weights.
    pub(crate) weights: Vec<f64>,
}

impl ChunkRows {
    /// Fills the rows for the `h` chunks starting at `next_chunk`.
    pub(crate) fn fill(
        &mut self,
        ctx: &SessionContext<'_>,
        next_chunk: usize,
        h: usize,
        weights: Option<&SensitivityWeights>,
    ) {
        self.sizes.clear();
        self.vqs.clear();
        for chunk in next_chunk..next_chunk + h {
            for level in 0..ctx.num_levels() {
                let size = ctx.encoded.size_bits(chunk, level);
                self.sizes.push(size.expect("plan stays in range"));
                self.vqs.push(ctx.vq[chunk][level]);
            }
        }
        self.weights.clear();
        if let Some(w) = weights {
            self.weights.extend_from_slice(w.window(next_chunk, h));
        }
        self.weights.resize(h, 1.0);
    }
}

/// The switch penalty of playing `level` (visual quality `vq`) after
/// `prev = (vq, level)` — zero on the first chunk or without a switch.
pub(crate) fn switch_penalty(prev: Option<(f64, usize)>, vq: f64, level: usize) -> f64 {
    match prev {
        Some((pvq, plevel)) if plevel != level => (vq - pvq).abs(),
        _ => 0.0,
    }
}

/// Weight of the chunk at the playhead, where an intentional pause would
/// land (uniform without weights).
pub(crate) fn playhead_weight(state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> f64 {
    let Some(w) = ctx.weights else { return 1.0 };
    let buffered_chunks = (state.buffer_s / ctx.chunk_duration_s).ceil() as usize;
    let playhead = state.next_chunk.saturating_sub(buffered_chunks);
    w.get(playhead.min(w.len() - 1)).unwrap_or(1.0)
}

/// The planned cost of pausing `pause_s` seconds: the stall is charged at
/// the playhead chunk's weight and at the same risk multiplier the walks
/// apply to predicted stalls, so relocating a stall is never spuriously
/// profitable.
pub(crate) fn pause_cost(qoe: &Ksqi, playhead_w: f64, pause_s: f64, d: f64) -> f64 {
    let (_, stall_penalty, _, _) = qoe.coefficients();
    playhead_w * stall_penalty * RISK_AVERSION * (pause_s / d).clamp(0.0, 1.0)
}

/// Whether the bound steps are floating-point monotone for this objective
/// (nonnegative QoE penalties and weights); pruning is off otherwise.
pub(crate) fn monotone(qoe: &Ksqi, weights: &[f64]) -> bool {
    let (_, b, c, _) = qoe.coefficients();
    b >= 0.0 && c >= 0.0 && weights.iter().all(|&w| w >= 0.0)
}

/// One depth of the switch-aware bound: `row[lprev]` is the best weighted
/// quality any level can contribute at `depth` (`≥ 1`) after previous
/// level `lprev`, charging each level's stall lower bound `stall_lb(level)`
/// at the planning risk multiplier and the exact switch penalty. Returns
/// the maximum over `lprev` (the bound for deeper steps, whose previous
/// level is unknown). `chunk_quality` is FP-monotone in both penalties,
/// so each entry dominates the walk's per-step term as floating point.
pub(crate) fn switch_bound_row(
    qoe: &Ksqi,
    rows: &ChunkRows,
    depth: usize,
    d: f64,
    stall_lb: impl Fn(usize) -> f64,
    row: &mut [f64],
) -> f64 {
    let n_levels = row.len();
    let w = rows.weights[depth];
    let mut overall = f64::NEG_INFINITY;
    for (lprev, slot) in row.iter_mut().enumerate() {
        let prev = Some((rows.vqs[(depth - 1) * n_levels + lprev], lprev));
        let mut best = f64::NEG_INFINITY;
        for level in 0..n_levels {
            let vq = rows.vqs[depth * n_levels + level];
            let switch = switch_penalty(prev, vq, level);
            let term = w * qoe.chunk_quality(vq, stall_lb(level) * RISK_AVERSION, switch, d);
            if term > best {
                best = term;
            }
        }
        *slot = best;
        if best > overall {
            overall = best;
        }
    }
    overall
}

/// The no-stall switch-aware bound tables over the whole horizon:
/// `ufirst[depth·L + lprev]` and `umax[depth]` (see [`switch_bound_row`]).
/// Buffer-independent, so they serve every lane and pause candidate of a
/// chunk step. Depth-0 entries stay at the `0.0` placeholder: the bound
/// is only evaluated at depth ≥ 1, where the previous level is known.
pub(crate) fn fill_no_stall_bounds(
    qoe: &Ksqi,
    rows: &ChunkRows,
    d: f64,
    ufirst: &mut Vec<f64>,
    umax: &mut Vec<f64>,
) {
    let h = rows.weights.len();
    let n_levels = rows.vqs.len() / h;
    ufirst.clear();
    ufirst.resize(h * n_levels, 0.0);
    umax.clear();
    umax.resize(h, 0.0);
    for depth in 1..h {
        let row = &mut ufirst[depth * n_levels..(depth + 1) * n_levels];
        umax[depth] = switch_bound_row(qoe, rows, depth, d, |_| 0.0, row);
    }
}

/// How a planner walks one plan prefix. Rows are indexed by tree depth:
/// row 0 is the pre-plan state of the current candidate, row `j + 1` the
/// state after the length-`j + 1` prefix on the DFS path.
pub(crate) trait Walk {
    /// Plan horizon `h` (tree depth).
    fn horizon(&self) -> usize;
    /// Ladder levels per depth.
    fn levels(&self) -> usize;
    /// Writes row 0 for pause candidate `candidate`.
    fn root(&mut self, candidate: usize);
    /// Writes row `depth + 1`: row `depth` extended by `level`, with
    /// exactly the arithmetic of one reference walk step.
    fn step(&mut self, depth: usize, level: usize);
    /// An upper bound, before the candidate's pause cost, on the score of
    /// every leaf under row `depth` (`≥ 1`), folded exactly like the leaf
    /// scores so it dominates them as floating point.
    fn bound(&self, depth: usize) -> f64;
    /// Scores, before the pause cost, every sibling leaf under row
    /// `depth = h − 1`: `leaf_q[level]` for each level.
    fn score_leaves(&mut self, depth: usize, leaf_q: &mut [f64]);
    /// The exact leaf score, before the pause cost, of completed row `h`.
    fn total(&self) -> f64;
    /// Flushes the walk's own telemetry once the search is done.
    fn flush(&self) {}
}

/// The incumbent of a search: the best score, the pause candidate that
/// produced it and that plan's first level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Best {
    pub(crate) q: f64,
    pub(crate) candidate: usize,
    pub(crate) plan0: usize,
}

/// The search's reusable scratch, one per policy instance.
#[derive(Debug, Clone, Default)]
pub(crate) struct Kernel {
    /// `ord[depth·L + k]`: the exploration order at each depth, built by
    /// the planner through [`Self::order_by`] (only read when pruning is
    /// on; the unpruned fallback keeps the reference's lexicographic
    /// order).
    ord: Vec<usize>,
    /// Per-level score scratch `order_by` sorts by.
    scores: Vec<f64>,
    /// The DFS path (one level per depth) above the current node.
    cur_plan: Vec<usize>,
    /// The full winning plan of the last search — the next chunk step's
    /// warm-start seed.
    pub(crate) best_plan: Vec<usize>,
    /// Warm-start seed scratch (shifted suffix of the previous plan).
    seed: Vec<usize>,
    /// `leaf_q[level]`: each sibling leaf's score at the last depth.
    leaf_q: Vec<f64>,
}

impl Kernel {
    /// Rebuilds the guided exploration order: at each of `h` depths, the
    /// levels `0..n_levels` by descending `score(depth, level)`. Purely a
    /// search-speed heuristic — the update rule makes the result
    /// order-invariant.
    pub(crate) fn order_by(
        &mut self,
        h: usize,
        n_levels: usize,
        score: impl Fn(usize, usize) -> f64,
    ) {
        self.ord.clear();
        for depth in 0..h {
            self.scores.clear();
            self.scores
                .extend((0..n_levels).map(|level| score(depth, level)));
            let base = self.ord.len();
            self.ord.extend(0..n_levels);
            let scores = &self.scores;
            self.ord[base..].sort_by(|&a, &b| {
                scores[b]
                    .partial_cmp(&scores[a])
                    .unwrap_or(core::cmp::Ordering::Equal)
            });
        }
    }

    /// Searches every `(candidate, plan)` pair — candidates in order,
    /// candidate `i` charged `costs[i]` — seeded from `warm` when it holds
    /// the previous chunk step's plan, and returns the winner. Flushes the
    /// search counters to telemetry once.
    pub(crate) fn run<W: Walk>(
        &mut self,
        walk: W,
        warm: &WarmLanes,
        next_chunk: usize,
        prunable: bool,
        costs: &[f64],
    ) -> Best {
        let (h, n_levels) = (walk.horizon(), walk.levels());
        let seeded = warm.seed_into(next_chunk, h, n_levels, &mut self.seed);
        self.cur_plan.clear();
        self.cur_plan.resize(h, 0);
        self.leaf_q.clear();
        self.leaf_q.resize(n_levels, 0.0);
        self.best_plan.clear();
        let mut search = Search {
            walk,
            h,
            n_levels,
            prunable,
            ord: &self.ord,
            cur_plan: &mut self.cur_plan,
            best_plan: &mut self.best_plan,
            leaf_q: &mut self.leaf_q,
            seeded,
            improved: false,
            candidate: 0,
            cost: 0.0,
            best: Best {
                q: f64::NEG_INFINITY,
                candidate: 0,
                plan0: 0,
            },
            nodes: 0,
            pruned: 0,
            seeded_prunes: 0,
        };
        for (candidate, &cost) in costs.iter().enumerate() {
            search.candidate = candidate;
            search.cost = cost;
            search.walk.root(candidate);
            if candidate == 0 && seeded {
                // Score the seed leaf exactly — the same walk steps and
                // fold the tree search performs for any leaf — so the
                // seeded incumbent is indistinguishable from the search
                // having visited that leaf first (module docs, move 4).
                for (depth, &level) in self.seed.iter().enumerate() {
                    search.nodes += 1;
                    search.walk.step(depth, level);
                }
                search.best = Best {
                    q: search.walk.total() - cost,
                    candidate,
                    plan0: self.seed[0],
                };
                search.best_plan.extend_from_slice(&self.seed);
            }
            search.descend(0, 0);
        }
        telemetry::count(telemetry::Counter::PlanNodes, search.nodes);
        telemetry::count(telemetry::Counter::PlanPrunes, search.pruned);
        telemetry::count(telemetry::Counter::WarmStartHits, u64::from(seeded));
        telemetry::count(telemetry::Counter::SeededPrunes, search.seeded_prunes);
        search.walk.flush();
        search.best
    }
}

/// Depth-first enumeration state of one [`Kernel::run`].
struct Search<'a, W> {
    walk: W,
    h: usize,
    n_levels: usize,
    prunable: bool,
    ord: &'a [usize],
    cur_plan: &'a mut [usize],
    best_plan: &'a mut Vec<usize>,
    leaf_q: &'a mut [f64],
    /// Whether the incumbent was seeded from the previous chunk's plan.
    seeded: bool,
    /// Whether any leaf has improved on the (seeded) incumbent yet.
    improved: bool,
    /// The pause candidate being searched, and its cost.
    candidate: usize,
    cost: f64,
    best: Best,
    /// Telemetry tallies, flushed once per decision: `(depth, level)`
    /// expansions, bound-pruned subtrees, and prunes taken against the
    /// still-unimproved seeded incumbent. Plain local adds keep the hot
    /// loop free of thread-local traffic.
    nodes: u64,
    pruned: u64,
    seeded_prunes: u64,
}

impl<W: Walk> Search<'_, W> {
    /// Whether a leaf tying the incumbent's score would replace it: only
    /// inside the incumbent's own candidate, with a smaller first level.
    fn tie_wins(&self, plan0: usize) -> bool {
        self.candidate == self.best.candidate && plan0 < self.best.plan0
    }

    /// The level explored `k`-th at `depth`.
    fn level(&self, depth: usize, k: usize) -> usize {
        if self.prunable {
            self.ord[depth * self.n_levels + k]
        } else {
            k
        }
    }

    /// Recursively enumerates levels at `depth`; `plan0` is the root
    /// level of the current subtree (the candidate first action).
    ///
    /// **Why any exploration order is exact.** A leaf's computed score
    /// depends only on its `(candidate, plan)` pair, and the only
    /// observables are the best score and the winner's candidate and
    /// first level. The flat reference — candidates in order, plans in
    /// odometer (lexicographic) order, strictly-greater updates — returns
    /// exactly the maximum score, the earliest candidate attaining it,
    /// and the smallest first level within that candidate (the root level
    /// is the odometer's most significant digit). The update rule below
    /// maintains that tuple directly: `>` wins outright, `==` wins only
    /// inside the incumbent's candidate with a smaller `plan0` (candidates
    /// run in order, so a tie from a *later* candidate never wins). That
    /// frees the search to visit subtrees in the guided `ord` order. A
    /// single-candidate search (Fugu, cost `0.0`) is the special case:
    /// `x − 0.0 == x` for every non-NaN `x`, and the candidate test is
    /// always true.
    ///
    /// **Why pruning is exact.** A subtree is skipped only when the
    /// walk's bound shows it cannot change that tuple: strictly below the
    /// best score nothing inside can win or tie; equal to it, a tie inside
    /// matters only if it could lower the winning `plan0` within the
    /// incumbent's candidate. The bound extends each running total with
    /// switch-aware per-depth caps through the same left-to-right fold
    /// (and final pause-cost subtraction) the leaves perform; every
    /// operation in the chain is monotone under IEEE-754
    /// round-to-nearest, so it dominates every leaf's *computed* value.
    fn descend(&mut self, depth: usize, plan0: usize) {
        if self.prunable && depth > 0 {
            let ub = self.walk.bound(depth) - self.cost;
            if ub < self.best.q || (ub == self.best.q && !self.tie_wins(plan0)) {
                self.pruned += 1;
                if self.seeded && !self.improved {
                    self.seeded_prunes += 1;
                }
                return;
            }
        }
        if depth + 1 == self.h {
            // The sibling leaves under this parent are scored as one block
            // pass, then consumed in the exact visit order (module docs,
            // move 5).
            self.walk.score_leaves(depth, self.leaf_q);
            for k in 0..self.n_levels {
                self.nodes += 1;
                let level = self.level(depth, k);
                let plan0 = if depth == 0 { level } else { plan0 };
                let q = self.leaf_q[level] - self.cost;
                if q > self.best.q || (q == self.best.q && self.tie_wins(plan0)) {
                    self.best = Best {
                        q,
                        candidate: self.candidate,
                        plan0,
                    };
                    self.improved = true;
                    self.best_plan.clear();
                    self.best_plan.extend_from_slice(&self.cur_plan[..depth]);
                    self.best_plan.push(level);
                }
            }
            return;
        }
        for k in 0..self.n_levels {
            self.nodes += 1;
            let level = self.level(depth, k);
            let plan0 = if depth == 0 { level } else { plan0 };
            self.cur_plan[depth] = level;
            self.walk.step(depth, level);
            self.descend(depth + 1, plan0);
        }
    }
}
