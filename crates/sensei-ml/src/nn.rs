//! Multi-layer perceptrons with Adam, from scratch.
//!
//! These networks back two parts of the reproduction: the Pensieve
//! actor-critic (policy and value heads, [`crate::rl`]) and the dense output
//! head of the LSTM-QoE baseline ([`crate::lstm`]). Pensieve and
//! SENSEI-Pensieve run a forward pass per decision (and again after every
//! pause action), so inference is the hot path of RL policies.
//!
//! Kernel contract: every pre-activation is summed exactly as
//! `row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + b[o]` would sum
//! it over the logical row `o`: from `-0.0`, input index ascending, then
//! the bias. The result is bit-identical to that naive loop, so trained
//! weights and decisions do not depend on the kernel.
//!
//! Layout: every weight-shaped matrix (`w`, its gradient `gw` and Adam
//! moments `mw`/`vw`) is input-major, entry `(o, i)` at `i * out_dim + o`,
//! so one input's fan-out is one contiguous row. Initial weights are drawn
//! in logical `out × in` order, and `Debug` prints that order too.
//!
//! Forward: the layer first lists the inputs that are not exactly `±0.0`,
//! then walks the outputs in register blocks of 16, then 4, then 1. A
//! block keeps one accumulator per output and adds
//! `w[i * out_dim + o] * x[i]` for each listed input in ascending order,
//! so each output keeps its own add chain and order (LLVM turns the
//! 16-wide block into packed `mulpd`/`addpd`), and the zero inputs,
//! about half of a hidden ReLU layer's, cost nothing. Skipping them is
//! exact: with a finite weight the product is `±0`, and adding `±0` leaves
//! a nonzero sum unchanged, so only the sign of a zero sum can differ.
//! Two guards close the gaps:
//! - an output whose accumulator ends at exactly `±0` is summed again over
//!   every input;
//! - a layer with any non-finite weight lists every input, because
//!   `inf · 0` is `NaN`. The flag is computed when the layer is built and
//!   after each Adam step.
//!
//! Backward: `gw += dz ⊗ x` row by row, skipping the rows of zero inputs
//! when `dz` is finite (`gw` starts at `+0.0` and a float sum is `-0.0`
//! only when both terms are, so adding `±0` never changes it). The input
//! gradient `dx[i]` is a dot product of row `i` with `dz`, summed from
//! `+0.0` with `o` ascending (the order of accumulating `w[·, o] · dz[o]`
//! output by output), four rows per pass, over the outputs whose `dz` is
//! nonzero: dead ReLU units contribute `±0` terms, which by the same
//! argument change nothing (a non-finite weight again keeps them all).
//!
//! [`Mlp::forward_into`] runs the pass into caller-owned
//! [`ForwardBuffers`] and allocates nothing once they are sized;
//! [`Mlp::forward`] and [`Mlp::forward_cached`] are thin allocating
//! wrappers over the same path. [`Mlp::backward`] reuses per-layer
//! gradient buffers.

use crate::{gaussian, MlError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// 1 / (1 + e^-x)
    Sigmoid,
    /// identity
    Linear,
}

impl Activation {
    /// Applies the activation in place to a pre-activation vector.
    pub fn apply(self, z: &mut [f64]) {
        for v in z {
            *v = self.scalar(*v);
        }
    }

    /// Scalar activation.
    pub fn scalar(self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Linear => v,
        }
    }

    /// Derivative expressed in terms of the *activated* value `a`.
    pub fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Linear => 1.0,
        }
    }
}

/// Numerically stable softmax.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let mut p = Vec::with_capacity(z.len());
    softmax_into(z, &mut p);
    p
}

/// [`softmax`] into a reused buffer (same arithmetic: max, `exp(v − max)`,
/// their sum, then each `e / sum`).
pub fn softmax_into(z: &[f64], out: &mut Vec<f64>) {
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    out.clear();
    out.extend(z.iter().map(|&v| (v - max).exp()));
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// One dense layer with its gradient and Adam-moment buffers.
///
/// Every matrix is input-major (see the module doc): the entry for input
/// `i` and output `o` sits at `i * out_dim + o` (see [`Dense::at`]).
#[derive(Clone)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
    /// Whether every weight is finite: only then may the forward skip zero
    /// inputs (`inf · 0` is `NaN`). Refreshed whenever `w` changes.
    finite: bool,
    /// Gradient w.r.t. the pre-activation; [`Mlp::backward`]'s scratch.
    dz: Vec<f64>,
    /// The outputs with a nonzero `dz` and their `dz`; [`Dense::backward`]'s
    /// scratch.
    live: Vec<(usize, f64)>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot initialization, drawn output by output (the
        // logical `out × in` order) and scattered into input-major slots.
        let scale = (2.0 / (in_dim + out_dim) as f64).sqrt();
        let mut w = vec![0.0; in_dim * out_dim];
        for o in 0..out_dim {
            for i in 0..in_dim {
                w[i * out_dim + o] = gaussian(rng) * scale;
            }
        }
        let mut layer = Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
            finite: true,
            dz: vec![0.0; out_dim],
            live: Vec::with_capacity(out_dim),
        };
        layer.refresh_finite();
        layer
    }

    /// Index of the entry for output `o` and input `i` in every matrix.
    fn at(&self, o: usize, i: usize) -> usize {
        i * self.out_dim + o
    }

    fn refresh_finite(&mut self) {
        self.finite = self.w.iter().all(|w| w.is_finite());
    }

    /// Pre-activation forward into `z`: `z = W·x + b` over the inputs that
    /// are not exactly zero, listed into `live` with their row offsets
    /// (see the module doc for the summation contract and why the skip is
    /// exact).
    fn forward_into(&self, x: &[f64], z: &mut [f64], live: &mut Vec<(usize, f64)>) {
        let x = &x[..self.in_dim];
        nonzero_into(x, self.out_dim, !self.finite, live);
        let m = self.out_dim;
        let z = &mut z[..m];
        let mut o = 0;
        while o + 16 <= m {
            self.block::<16>(x, live, o, z);
            o += 16;
        }
        while o + 4 <= m {
            self.block::<4>(x, live, o, z);
            o += 4;
        }
        while o < m {
            self.block::<1>(x, live, o, z);
            o += 1;
        }
    }

    /// Outputs `o0..o0 + K`: `K` accumulators, each its output's add chain
    /// over the live inputs in ascending order.
    fn block<const K: usize>(&self, x: &[f64], live: &[(usize, f64)], o0: usize, z: &mut [f64]) {
        let mut acc = [-0.0; K];
        let cols = &self.w[o0..];
        for &(row, v) in live {
            for (a, &w) in acc.iter_mut().zip(&cols[row..row + K]) {
                *a += w * v;
            }
        }
        for (k, a) in acc.into_iter().enumerate() {
            let o = o0 + k;
            // A zero sum may owe its sign to a skipped zero product:
            // redo it over every input.
            let sum = if a == 0.0 {
                x.iter()
                    .enumerate()
                    .map(|(i, &v)| self.w[self.at(o, i)] * v)
                    .sum::<f64>()
            } else {
                a
            };
            z[o] = sum + self.b[o];
        }
    }

    /// Accumulates gradients for `self.dz` (the gradient w.r.t. the
    /// pre-activation) at input `x`, and writes the gradient w.r.t. `x`
    /// into `dx` when asked (see the module doc for its summation order).
    fn backward(&mut self, x: &[f64], dx: Option<&mut [f64]>) {
        let m = self.out_dim;
        let x = &x[..self.in_dim];
        let dz = &self.dz[..m];
        for (gb, &g) in self.gb.iter_mut().zip(dz) {
            *gb += g;
        }
        // A zero input adds `g · 0 = ±0` to each entry of its row, which
        // changes nothing: `gw` starts at `+0.0` and a sum is `-0.0` only
        // when both terms are. A non-finite `g` would make it `NaN`.
        let skip_zero_rows = dz.iter().all(|g| g.is_finite());
        for (row, &v) in self.gw.chunks_exact_mut(m).zip(x) {
            if v == 0.0 && skip_zero_rows {
                continue;
            }
            for (gw, &g) in row.iter_mut().zip(dz) {
                *gw += g * v;
            }
        }
        let Some(dx) = dx else { return };
        // dx[i] = +0.0 + Σ_o w[i, o] · dz[o], o ascending over the outputs
        // with a nonzero dz (dead ReLU units have none): one dot product
        // per contiguous row, four rows per pass. By the same argument as
        // for `gw`, a skipped `w · ±0` would have changed nothing.
        let live = &mut self.live;
        nonzero_into(dz, 1, !self.finite, live);
        let dx = &mut dx[..x.len()];
        let blocked = dx.len() - dx.len() % 4;
        let (w4, w1) = self.w.split_at(blocked * m);
        let (dx4, dx1) = dx.split_at_mut(blocked);
        for (rows, d) in w4.chunks_exact(4 * m).zip(dx4.chunks_exact_mut(4)) {
            let (r0, rest) = rows.split_at(m);
            let (r1, rest) = rest.split_at(m);
            let (r2, r3) = rest.split_at(m);
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for &(o, g) in live.iter() {
                s0 += r0[o] * g;
                s1 += r1[o] * g;
                s2 += r2[o] * g;
                s3 += r3[o] * g;
            }
            d.copy_from_slice(&[s0, s1, s2, s3]);
        }
        for (row, d) in w1.chunks_exact(m).zip(dx1) {
            *d = live.iter().fold(0.0, |s, &(o, g)| s + row[o] * g);
        }
    }

    fn adam_step(&mut self, lr: f64, t: usize) {
        adam_update(&mut self.w, &mut self.gw, &mut self.mw, &mut self.vw, lr, t);
        adam_update(&mut self.b, &mut self.gb, &mut self.mb, &mut self.vb, lr, t);
        self.refresh_finite();
    }
}

/// A weight-shaped matrix of a layer, printed in logical `out × in` order.
struct Logical<'a>(&'a Dense, &'a [f64]);

impl std::fmt::Debug for Logical<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Logical(layer, matrix) = self;
        f.debug_list()
            .entries(
                (0..layer.out_dim)
                    .flat_map(|o| (0..layer.in_dim).map(move |i| &matrix[layer.at(o, i)])),
            )
            .finish()
    }
}

impl std::fmt::Debug for Dense {
    /// The fields a derived `Debug` would print, minus the scratch, with
    /// every matrix in logical `out × in` order: the printed form of a
    /// network does not depend on its memory layout.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense")
            .field("in_dim", &self.in_dim)
            .field("out_dim", &self.out_dim)
            .field("w", &Logical(self, &self.w))
            .field("b", &self.b)
            .field("gw", &Logical(self, &self.gw))
            .field("gb", &self.gb)
            .field("mw", &Logical(self, &self.mw))
            .field("vw", &Logical(self, &self.vw))
            .field("mb", &self.mb)
            .field("vb", &self.vb)
            .finish()
    }
}

/// Lists into `live` a `(i * stride, v[i])` pair for each entry of `v`
/// that is not exactly `±0.0` (for every entry when `keep_all`), `i`
/// ascending.
fn nonzero_into(v: &[f64], stride: usize, keep_all: bool, live: &mut Vec<(usize, f64)>) {
    // Branch-free: which entries are zero is data-dependent, so a branch
    // per entry would be mispredicted about half the time.
    live.clear();
    live.resize(v.len(), (0, 0.0));
    let mut n = 0;
    for (i, &e) in v.iter().enumerate() {
        live[n] = (i * stride, e);
        n += usize::from(e != 0.0 || keep_all);
    }
    live.truncate(n);
}

/// In-place Adam update; zeroes the gradient buffer afterwards.
pub(crate) fn adam_update(
    params: &mut [f64],
    grads: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    t: usize,
) {
    const B1: f64 = 0.9;
    const B2: f64 = 0.999;
    const EPS: f64 = 1e-8;
    let t = t.max(1) as f64;
    let bc1 = 1.0 - B1.powf(t);
    let bc2 = 1.0 - B2.powf(t);
    for i in 0..params.len() {
        let g = grads[i].clamp(-5.0, 5.0); // gradient clipping for stability
        m[i] = B1 * m[i] + (1.0 - B1) * g;
        v[i] = B2 * v[i] + (1.0 - B2) * g * g;
        let mh = m[i] / bc1;
        let vh = v[i] / bc2;
        params[i] -= lr * mh / (vh.sqrt() + EPS);
        grads[i] = 0.0;
    }
}

/// Reusable per-layer output buffers for [`Mlp::forward_into`]: `acts[l]`
/// is layer `l`'s activated output. Sized on first use; one set serves any
/// number of passes through networks of the same shape.
#[derive(Debug, Clone, Default)]
pub struct ForwardBuffers {
    acts: Vec<Vec<f64>>,
    /// The current layer's nonzero inputs as `(row offset, value)` pairs.
    live: Vec<(usize, f64)>,
}

impl ForwardBuffers {
    /// The network output of the last pass (post output-activation).
    pub fn output(&self) -> &[f64] {
        self.acts.last().expect("a forward pass filled the buffers")
    }
}

/// Forward-pass cache for one sample, for backprop: the input plus every
/// layer's activations.
#[derive(Debug, Clone, Default)]
pub struct ForwardCache {
    input: Vec<f64>,
    layers: ForwardBuffers,
}

impl ForwardCache {
    /// The network output (post output-activation).
    pub fn output(&self) -> &[f64] {
        self.layers.output()
    }
}

/// A fully-connected network.
///
/// Hidden layers share one activation; the output layer has its own
/// (use [`Activation::Linear`] and apply [`softmax`] externally for policy
/// heads — the policy-gradient math works on logits).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    hidden: Activation,
    output: Activation,
    t: usize,
}

impl Mlp {
    /// Builds an MLP with layer sizes `dims` (e.g. `[8, 64, 5]`).
    ///
    /// # Errors
    ///
    /// Returns an error when fewer than two dims or any dim is zero.
    pub fn new(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        seed: u64,
    ) -> Result<Self, MlError> {
        if dims.len() < 2 {
            return Err(MlError::InvalidHyperparameter {
                name: "dims",
                value: dims.len() as f64,
            });
        }
        if dims.contains(&0) {
            return Err(MlError::InvalidHyperparameter {
                name: "dims (zero layer)",
                value: 0.0,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Ok(Self {
            layers,
            hidden,
            output,
            t: 0,
        })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass returning only the output.
    ///
    /// # Errors
    ///
    /// Returns an error on input-dimension mismatch.
    pub fn forward(&self, x: &[f64]) -> Result<Vec<f64>, MlError> {
        let mut bufs = ForwardBuffers::default();
        self.forward_into(x, &mut bufs)?;
        Ok(bufs.acts.pop().expect("output exists"))
    }

    /// Forward pass into caller-owned buffers; returns the output. Once
    /// `bufs` is sized for this network the pass allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error on input-dimension mismatch.
    pub fn forward_into<'b>(
        &self,
        x: &[f64],
        bufs: &'b mut ForwardBuffers,
    ) -> Result<&'b [f64], MlError> {
        if x.len() != self.input_dim() {
            return Err(MlError::DimensionMismatch {
                context: "mlp forward",
                expected: self.input_dim(),
                actual: x.len(),
            });
        }
        let num_layers = self.layers.len();
        bufs.acts.resize_with(num_layers, Vec::new);
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = bufs.acts.split_at_mut(li);
            let input = done.last().map_or(x, Vec::as_slice);
            let out = &mut rest[0];
            out.resize(layer.out_dim, 0.0);
            layer.forward_into(input, out, &mut bufs.live);
            if li + 1 == num_layers {
                self.output.apply(out);
            } else {
                self.hidden.apply(out);
            }
        }
        Ok(bufs.output())
    }

    /// Forward pass keeping per-layer activations for backprop.
    ///
    /// # Errors
    ///
    /// Returns an error on input-dimension mismatch.
    pub fn forward_cached(&self, x: &[f64]) -> Result<ForwardCache, MlError> {
        let mut cache = ForwardCache::default();
        self.forward_cached_into(x, &mut cache)?;
        Ok(cache)
    }

    /// [`Mlp::forward_cached`] into a reused cache; returns the output.
    ///
    /// # Errors
    ///
    /// Returns an error on input-dimension mismatch.
    pub fn forward_cached_into<'c>(
        &self,
        x: &[f64],
        cache: &'c mut ForwardCache,
    ) -> Result<&'c [f64], MlError> {
        self.forward_into(x, &mut cache.layers)?;
        cache.input.clear();
        cache.input.extend_from_slice(x);
        Ok(cache.output())
    }

    /// Accumulates gradients for one sample.
    ///
    /// `d_output` is the loss gradient w.r.t. the network *output*
    /// (post-activation). For a linear output layer this equals the gradient
    /// w.r.t. logits, which is what softmax-cross-entropy and
    /// policy-gradient losses produce directly.
    ///
    /// # Errors
    ///
    /// Returns an error on output-dimension mismatch.
    pub fn backward(&mut self, cache: &ForwardCache, d_output: &[f64]) -> Result<(), MlError> {
        if d_output.len() != self.output_dim() {
            return Err(MlError::DimensionMismatch {
                context: "mlp backward",
                expected: self.output_dim(),
                actual: d_output.len(),
            });
        }
        let num_layers = self.layers.len();
        if cache.layers.acts.len() != num_layers {
            return Err(MlError::DimensionMismatch {
                context: "mlp backward cache",
                expected: num_layers,
                actual: cache.layers.acts.len(),
            });
        }
        self.layers[num_layers - 1].dz.copy_from_slice(d_output);
        for li in (0..num_layers).rev() {
            let activation = if li + 1 == num_layers {
                self.output
            } else {
                self.hidden
            };
            let (below, rest) = self.layers.split_at_mut(li);
            let layer = &mut rest[0];
            // dL/dz = dL/da ⊙ a'(z), with a' expressed via the output.
            for (g, &av) in layer.dz.iter_mut().zip(&cache.layers.acts[li]) {
                *g *= activation.derivative_from_output(av);
            }
            match below.last_mut() {
                // The input gradient has no consumer: skip it.
                None => layer.backward(&cache.input, None),
                Some(prev) => layer.backward(&cache.layers.acts[li - 1], Some(&mut prev.dz)),
            }
        }
        Ok(())
    }

    /// Applies one Adam step over the accumulated gradients and clears them.
    pub fn step(&mut self, lr: f64) {
        self.t += 1;
        for layer in &mut self.layers {
            layer.adam_step(lr, self.t);
        }
    }

    /// Convenience: one MSE training step on a single sample.
    /// Returns the squared-error loss before the update.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn train_mse(&mut self, x: &[f64], target: &[f64], lr: f64) -> Result<f64, MlError> {
        let cache = self.forward_cached(x)?;
        let out = cache.output();
        if target.len() != out.len() {
            return Err(MlError::DimensionMismatch {
                context: "train_mse target",
                expected: out.len(),
                actual: target.len(),
            });
        }
        let loss: f64 = out.iter().zip(target).map(|(o, t)| (o - t) * (o - t)).sum();
        let d_out: Vec<f64> = out.iter().zip(target).map(|(o, t)| 2.0 * (o - t)).collect();
        self.backward(&cache, &d_out)?;
        self.step(lr);
        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn activations_and_derivatives() {
        assert_eq!(Activation::Relu.scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.scalar(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        let s = Activation::Sigmoid.scalar(0.0);
        assert!((s - 0.5).abs() < 1e-12);
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-12);
        assert!((Activation::Tanh.derivative_from_output(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(Activation::Linear.derivative_from_output(7.0), 1.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Large logits must not overflow.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    /// The summation the kernel contract promises, written naively.
    fn naive_forward(layer: &Dense, x: &[f64]) -> Vec<f64> {
        reference::Dense::of(layer).forward(x)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Inputs with exact zeros of both signs, negatives and plain values:
    /// all zero, half zero (interleaved, then as a leading run), none zero.
    fn inputs(dim: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        vec![
            vec![0.0; dim],
            vec![-0.0; dim],
            (0..dim)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => gaussian(rng),
                })
                .collect(),
            (0..dim)
                .map(|i| if 2 * i < dim { 0.0 } else { gaussian(rng) })
                .collect(),
            (0..dim).map(|_| gaussian(rng)).collect(),
        ]
    }

    /// `layer.forward_into` on every [`inputs`] case, against the naive sum.
    fn assert_matches_naive(layer: &Dense, rng: &mut StdRng) {
        let mut live = Vec::new();
        for x in inputs(layer.in_dim, rng) {
            let mut z = vec![f64::NAN; layer.out_dim];
            layer.forward_into(&x, &mut z, &mut live);
            assert_eq!(
                bits(&z),
                bits(&naive_forward(layer, &x)),
                "{}→{} at {x:?}",
                layer.in_dim,
                layer.out_dim
            );
        }
    }

    #[test]
    fn blocked_kernel_matches_naive_sum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        for in_dim in [1, 24, 29, 64] {
            for out_dim in [1, 3, 4, 5, 7, 15, 16, 17, 64] {
                let mut layer = Dense::new(in_dim, out_dim, &mut rng);
                // Rows of all-positive and all-negative weights make every
                // product a signed zero on a zero input, and a `-0.0` bias
                // keeps the sum's sign: a kernel that started its sums from
                // `+0.0` would flip it, and so would one that skipped zero
                // inputs without redoing a zero sum over every input. Other
                // rows mix in exact zeros.
                for o in 0..out_dim {
                    for i in 0..in_dim {
                        let k = o * in_dim + i;
                        let at = layer.at(o, i);
                        let w = &mut layer.w[at];
                        *w = match (o % 4, k % 3) {
                            (0, _) => w.abs(),
                            (1, _) => -w.abs(),
                            (_, 0) => 0.0,
                            (_, 1) => -0.0,
                            _ => *w,
                        };
                    }
                }
                for (o, b) in layer.b.iter_mut().enumerate() {
                    *b = [-0.0, -0.0, 0.0, gaussian(&mut rng)][o % 4];
                }
                assert_matches_naive(&layer, &mut rng);
            }
        }
    }

    #[test]
    fn non_finite_weight_disables_the_zero_skip() {
        // `inf · 0` is `NaN`, so a zero input next to an infinite weight
        // still counts; input 0 is zero in the interleaved half-zero case
        // while other inputs are not, so no zero-sum redo hides a skip.
        // Backward: a zero `dz` next to it still counts towards `dx`.
        let mut rng = StdRng::seed_from_u64(13);
        for (in_dim, out_dim) in [(1, 1), (24, 64), (29, 7), (64, 17)] {
            for weight in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut layer = Dense::new(in_dim, out_dim, &mut rng);
                let o = out_dim / 2;
                let k = layer.at(o, 0);
                layer.w[k] = weight;
                layer.refresh_finite();
                assert!(!layer.finite);
                assert_matches_naive(&layer, &mut rng);

                let x: Vec<f64> = (0..in_dim).map(|_| gaussian(&mut rng)).collect();
                for (p, g) in layer.dz.iter_mut().enumerate() {
                    *g = if p == o { 0.0 } else { gaussian(&mut rng) };
                }
                let mut reference = reference::Dense::of(&layer);
                let want = reference.backward(&x, &layer.dz.clone());
                let mut dx = vec![f64::NAN; in_dim];
                layer.backward(&x, Some(&mut dx));
                assert_eq!(bits(&dx), bits(&want), "{in_dim}→{out_dim} dx");
                assert_eq!(bits(&reference::Dense::of(&layer).gw), bits(&reference.gw));
            }
        }
    }

    #[test]
    fn buffer_forward_matches_naive_network_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(12);
        let nets = [
            Mlp::new(&[24, 64, 64, 5], Activation::Relu, Activation::Linear, 1).unwrap(),
            Mlp::new(&[29, 64, 64, 7], Activation::Relu, Activation::Linear, 2).unwrap(),
            Mlp::new(&[29, 24, 24, 1], Activation::Relu, Activation::Linear, 3).unwrap(),
            Mlp::new(&[1, 3, 4], Activation::Tanh, Activation::Sigmoid, 4).unwrap(),
        ];
        // One set of buffers shared across every shape, so resizing runs.
        let mut bufs = ForwardBuffers::default();
        for net in nets.iter().chain(&nets) {
            for x in inputs(net.input_dim(), &mut rng) {
                let mut naive = x.clone();
                for (li, layer) in net.layers.iter().enumerate() {
                    let act = if li + 1 == net.layers.len() {
                        net.output
                    } else {
                        net.hidden
                    };
                    naive = naive_forward(layer, &naive)
                        .into_iter()
                        .map(|v| act.scalar(v))
                        .collect();
                }
                let want = bits(&naive);
                assert_eq!(bits(net.forward_into(&x, &mut bufs).unwrap()), want);
                assert_eq!(bits(&net.forward(&x).unwrap()), want);
                assert_eq!(bits(net.forward_cached(&x).unwrap().output()), want);
            }
        }
    }

    /// The layer arithmetic written naively over row-major matrices
    /// (`w[o * in_dim + i]`), with a derived `Debug`.
    mod reference {
        use super::super::{adam_update, Activation};

        #[derive(Debug)]
        pub(super) struct Dense {
            in_dim: usize,
            out_dim: usize,
            pub(super) w: Vec<f64>,
            pub(super) b: Vec<f64>,
            pub(super) gw: Vec<f64>,
            pub(super) gb: Vec<f64>,
            pub(super) mw: Vec<f64>,
            pub(super) vw: Vec<f64>,
            pub(super) mb: Vec<f64>,
            pub(super) vb: Vec<f64>,
        }

        impl Dense {
            /// A copy of `layer` with every matrix in row-major order.
            pub(super) fn of(layer: &super::super::Dense) -> Self {
                let rows = |m: &[f64]| -> Vec<f64> {
                    (0..layer.out_dim)
                        .flat_map(|o| (0..layer.in_dim).map(move |i| m[layer.at(o, i)]))
                        .collect()
                };
                Self {
                    in_dim: layer.in_dim,
                    out_dim: layer.out_dim,
                    w: rows(&layer.w),
                    b: layer.b.clone(),
                    gw: rows(&layer.gw),
                    gb: layer.gb.clone(),
                    mw: rows(&layer.mw),
                    vw: rows(&layer.vw),
                    mb: layer.mb.clone(),
                    vb: layer.vb.clone(),
                }
            }

            pub(super) fn forward(&self, x: &[f64]) -> Vec<f64> {
                (0..self.out_dim)
                    .map(|o| {
                        let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                        row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.b[o]
                    })
                    .collect()
            }

            /// Accumulates `gb`/`gw` and returns `dx`, output by output.
            pub(super) fn backward(&mut self, x: &[f64], dz: &[f64]) -> Vec<f64> {
                let n = self.in_dim;
                let mut dx = vec![0.0; n];
                for (o, &g) in dz.iter().enumerate() {
                    self.gb[o] += g;
                    for i in 0..n {
                        self.gw[o * n + i] += g * x[i];
                        dx[i] += self.w[o * n + i] * g;
                    }
                }
                dx
            }

            pub(super) fn step(&mut self, lr: f64, t: usize) {
                adam_update(&mut self.w, &mut self.gw, &mut self.mw, &mut self.vw, lr, t);
                adam_update(&mut self.b, &mut self.gb, &mut self.mb, &mut self.vb, lr, t);
            }
        }

        /// One sample's forward and backward through `layers`; returns
        /// each layer's gradient w.r.t. its pre-activation.
        pub(super) fn backward(
            layers: &mut [Dense],
            hidden: Activation,
            output: Activation,
            x: &[f64],
            d_output: &[f64],
        ) -> Vec<Vec<f64>> {
            let num_layers = layers.len();
            let act = |li: usize| {
                if li + 1 == num_layers {
                    output
                } else {
                    hidden
                }
            };
            let mut acts = vec![x.to_vec()];
            for (li, layer) in layers.iter().enumerate() {
                let z = layer.forward(&acts[li]);
                acts.push(z.into_iter().map(|v| act(li).scalar(v)).collect());
            }
            let mut dz = vec![Vec::new(); num_layers];
            let mut grad = d_output.to_vec();
            for li in (0..num_layers).rev() {
                for (g, &a) in grad.iter_mut().zip(&acts[li + 1]) {
                    *g *= act(li).derivative_from_output(a);
                }
                dz[li].clone_from(&grad);
                grad = layers[li].backward(&acts[li], &grad);
            }
            dz
        }
    }

    /// Every parameter, gradient and moment of `net` equals `reference`'s,
    /// bit for bit, and prints the same.
    fn assert_matches_reference(net: &Mlp, reference: &[reference::Dense], at: &str) {
        for (li, (layer, want)) in net.layers.iter().zip(reference).enumerate() {
            let got = reference::Dense::of(layer);
            for (name, g, w) in [
                ("w", &got.w, &want.w),
                ("b", &got.b, &want.b),
                ("gw", &got.gw, &want.gw),
                ("gb", &got.gb, &want.gb),
                ("mw", &got.mw, &want.mw),
                ("vw", &got.vw, &want.vw),
                ("mb", &got.mb, &want.mb),
                ("vb", &got.vb, &want.vb),
            ] {
                assert_eq!(bits(g), bits(w), "layer {li} {name} {at}");
            }
        }
        assert_eq!(format!("{:?}", net.layers), format!("{reference:?}"));
    }

    #[test]
    fn backward_and_adam_match_a_row_major_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(14);
        let shapes: [(&[usize], Activation); 3] = [
            (&[24, 64, 64, 5], Activation::Relu),
            (&[29, 17, 4, 1], Activation::Relu),
            (&[3, 4, 2], Activation::Tanh),
        ];
        for (dims, hidden) in shapes {
            let mut net = Mlp::new(dims, hidden, Activation::Linear, 5).unwrap();
            let mut reference: Vec<_> = net.layers.iter().map(reference::Dense::of).collect();
            let mut cache = ForwardCache::default();
            let mut dead_units = 0;
            for step in 0..4 {
                // [`inputs`] has exact-zero inputs (skipped `gw` rows); an
                // all-zero input kills every ReLU unit of the first layer.
                // In step 2 one output gradient is infinite, so no `gw`
                // row may be skipped there, and step 3 runs on the
                // non-finite weights that follow.
                for (k, x) in inputs(dims[0], &mut rng).into_iter().enumerate() {
                    let mut d_output: Vec<f64> = (0..net.output_dim())
                        .map(|k| if k == 1 { 0.0 } else { gaussian(&mut rng) })
                        .collect();
                    if step == 2 && k == 3 {
                        d_output[0] = f64::INFINITY;
                    }
                    net.forward_cached_into(&x, &mut cache).unwrap();
                    let hidden_acts = &cache.layers.acts[..net.layers.len() - 1];
                    dead_units += hidden_acts.iter().flatten().filter(|&&a| a == 0.0).count();
                    net.backward(&cache, &d_output).unwrap();
                    let dz = reference::backward(&mut reference, hidden, net.output, &x, &d_output);
                    // Each `dz` below the top is the `dx` above it times a'.
                    for (layer, want) in net.layers.iter().zip(&dz) {
                        assert_eq!(bits(&layer.dz), bits(want), "dz, step {step}, {x:?}");
                    }
                    assert_matches_reference(&net, &reference, &format!("step {step}, {x:?}"));
                }
                net.step(0.01);
                if hidden == Activation::Relu {
                    // Dead units turn the infinite gradient into `NaN`s.
                    assert_eq!(net.layers.iter().all(|l| l.finite), step < 2);
                }
                for layer in &mut reference {
                    layer.step(0.01, net.t);
                }
                assert_matches_reference(&net, &reference, &format!("after step {step}"));
            }
            if hidden == Activation::Relu {
                assert!(dead_units > 0, "{dims:?} saw no dead ReLU unit");
            }
        }
    }

    #[test]
    fn debug_prints_weights_in_out_by_in_order() {
        let mut net = Mlp::new(&[2, 3, 1], Activation::Relu, Activation::Linear, 0).unwrap();
        let layer = &mut net.layers[0];
        for o in 0..3 {
            for i in 0..2 {
                let at = layer.at(o, i);
                layer.w[at] = f64::from(10 * u8::try_from(o).unwrap() + u8::try_from(i).unwrap());
            }
        }
        let printed = format!("{net:?}");
        assert!(
            printed.contains("Dense { in_dim: 2, out_dim: 3, w: [0.0, 1.0, 10.0, 11.0, 20.0, 21.0], b: [0.0, 0.0, 0.0], gw: [0.0, 0.0"),
            "{printed}"
        );
    }

    #[test]
    fn softmax_into_matches_softmax() {
        let mut out = vec![9.0; 7];
        for z in [
            vec![1.0, -2.0, 0.5],
            vec![-0.0, 0.0],
            vec![700.0, -700.0, 3.0, 3.0],
        ] {
            softmax_into(&z, &mut out);
            assert_eq!(bits(&out), bits(&softmax(&z)));
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(Mlp::new(&[4], Activation::Relu, Activation::Linear, 0).is_err());
        assert!(Mlp::new(&[4, 0, 2], Activation::Relu, Activation::Linear, 0).is_err());
        let net = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Linear, 0).unwrap();
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_checks_dimensions() {
        let net = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, 1).unwrap();
        assert!(net.forward(&[1.0, 2.0]).is_err());
        assert_eq!(net.forward(&[1.0, 2.0, 3.0]).unwrap().len(), 2);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerically verify backprop on a tiny network.
        let mut net = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, 7).unwrap();
        let x = [0.3, -0.8];
        let target = [0.7];
        let loss_of = |net: &Mlp| {
            let o = net.forward(&x).unwrap()[0];
            (o - target[0]) * (o - target[0])
        };
        // Analytic gradient of first-layer weight (0,0).
        let cache = net.forward_cached(&x).unwrap();
        let out = cache.output()[0];
        net.backward(&cache, &[2.0 * (out - target[0])]).unwrap();
        let analytic = net.layers[0].gw[0];
        // Finite difference.
        let eps = 1e-6;
        let mut net_p = net.clone();
        net_p.layers[0].w[0] += eps;
        let mut net_m = net.clone();
        net_m.layers[0].w[0] -= eps;
        let numeric = (loss_of(&net_p) - loss_of(&net_m)) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-5,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn learns_xor() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, 3).unwrap();
        let data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..4000 {
            let (x, y) = data[rng.gen_range(0..4)];
            net.train_mse(&x, &[y], 0.01).unwrap();
        }
        for (x, y) in data {
            let p = net.forward(&x).unwrap()[0];
            assert!(
                (p - y).abs() < 0.2,
                "xor({x:?}) predicted {p}, expected {y}"
            );
        }
    }

    #[test]
    fn training_is_deterministic() {
        let make = || {
            let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Linear, 9).unwrap();
            for i in 0..50 {
                let v = (i % 5) as f64 / 5.0;
                net.train_mse(&[v, 1.0 - v], &[v], 0.01).unwrap();
            }
            net.forward(&[0.5, 0.5]).unwrap()[0]
        };
        assert_eq!(make(), make());
    }
}
