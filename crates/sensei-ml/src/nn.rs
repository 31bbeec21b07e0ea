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
//! it: from `-0.0`, input index ascending, then the bias. Within that
//! order the dense layer's forward computes four output rows per pass
//! with four independent accumulators (four add chains in flight instead
//! of one); the `out_dim % 4` leftover rows use the one-row chain. The
//! result is bit-identical to the naive loop, so trained weights and
//! decisions do not depend on the kernel. [`Mlp::forward_into`] runs the
//! pass into caller-owned [`ForwardBuffers`] and allocates nothing once
//! they are sized; [`Mlp::forward`] and [`Mlp::forward_cached`] are thin
//! allocating wrappers over the same path.

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
#[derive(Debug, Clone)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Weights, row-major `out_dim × in_dim`.
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot initialization.
        let scale = (2.0 / (in_dim + out_dim) as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| gaussian(rng) * scale)
            .collect();
        Self {
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
        }
    }

    /// Pre-activation forward into `z`: `z = W·x + b`, four rows per pass
    /// (see the module doc for the summation contract).
    fn forward_into(&self, x: &[f64], z: &mut [f64]) {
        let n = self.in_dim;
        let x = &x[..n];
        let blocked = self.out_dim - self.out_dim % 4;
        let (w4, w1) = self.w.split_at(blocked * n);
        let (b4, b1) = self.b.split_at(blocked);
        let (z4, z1) = z[..self.out_dim].split_at_mut(blocked);
        for ((rows, b), z) in w4
            .chunks_exact(4 * n)
            .zip(b4.chunks_exact(4))
            .zip(z4.chunks_exact_mut(4))
        {
            let (r0, rest) = rows.split_at(n);
            let (r1, rest) = rest.split_at(n);
            let (r2, r3) = rest.split_at(n);
            let (mut s0, mut s1, mut s2, mut s3) = (-0.0, -0.0, -0.0, -0.0);
            for ((((&v, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                s0 += w0 * v;
                s1 += w1 * v;
                s2 += w2 * v;
                s3 += w3 * v;
            }
            z[0] = s0 + b[0];
            z[1] = s1 + b[1];
            z[2] = s2 + b[2];
            z[3] = s3 + b[3];
        }
        for ((row, &b), z) in w1.chunks_exact(n).zip(b1).zip(z1) {
            *z = row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + b;
        }
    }

    /// Accumulates gradients for `dz` (gradient w.r.t. pre-activation) at
    /// input `x`, and adds the gradient w.r.t. `x` into `dx` when asked.
    fn backward(&mut self, x: &[f64], dz: &[f64], mut dx: Option<&mut [f64]>) {
        let n = self.in_dim;
        for (o, &g) in dz.iter().enumerate().take(self.out_dim) {
            self.gb[o] += g;
            let row = o * n..(o + 1) * n;
            for (gw, &xi) in self.gw[row.clone()].iter_mut().zip(x) {
                *gw += g * xi;
            }
            if let Some(dx) = dx.as_deref_mut() {
                for (d, &w) in dx.iter_mut().zip(&self.w[row]) {
                    *d += w * g;
                }
            }
        }
    }

    fn adam_step(&mut self, lr: f64, t: usize) {
        adam_update(&mut self.w, &mut self.gw, &mut self.mw, &mut self.vw, lr, t);
        adam_update(&mut self.b, &mut self.gb, &mut self.mb, &mut self.vb, lr, t);
    }
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
            layer.forward_into(input, out);
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
        let mut grad: Vec<f64> = d_output.to_vec();
        for li in (0..num_layers).rev() {
            let activation = if li + 1 == num_layers {
                self.output
            } else {
                self.hidden
            };
            // dL/dz = dL/da ⊙ a'(z), with a' expressed via the output.
            for (g, &av) in grad.iter_mut().zip(&cache.layers.acts[li]) {
                *g *= activation.derivative_from_output(av);
            }
            if li == 0 {
                // The input gradient has no consumer: skip it.
                self.layers[0].backward(&cache.input, &grad, None);
            } else {
                let mut dx = vec![0.0; self.layers[li].in_dim];
                self.layers[li].backward(&cache.layers.acts[li - 1], &grad, Some(&mut dx));
                grad = dx;
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
        (0..layer.out_dim)
            .map(|o| {
                let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + layer.b[o]
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Inputs with exact zeros of both signs, negatives and plain values.
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
            (0..dim).map(|_| gaussian(rng)).collect(),
        ]
    }

    #[test]
    fn blocked_kernel_matches_naive_sum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        for in_dim in [1, 24, 29, 64] {
            for out_dim in [1, 3, 4, 5, 7, 64] {
                let mut layer = Dense::new(in_dim, out_dim, &mut rng);
                // Rows of all-positive and all-negative weights make every
                // product a signed zero on a zero input, and a `-0.0` bias
                // keeps the sum's sign: a kernel that started its sums from
                // `+0.0` would flip it. Other rows mix in exact zeros.
                for (k, w) in layer.w.iter_mut().enumerate() {
                    *w = match ((k / in_dim) % 4, k % 3) {
                        (0, _) => w.abs(),
                        (1, _) => -w.abs(),
                        (_, 0) => 0.0,
                        (_, 1) => -0.0,
                        _ => *w,
                    };
                }
                for (o, b) in layer.b.iter_mut().enumerate() {
                    *b = [-0.0, -0.0, 0.0, gaussian(&mut rng)][o % 4];
                }
                for x in inputs(in_dim, &mut rng) {
                    let mut z = vec![f64::NAN; out_dim];
                    layer.forward_into(&x, &mut z);
                    assert_eq!(
                        bits(&z),
                        bits(&naive_forward(&layer, &x)),
                        "{in_dim}→{out_dim} at {x:?}"
                    );
                }
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
