//! Dense layers and the MLP container, with manual backprop. Every
//! forward runs the fused kernels in [`crate::infer`].

use rand::rngs::StdRng;
use rand::Rng;

use crate::infer::{dense_fused, InferScratch};
use crate::matrix::Matrix;
use crate::optim::Adam;

/// A fully connected layer `y = x·W + b`.
#[derive(Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    input: Option<Matrix>,
}

impl Dense {
    /// He-initialised layer (suits the ReLU activations used throughout).
    pub fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / inputs as f32).sqrt();
        let data = (0..inputs * outputs)
            .map(|_| {
                // Box-Muller standard normal.
                let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * scale
            })
            .collect();
        Dense {
            w: Matrix::from_vec(inputs, outputs, data),
            b: vec![0.0; outputs],
            grad_w: Matrix::zeros(inputs, outputs),
            grad_b: vec![0.0; outputs],
            input: None,
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass; caches the input for backprop.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_cached(x.clone(), false)
    }

    /// Fused forward (`relu` clamps in the epilogue) that keeps `x` as
    /// the cached input for backprop.
    fn forward_cached(&mut self, x: Matrix, relu: bool) -> Matrix {
        assert_eq!(x.cols(), self.inputs(), "dense input width mismatch");
        let mut y = Vec::new();
        self.fused(x.data(), x.rows(), relu, &mut y);
        let rows = x.rows();
        self.input = Some(x);
        Matrix::from_vec(rows, self.outputs(), y)
    }

    /// `out = act(x · W + b)` over `rows` rows through [`dense_fused`].
    fn fused(&self, x: &[f32], rows: usize, relu: bool, out: &mut Vec<f32>) {
        dense_fused(
            x,
            rows,
            self.inputs(),
            self.w.data(),
            self.outputs(),
            &self.b,
            relu,
            out,
        );
    }

    /// Backward pass: accumulates parameter gradients, returns dL/dx.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.input.as_ref().expect("backward before forward");
        self.grad_w = x.t_matmul(grad_out);
        self.grad_b = grad_out.col_sums();
        grad_out.matmul_t(&self.w)
    }

    /// Apply the accumulated gradients through `opt`. `slot` must be a
    /// stable per-layer index so Adam keeps its moments straight.
    pub fn apply(&mut self, opt: &mut Adam, slot: &mut usize) {
        opt.step(*slot, self.w.data_mut(), self.grad_w.data());
        *slot += 1;
        opt.step(*slot, &mut self.b, &self.grad_b);
        *slot += 1;
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// The weight matrix (inputs × outputs).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Rebuild a layer from serialized parameters.
    pub fn from_params(inputs: usize, outputs: usize, w: Vec<f32>, b: Vec<f32>) -> Self {
        assert_eq!(w.len(), inputs * outputs, "weight shape mismatch");
        assert_eq!(b.len(), outputs, "bias shape mismatch");
        Dense {
            w: Matrix::from_vec(inputs, outputs, w),
            b,
            grad_w: Matrix::zeros(inputs, outputs),
            grad_b: vec![0.0; outputs],
            input: None,
        }
    }
}

/// A multilayer perceptron: Dense → ReLU → … → Dense (no final
/// activation; pair with a softmax loss or use raw outputs).
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// MLP with the given layer widths, e.g. `[39, 32, 16, 1]`.
    pub fn new(widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(widths.len() >= 2, "MLP needs at least one layer");
        let layers = widths
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// Forward pass: the fused kernels with ReLU after every layer but
    /// the last; each layer caches its input for backprop.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut cur = x.clone();
        for (i, l) in self.layers.iter_mut().enumerate() {
            cur = l.forward_cached(cur, i + 1 < n);
        }
        cur
    }

    /// Immutable inference forward: the same fused kernels as
    /// [`Mlp::forward`] but `&self` and allocation-free once the
    /// scratch buffers are warm. `x` is `rows × inputs` row-major; the
    /// returned `rows × outputs` logits live in `scratch` until the
    /// next call.
    pub fn forward_into<'s>(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &'s mut InferScratch,
    ) -> &'s [f32] {
        assert_eq!(x.len(), rows * self.inputs(), "input shape mismatch");
        let InferScratch { a, b, .. } = scratch;
        fused_chain(x, self.steps(rows), a, b)
    }

    /// This MLP as [`fused_chain`] steps over `rows` input rows.
    pub(crate) fn steps(&self, rows: usize) -> impl Iterator<Item = (&Dense, usize, bool)> {
        let n = self.layers.len();
        self.layers
            .iter()
            .enumerate()
            .map(move |(i, l)| (l, rows, i + 1 < n))
    }

    /// Backward pass from dL/dy; returns dL/dx.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut g = self.layers[n - 1].backward(grad);
        for i in (0..n - 1).rev() {
            // ReLU backward: layer `i + 1` cached the post-ReLU output,
            // which is positive exactly where the pre-activation was.
            let act = self.layers[i + 1]
                .input
                .as_ref()
                .expect("backward before forward");
            for (gv, &a) in g.data_mut().iter_mut().zip(act.data()) {
                *gv = if a > 0.0 { *gv } else { 0.0 };
            }
            g = self.layers[i].backward(&g);
        }
        g
    }

    /// Apply accumulated gradients.
    pub fn apply(&mut self, opt: &mut Adam, slot: &mut usize) {
        for l in &mut self.layers {
            l.apply(opt, slot);
        }
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Dense::n_params).sum()
    }

    /// The layer widths, e.g. `[39, 32, 16, 1]`.
    pub fn widths(&self) -> Vec<usize> {
        let mut w = vec![self.layers[0].inputs()];
        w.extend(self.layers.iter().map(Dense::outputs));
        w
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Rebuild an MLP from serialized layers.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty());
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].outputs(),
                pair[1].inputs(),
                "layer widths do not chain"
            );
        }
        Mlp { layers }
    }
}

/// One fused layer chain: each step is `(layer, rows, relu)`; the first
/// reads `x`, every later one reads the previous step's output, and the
/// activations ping-pong between `a` and `b`. Returns the last output.
pub(crate) fn fused_chain<'s, 'l>(
    x: &[f32],
    steps: impl IntoIterator<Item = (&'l Dense, usize, bool)>,
    a: &'s mut Vec<f32>,
    b: &'s mut Vec<f32>,
) -> &'s [f32] {
    let mut steps = steps.into_iter();
    let (l0, rows0, relu0) = steps.next().expect("at least one layer");
    l0.fused(x, rows0, relu0, a);
    let (mut cur, mut nxt) = (a, b);
    for (l, rows, relu) in steps {
        l.fused(cur, rows, relu, nxt);
        std::mem::swap(&mut cur, &mut nxt);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, &mut r);
        d.b = vec![10.0, 20.0];
        let x = Matrix::zeros(4, 3);
        let y = d.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input → output is the bias.
        for row in 0..4 {
            assert_eq!(y.row(row), &[10.0, 20.0]);
        }
    }

    #[test]
    fn mlp_gradients_match_finite_differences_through_relu() {
        // Three layers, so the gradient crosses two ReLU masks taken
        // from the cached activations. Loss = sum(c ⊙ y), dL/dy = c.
        let mut r = rng();
        let mut mlp = Mlp::new(&[3, 6, 5, 2], &mut r);
        let x = Matrix::from_vec(
            4,
            3,
            vec![
                0.5, -1.0, 2.0, 0.3, -0.7, 1.1, -1.5, 0.2, -0.4, 1.2, 0.9, -2.0,
            ],
        );
        let c = Matrix::from_vec(4, 2, vec![1.0, -0.5, 0.3, 2.0, -1.2, 0.7, 0.4, -0.9]);
        let loss = |mlp: &mut Mlp, x: &Matrix| -> f64 {
            let y = mlp.forward(x);
            y.data()
                .iter()
                .zip(c.data())
                .map(|(&y, &c)| f64::from(y * c))
                .sum()
        };
        let _ = loss(&mut mlp, &x);
        // Both hidden layers see pre-activations of both signs, so the
        // masks are neither all-pass nor all-block.
        for l in &mlp.layers[1..] {
            let act = l.input.as_ref().expect("cached").data();
            assert!(act.iter().any(|&a| a > 0.0) && act.contains(&0.0));
        }
        let grad_x = mlp.backward(&c);
        let eps = 1e-3;
        let grad_w0 = mlp.layers[0].grad_w.clone();
        for k in 0..3 * 6 {
            let (row, col) = (k / 6, k % 6);
            let old = mlp.layers[0].w.get(row, col);
            mlp.layers[0].w.set(row, col, old + eps);
            let up = loss(&mut mlp, &x);
            mlp.layers[0].w.set(row, col, old - eps);
            let down = loss(&mut mlp, &x);
            mlp.layers[0].w.set(row, col, old);
            let numeric = (up - down) / (2.0 * f64::from(eps));
            let analytic = f64::from(grad_w0.get(row, col));
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "w0[{row}][{col}]: analytic {analytic} numeric {numeric}"
            );
        }
        for k in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let numeric = (loss(&mut mlp, &xp) - loss(&mut mlp, &xm)) / (2.0 * f64::from(eps));
            let analytic = f64::from(grad_x.data()[k]);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "x[{k}]: analytic {analytic} numeric {numeric}"
            );
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut r = rng();
        let mut d = Dense::new(2, 2, &mut r);
        let x = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1]);
        // Loss = sum(y); dL/dy = ones.
        let loss = |d: &mut Dense, x: &Matrix| -> f32 { d.forward(x).data().iter().sum() };
        let base = loss(&mut d, &x);
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let _ = d.forward(&x);
        let _ = d.backward(&ones);
        let analytic = d.grad_w.get(0, 1);
        let eps = 1e-3;
        let old = d.w.get(0, 1);
        d.w.set(0, 1, old + eps);
        let bumped = loss(&mut d, &x);
        let numeric = (bumped - base) / eps;
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} numeric {numeric}"
        );
    }

    #[test]
    fn mlp_learns_a_linear_rule() {
        // y = 1 if x0 > x1 else 0 — trivially learnable.
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 8, 2], &mut r);
        let mut opt = Adam::new(0.01);
        let n = 64;
        let x: Vec<f32> = (0..n)
            .flat_map(|i| {
                let a = ((i * 37) % 100) as f32 / 100.0;
                let b = ((i * 53) % 100) as f32 / 100.0;
                [a, b]
            })
            .collect();
        let xm = Matrix::from_vec(n, 2, x);
        let labels: Vec<usize> = (0..n)
            .map(|i| usize::from(xm.get(i, 0) > xm.get(i, 1)))
            .collect();
        for _ in 0..300 {
            let logits = mlp.forward(&xm);
            let (_, grad) = crate::loss::softmax_cross_entropy(&logits, &labels, &[1.0, 1.0]);
            mlp.backward(&grad);
            let mut slot = 0;
            mlp.apply(&mut opt, &mut slot);
        }
        let logits = mlp.forward(&xm);
        let correct = (0..n)
            .filter(|&i| {
                let pred = usize::from(logits.get(i, 1) > logits.get(i, 0));
                pred == labels[i]
            })
            .count();
        assert!(correct as f64 / n as f64 > 0.9, "acc {}/{n}", correct);
    }

    #[test]
    fn param_counts() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 8, 3], &mut r);
        assert_eq!(mlp.n_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(mlp.inputs(), 4);
        assert_eq!(mlp.outputs(), 3);
    }
}
