//! Gradient-descent optimizers over flattened parameter vectors, and an
//! in-place Adam step over a model's own buffers.

/// An optimizer that updates a flattened parameter vector in place from a
/// gradient vector of the same length.
///
/// Operating on flat slices (rather than on layers) keeps the optimizers
/// decoupled from the model structure, which is exactly what the
/// meta-learning outer loop needs: it can run Adam on the meta-parameters θ
/// while the inner loop performs plain SGD steps on temporary copies.
/// Supervised training and fine-tuning instead use
/// [`Adam::step_in_place`], which updates each layer's parameter buffers
/// without flattening them.
pub trait Optimizer: Send {
    /// Applies one update step: modifies `params` in place using `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` have different lengths, or if their
    /// length differs from the one the optimizer was constructed for
    /// (stateful optimizers only).
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;

    /// Changes the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Resets any internal state (moment estimates, step counters).
    fn reset(&mut self);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer without momentum.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Creates an SGD optimizer with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params and grads must have equal length");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
            return;
        }
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

/// Adam optimizer (Kingma & Ba, 2015) — the optimizer used by the paper for
/// both supervised training and the meta-update (§4.1).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999) for a
    /// parameter vector of length `param_len`.
    pub fn new(lr: f32, param_len: usize) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: vec![0.0; param_len],
            v: vec![0.0; param_len],
        }
    }

    /// Creates an Adam optimizer with custom moment decay rates.
    pub fn with_betas(lr: f32, param_len: usize, beta1: f32, beta2: f32) -> Self {
        Adam { beta1, beta2, ..Adam::new(lr, param_len) }
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Number of parameters the optimizer was constructed for: the length
    /// of each of its two moment vectors.
    pub fn param_len(&self) -> usize {
        self.m.len()
    }

    /// One Adam step in place over `(parameter, gradient)` buffer pairs,
    /// such as [`crate::Sequential::params_and_grads_mut`] yields. The pairs
    /// together play the role of the flat vectors of [`Optimizer::step`],
    /// which is this step over one pair: the moments are laid out in pair
    /// order, and every element gets the same arithmetic, so the parameters
    /// end bit-identical to a flat step over the concatenated buffers.
    /// Nothing is copied or allocated.
    ///
    /// Each element runs the IEEE multiplies, adds, divides and square root
    /// below in this order. Rust never contracts them into FMAs, and the
    /// loop vectorises only across independent elements, so the result is
    /// the scalar loop's.
    ///
    /// # Panics
    ///
    /// Panics if a parameter and its gradient differ in length, or if the
    /// pairs do not hold exactly [`Adam::param_len`] parameters.
    pub fn step_in_place<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a mut [f32], &'a [f32])>,
    ) {
        self.step += 1;
        let t = self.step as f32;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bias1 = 1.0 - beta1.powf(t);
        let bias2 = 1.0 - beta2.powf(t);
        let (mut m, mut v) = (self.m.as_mut_slice(), self.v.as_mut_slice());
        for (params, grads) in pairs {
            assert_eq!(params.len(), grads.len(), "params and grads must have equal length");
            assert!(
                params.len() <= m.len(),
                "optimizer was constructed for a different model size"
            );
            let (m_head, m_rest) = std::mem::take(&mut m).split_at_mut(params.len());
            let (v_head, v_rest) = std::mem::take(&mut v).split_at_mut(params.len());
            for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m_head).zip(v_head) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            (m, v) = (m_rest, v_rest);
        }
        assert!(m.is_empty(), "optimizer was constructed for a different model size");
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_in_place([(params, grads)]);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.step = 0;
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = sum((x - c)^2) with each optimizer and check convergence.
    fn quadratic_convergence(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let target = [3.0f32, -2.0, 0.5, 7.0];
        let mut x = [0.0f32; 4];
        for _ in 0..iters {
            let grads: Vec<f32> = x.iter().zip(&target).map(|(&xi, &ci)| 2.0 * (xi - ci)).collect();
            opt.step(&mut x, &grads);
        }
        x.iter().zip(&target).map(|(&xi, &ci)| (xi - ci).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(quadratic_convergence(&mut opt, 200) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        assert!(quadratic_convergence(&mut opt, 300) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 4);
        assert!(quadratic_convergence(&mut opt, 500) < 1e-2);
    }

    #[test]
    fn adam_step_counter_and_reset() {
        let mut opt = Adam::new(0.01, 2);
        let mut p = [1.0f32, 1.0];
        opt.step(&mut p, &[0.1, 0.1]);
        opt.step(&mut p, &[0.1, 0.1]);
        assert_eq!(opt.steps_taken(), 2);
        opt.reset();
        assert_eq!(opt.steps_taken(), 0);
    }

    /// Conv → ReLU → Flatten → Linear → ReLU → Linear, run forward and
    /// backward on a fixed batch so every layer holds a gradient.
    fn model_with_grads() -> crate::Sequential {
        use crate::layers::{Conv2d, Flatten, Linear, Relu};
        use fuse_tensor::{Conv2dSpec, Tensor};
        let mut model = crate::Sequential::new(vec![
            Box::new(Conv2d::new(Conv2dSpec::same(2, 3, 3), 1).unwrap()),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(3 * 4 * 4, 8, 2).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 5, 3).unwrap()),
        ]);
        let y = model.forward(&Tensor::randn(&[3, 2, 4, 4], 1.0, 4), true).unwrap();
        model.zero_grad();
        model.backward(&Tensor::randn(y.dims(), 1.0, 5)).unwrap();
        model
    }

    #[test]
    fn in_place_adam_steps_match_flat_steps_bit_for_bit() {
        let mut in_place = model_with_grads();
        let mut flat = in_place.clone();
        let mut opt_in_place = Adam::new(0.01, in_place.param_len());
        let mut opt_flat = Adam::new(0.01, flat.param_len());
        for _ in 0..3 {
            opt_in_place.step_in_place(in_place.params_and_grads_mut(0));
            let mut params = flat.flat_params();
            opt_flat.step(&mut params, &flat.flat_grads());
            flat.set_flat_params(&params).unwrap();
        }
        let bits = |m: &crate::Sequential| m.flat_params().iter().map(|p| p.to_bits()).collect();
        let expected: Vec<u32> = bits(&flat);
        assert_eq!(bits(&in_place), expected);
        assert_ne!(model_with_grads().flat_params(), in_place.flat_params());
    }

    #[test]
    fn in_place_adam_on_a_suffix_matches_a_flat_adam_sized_to_it() {
        let first = 3; // the two Linear layers and the ReLU between them
        let mut in_place = model_with_grads();
        let mut flat = in_place.clone();
        let suffix = flat.layer_param_ranges()[first].start..flat.param_len();
        let mut opt_in_place = Adam::new(0.01, in_place.param_len_from(first));
        let mut opt_flat = Adam::new(0.01, suffix.len());
        assert_eq!(opt_in_place.param_len(), 3 * 4 * 4 * 8 + 8 + 8 * 5 + 5);
        for _ in 0..3 {
            opt_in_place.step_in_place(in_place.params_and_grads_mut(first));
            let mut params = flat.flat_params();
            opt_flat.step(&mut params[suffix.clone()], &flat.flat_grads()[suffix.clone()]);
            flat.set_flat_params(&params).unwrap();
        }
        let (got, want) = (in_place.flat_params(), flat.flat_params());
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got[..suffix.start], model_with_grads().flat_params()[..suffix.start]);
    }

    #[test]
    #[should_panic(expected = "different model size")]
    fn in_place_adam_panics_on_wrong_model_size() {
        let mut model = model_with_grads();
        let mut opt = Adam::new(0.01, model.param_len() - 1);
        opt.step_in_place(model.params_and_grads_mut(0));
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01, 1);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        let mut sgd = Sgd::new(0.5);
        sgd.set_learning_rate(0.25);
        assert_eq!(sgd.learning_rate(), 0.25);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn step_panics_on_length_mismatch() {
        let mut opt = Sgd::new(0.1);
        let mut p = [0.0f32; 2];
        opt.step(&mut p, &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "different model size")]
    fn adam_panics_on_wrong_model_size() {
        let mut opt = Adam::new(0.1, 2);
        let mut p = [0.0f32; 3];
        opt.step(&mut p, &[0.0; 3]);
    }
}
