//! Property-based tests for the neural-network substrate.

use fuse_nn::layers::{Flatten, Linear, Relu};
use fuse_nn::{L1Loss, Layer, Loss, MseLoss, Optimizer, Sequential, Sgd};
use fuse_tensor::Tensor;
use proptest::prelude::*;

fn batch(n: usize, d: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-5.0f32..5.0, n * d)
        .prop_map(move |v| Tensor::from_vec(v, &[n, d]).expect("length matches shape"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Losses are non-negative and zero only at the target.
    #[test]
    fn losses_are_nonnegative(pred in batch(4, 6), target in batch(4, 6)) {
        let (l1, _) = L1Loss.evaluate(&pred, &target).unwrap();
        let (l2, _) = MseLoss.evaluate(&pred, &target).unwrap();
        prop_assert!(l1 >= 0.0);
        prop_assert!(l2 >= 0.0);
        let (self_l1, _) = L1Loss.evaluate(&pred, &pred).unwrap();
        prop_assert_eq!(self_l1, 0.0);
    }

    /// A ReLU layer never produces negative activations and its backward pass
    /// never amplifies the gradient.
    #[test]
    fn relu_output_nonnegative_and_gradient_bounded(x in batch(3, 8)) {
        let mut relu = Relu::new();
        let y = relu.forward(&x, true).unwrap();
        prop_assert!(y.as_slice().iter().all(|&v| v >= 0.0));
        let g = Tensor::ones(&[3, 8]);
        let gx = relu.backward(&g).unwrap();
        prop_assert!(gx.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    /// Linear layers are, in fact, linear: f(a*x) = a*f(x) - (a-1)*bias_term.
    /// With zero bias, f(a*x) = a*f(x).
    #[test]
    fn linear_layer_is_homogeneous_with_zero_bias(x in batch(2, 5), a in -3.0f32..3.0) {
        let mut layer = Linear::new(5, 4, 7).unwrap();
        let zero_bias = Tensor::zeros(&[4]);
        let w = layer.weight().clone();
        layer.set_params(&[w, zero_bias]).unwrap();
        let fx = layer.forward(&x, true).unwrap();
        let fax = layer.forward(&x.scale(a), true).unwrap();
        for (u, v) in fax.as_slice().iter().zip(fx.scale(a).as_slice()) {
            prop_assert!((u - v).abs() < 1e-2);
        }
    }

    /// Flatten preserves every value.
    #[test]
    fn flatten_preserves_values(v in prop::collection::vec(-2.0f32..2.0, 2 * 3 * 4)) {
        let x = Tensor::from_vec(v, &[2, 3, 4]).unwrap();
        let mut flat = Flatten::new();
        let y = flat.forward(&x, true).unwrap();
        prop_assert_eq!(y.as_slice(), x.as_slice());
        prop_assert_eq!(y.dims(), &[2, 12]);
    }

    /// One SGD step moves parameters opposite to the gradient.
    #[test]
    fn sgd_step_moves_against_gradient(
        params in prop::collection::vec(-1.0f32..1.0, 6),
        grads in prop::collection::vec(-1.0f32..1.0, 6),
        lr in 0.001f32..0.5,
    ) {
        let mut p = params.clone();
        let mut opt = Sgd::new(lr);
        opt.step(&mut p, &grads);
        for i in 0..6 {
            let delta = p[i] - params[i];
            prop_assert!((delta + lr * grads[i]).abs() < 1e-5);
        }
    }

    /// Round-tripping parameters through flat_params/set_flat_params is exact
    /// and does not change model predictions.
    #[test]
    fn sequential_param_round_trip_preserves_predictions(x in batch(3, 6)) {
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(6, 5, 11).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, 12).unwrap()),
        ]);
        let before = model.forward(&x, false).unwrap();
        let params = model.flat_params();
        model.set_flat_params(&params).unwrap();
        let after = model.forward(&x, false).unwrap();
        prop_assert_eq!(before, after);
    }
}
