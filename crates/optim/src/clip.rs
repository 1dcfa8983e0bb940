//! Global gradient-norm clipping.

use snip_nn::model::Model;
use snip_tensor::pool;

/// The factor a global-norm clip scales every gradient by: `max_norm /
/// norm` as `f32` when `norm` exceeds `max_norm`, otherwise `None`.
/// [`clip_global_norm`] multiplies the gradients by it in place;
/// [`crate::AdamW::update_clipped`] multiplies each gradient element by it
/// as its sweep reads it — one rule, so the two cannot drift.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_factor(norm: f64, max_norm: f64) -> Option<f32> {
    assert!(max_norm > 0.0, "max_norm must be positive");
    (norm > max_norm && norm > 0.0).then(|| (max_norm / norm) as f32)
}

/// Scales all gradients so the global norm does not exceed `max_norm`,
/// one parameter per pool task. Returns the pre-clip global norm.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_global_norm(model: &mut Model, max_norm: f64) -> f64 {
    let norm = model.grad_norm();
    if let Some(scale) = clip_factor(norm, max_norm) {
        pool::for_each_owned(model.params_mut(), |_, p| p.grad_mut().scale(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_nn::{batch::Batch, config::ModelConfig, model::StepOptions};
    use snip_tensor::rng::Rng;

    #[test]
    fn clipping_caps_global_norm() {
        let mut model = Model::new(ModelConfig::tiny_test(), 3).unwrap();
        let batch = Batch::from_sequences(&[vec![1, 2, 3, 4, 5, 6, 7, 8, 9]], 8);
        let mut rng = Rng::seed_from(4);
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        let before = model.grad_norm();
        assert!(before > 0.0);
        let cap = before / 2.0;
        let reported = clip_global_norm(&mut model, cap);
        assert!((reported - before).abs() < 1e-9);
        let after = model.grad_norm();
        assert!((after - cap).abs() < 1e-6 * cap);
    }

    #[test]
    fn no_clipping_below_threshold() {
        let mut model = Model::new(ModelConfig::tiny_test(), 3).unwrap();
        let batch = Batch::from_sequences(&[vec![1, 2, 3, 4, 5, 6, 7, 8, 9]], 8);
        let mut rng = Rng::seed_from(4);
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        let before = model.grad_norm();
        clip_global_norm(&mut model, before * 10.0);
        let after = model.grad_norm();
        assert!((after - before).abs() < 1e-9);
    }
}
