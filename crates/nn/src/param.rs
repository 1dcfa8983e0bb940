//! Trainable parameters.

use snip_tensor::{rng::Rng, Tensor};

/// A trainable parameter: an FP32 master value plus its gradient.
///
/// Mixed-precision training keeps master weights in full precision (paper
/// Fig. 5, following DeepSeek-V3); quantization happens on the fly when a
/// linear layer consumes the weight.
///
/// A gradient is filled one of two ways. Most are *accumulated*
/// (`Param::accumulate_grad`, or in place through [`Param::grad_mut`])
/// and must start each step at zero (`Param::zero_grad`). A linear
/// layer's weight gradient is *written*: its one weight-gradient GEMM of
/// the pass stores `dW` whole through `Param::grad_to_write`, so it needs
/// no zeroing — only `Param::rearm_grad`, which debug builds use to check
/// that no second write silently replaces the first.
#[derive(Clone, Debug)]
pub struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// Debug builds: `grad` was handed out by [`Param::grad_to_write`]
    /// since the last [`Param::zero_grad`] / [`Param::rearm_grad`]. Check
    /// state only: not compared.
    #[cfg(debug_assertions)]
    written: bool,
}

/// Where a constructor's Gaussian-initialised parameters come from.
pub(crate) enum Init<'a> {
    /// Drawn from this stream, in construction order.
    Draw(&'a mut Rng),
    /// Left zero, for a caller that overwrites every value.
    Blank,
}

impl Init<'_> {
    /// A `rows × cols` parameter: Gaussian of deviation `std`, or zero.
    pub(crate) fn param(&mut self, name: String, rows: usize, cols: usize, std: f32) -> Param {
        match self {
            Init::Draw(rng) => Param::randn(name, rows, cols, std, rng),
            Init::Blank => Param::new(name, Tensor::zeros(rows, cols)),
        }
    }
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        (&self.name, &self.value, &self.grad) == (&other.name, &other.value, &other.grad)
    }
}

impl Param {
    /// Creates a parameter with the given initial value and a zero gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param {
            name: name.into(),
            value,
            grad: Tensor::zeros(r, c),
            #[cfg(debug_assertions)]
            written: false,
        }
    }

    /// Gaussian-initialized parameter.
    pub fn randn(
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        std: f32,
        rng: &mut Rng,
    ) -> Self {
        Param::new(name, Tensor::randn(rows, cols, std, rng))
    }

    /// Parameter initialized to a constant (e.g. RMSNorm gains start at 1).
    pub fn full(name: impl Into<String>, rows: usize, cols: usize, value: f32) -> Self {
        Param::new(name, Tensor::full(rows, cols, value))
    }

    /// Parameter name (unique within a model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Master value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable master value (used by the optimizer).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// The gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// The gradient, to update in place (accumulate, scale, reduce).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// The gradient, for its one producer of this pass to overwrite whole
    /// (a linear layer's weight-gradient GEMM): whatever it holds is stale.
    ///
    /// # Panics
    ///
    /// Debug builds panic if it was already handed out since the last
    /// [`Param::zero_grad`] or [`Param::rearm_grad`]: a second write would
    /// replace the first instead of adding to it.
    pub(crate) fn grad_to_write(&mut self) -> &mut Tensor {
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.written,
                "gradient of `{}` written twice without zero_grads in between",
                self.name
            );
            self.written = true;
        }
        &mut self.grad
    }

    /// Readies a written gradient for the next pass without zeroing it:
    /// the next [`Param::grad_to_write`] overwrites every element. Only
    /// debug builds have anything to do (the written-once check).
    pub(crate) fn rearm_grad(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.written = false;
        }
    }

    /// Splits into `(value, grad)` mutable borrows — the optimizer needs both.
    pub fn value_grad_mut(&mut self) -> (&mut Tensor, &Tensor) {
        (&mut self.value, &self.grad)
    }

    /// Adds `g` into the gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn accumulate_grad(&mut self, g: &Tensor) {
        self.grad.add_assign(g);
    }

    /// Zeroes the gradient (and re-arms it, see [`Param::rearm_grad`]).
    pub(crate) fn zero_grad(&mut self) {
        self.grad.fill_zero();
        self.rearm_grad();
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::full(2, 3, 5.0));
        assert_eq!(p.grad().shape(), (2, 3));
        assert_eq!(p.grad().frobenius_norm(), 0.0);
        assert_eq!(p.name(), "w");
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new("w", Tensor::zeros(2, 2));
        let g = Tensor::full(2, 2, 1.5);
        p.accumulate_grad(&g);
        p.accumulate_grad(&g);
        assert_eq!(p.grad().as_slice(), &[3.0, 3.0, 3.0, 3.0]);
        p.zero_grad();
        assert_eq!(p.grad().frobenius_norm(), 0.0);
    }
}
