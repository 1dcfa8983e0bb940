//! Pack-signal extraction: the quantization statistics fed to `snip-obs`
//! for the adaptive precision controller.
//!
//! [`crate::Quantizer`]'s pack calls [`record_pack`] on the tensor *as the
//! packer saw it* (post-rotation for RHT, inliers-only for the outlier
//! split) together with the packed body it produced, so every recipe
//! reports through the same computation:
//!
//! * **absmax** — largest |x| in the packed domain;
//! * **group saturation** — fraction of scale groups whose largest decoded
//!   magnitude reaches the top of their code grid (`max|lut| × scale`).
//!   Under absmax scaling this is ~1.0 by construction; under MX's
//!   power-of-two scales it is the headroom signal (a saturated block has
//!   no slack before clipping);
//! * **clip count** — elements whose magnitude exceeds their group's
//!   representable ceiling (only possible for scale rules that round the
//!   scale, e.g. MX);
//! * **mean packed-round error** — mean |x − dequantize(pack(x))|.
//!
//! The whole computation is gated on [`snip_obs::enabled`]; when collection
//! is off a call costs one relaxed atomic load. When on, the cost is one
//! decode pass over the packed body — telemetry reads, it never writes, so
//! the zero-bit contract holds either way.

use snip_obs::quantsig::PackSignal;
use snip_tensor::{QTensor, Tensor};

/// Relative tolerance when comparing magnitudes against a group ceiling:
/// scale computation rounds, so exact float equality would misclassify.
const REL_TOL: f32 = 1e-5;

/// Computes the pack signals for `seen` (the tensor the packer quantized)
/// against `q` (the packed body it produced). Exposed for tests; hot paths
/// call [`record_pack`] which gates on [`snip_obs::enabled`] first.
pub fn pack_signal(seen: &Tensor, q: &QTensor) -> PackSignal {
    let (rows, cols) = seen.shape();
    debug_assert_eq!(seen.shape(), q.shape(), "pack must preserve shape");
    let layout = q.layout();
    let scales = q.scales();
    let max_lut = q.lut().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let col_groups = layout.col_groups(cols);
    // Per-group largest decoded magnitude, to compare against the grid
    // ceiling `scale × max|lut|`.
    let mut group_peak = vec![0.0f32; scales.len()];
    let mut absmax = 0.0f32;
    let mut abs_err_sum = 0.0f64;
    let mut clipped = 0u64;
    let mut decoded = vec![0.0f32; cols];
    for r in 0..rows {
        q.decode_row_into(r, &mut decoded);
        let row = seen.row(r);
        for c in 0..cols {
            let x = row[c];
            let gi = layout.group_index(r, c, col_groups);
            absmax = absmax.max(x.abs());
            abs_err_sum += f64::from((x - decoded[c]).abs());
            group_peak[gi] = group_peak[gi].max(decoded[c].abs());
            let ceiling = scales[gi].abs() * max_lut;
            if x.abs() > ceiling * (1.0 + REL_TOL) {
                clipped += 1;
            }
        }
    }
    let saturated = group_peak
        .iter()
        .zip(scales)
        .filter(|(peak, scale)| {
            let ceiling = scale.abs() * max_lut;
            ceiling > 0.0 && **peak >= ceiling * (1.0 - REL_TOL)
        })
        .count() as u64;
    PackSignal {
        elems: (rows * cols) as u64,
        absmax,
        groups: scales.len() as u64,
        saturated,
        clipped,
        abs_err_sum,
    }
}

/// Records one pack into the `kind` accumulator when telemetry collection
/// is on; a single relaxed atomic load otherwise.
#[inline]
pub fn record_pack(kind: &'static str, seen: &Tensor, q: &QTensor) {
    if !snip_obs::enabled() {
        return;
    }
    snip_obs::quantsig::record(kind, &pack_signal(seen, q));
}

/// RAII wall-time accumulator for the quantizer entry points: adds the
/// elapsed time to the `quant.ns` counter (and bumps `quant.calls`) on
/// drop. Inert — one relaxed load, no clock read — when collection is off.
/// Placed only on the *leaf* quantize routines so nested calls (e.g. RHT
/// packing through its inner quantizer) are never double-counted.
#[must_use = "the timer measures until it is dropped"]
pub(crate) struct QuantTimer(Option<u64>);

impl QuantTimer {
    pub(crate) fn start() -> Self {
        QuantTimer(snip_obs::enabled().then(snip_obs::trace::now_ns))
    }
}

impl Drop for QuantTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.0 {
            snip_obs::counter_add("quant.ns", snip_obs::trace::now_ns().saturating_sub(t0));
            snip_obs::counter_add("quant.calls", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
    use crate::{Quantizer, Rounding};
    use snip_tensor::rng::Rng;

    #[test]
    fn absmax_scaled_groups_saturate_by_construction() {
        let q = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb: 8 },
            Rounding::Nearest,
        );
        let mut rng = Rng::seed_from(7);
        let t = Tensor::randn(4, 24, 1.0, &mut rng);
        let packed = q.quantize_packed(&t, &mut rng).expect("fp4 packs");
        let sig = pack_signal(&t, &packed);
        assert_eq!(sig.elems, 4 * 24);
        assert_eq!(sig.groups, 4 * 3);
        // Absmax scaling puts every group's peak exactly at the ceiling and
        // never clips.
        assert_eq!(sig.saturated, sig.groups);
        assert_eq!(sig.clipped, 0);
        assert!(sig.absmax > 0.0);
        assert!(sig.abs_err_sum > 0.0, "fp4 rounding must show error");
    }

    #[test]
    fn mx_power_of_two_scales_leave_headroom() {
        let q = Quantizer::mxfp4();
        let mut rng = Rng::seed_from(11);
        let t = Tensor::randn(2, 64, 1.0, &mut rng);
        let packed = q.quantize_packed(&t, &mut rng).expect("mxfp4 packs");
        let sig = pack_signal(&t, &packed);
        // E8M0 scales round up to a power of two, so a generic Gaussian
        // block almost never sits exactly at its ceiling.
        assert!(
            sig.saturated < sig.groups,
            "MX blocks should have headroom: {} of {}",
            sig.saturated,
            sig.groups
        );
    }

    #[test]
    fn zero_tensor_has_zero_signals() {
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Rowwise, Rounding::Nearest);
        let mut rng = Rng::seed_from(3);
        let t = Tensor::zeros(3, 5);
        let packed = q.quantize_packed(&t, &mut rng).expect("fp4 packs");
        let sig = pack_signal(&t, &packed);
        assert_eq!(sig.absmax, 0.0);
        assert_eq!(sig.saturated, 0, "zero groups have no ceiling to reach");
        assert_eq!(sig.clipped, 0);
        assert_eq!(sig.abs_err_sum, 0.0);
    }
}
