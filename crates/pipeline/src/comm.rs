//! Communication-volume model (paper §2.2 and future work).
//!
//! The paper notes that storing weights in FP4/FP8 cuts HBM and that
//! "extending low-precision support to reduce-scatter is a promising but
//! challenging direction for future work". This module implements the
//! accounting side of that direction: per-step communication volume of
//! weight-gradient reduce-scatter / all-gather under a precision scheme, so
//! the trade-off can be explored ahead of kernel support.
//!
//! Volumes are **byte-accurate** for the packed wire representation: a
//! subbyte operand moves its packed codes (4-bit rows padded to whole
//! bytes, exactly as [`snip_tensor::QTensor`] stores them) *plus* one f32
//! scale per scale group — gradients at the 1×`quant_group` tile recipe,
//! weights at the `quant_group`² block recipe. BF16 operands move two bytes
//! per element and no scales.

use crate::stage::StagePartition;
use serde::{Deserialize, Serialize};
use snip_core::Scheme;
use snip_nn::{LayerId, LayerKind, ModelConfig};
use snip_quant::{PackedQuantize, Precision, TensorRole};

/// Bytes moved by one data-parallel step for one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommVolume {
    /// Gradient reduce-scatter bytes.
    pub reduce_scatter: u64,
    /// Parameter all-gather bytes.
    pub all_gather: u64,
}

impl CommVolume {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.reduce_scatter + self.all_gather
    }
}

/// Wire precision policy for collective communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WirePolicy {
    /// Everything in BF16 (today's default).
    Bf16,
    /// Gradients reduced in the layer's assigned *gradient* precision,
    /// parameters gathered in the layer's *weight* precision — the paper's
    /// future-work scenario.
    SchemePrecision,
}

/// Bytes one `rows × cols` operand occupies on the wire at a precision:
/// the precision's quantizer answers through [`PackedQuantize`], so the
/// number is exactly `pack(..).wire_bytes()` — what a real collective would
/// ship for the canonical packed tensor. BF16 operands are not packable and
/// move two bytes per element, no scale factors.
pub fn operand_wire_bytes(
    rows: usize,
    cols: usize,
    p: Precision,
    role: TensorRole,
    group: usize,
) -> u64 {
    codec_wire_bytes(&p.quantizer_with_group(role, group), rows, cols, p.bits())
}

/// [`operand_wire_bytes`] for any quantization option: the analytic packed
/// volume of an arbitrary [`PackedQuantize`] codec (mx/rht/outlier wires in
/// the comm-precision experiments), or the fallback at `fallback_bits` per
/// element when the codec is not packable. The fallback rounds **up per
/// row** — subbyte rows pad to whole bytes exactly as
/// [`snip_tensor::QTensor`] stores (and a wire ships) them, so element
/// counts not divisible by `8 / bits` are never under-counted.
pub fn codec_wire_bytes(
    codec: &impl PackedQuantize,
    rows: usize,
    cols: usize,
    fallback_bits: u32,
) -> u64 {
    codec
        .packed_wire_bytes(rows, cols)
        .unwrap_or_else(|| rows as u64 * (cols as u64 * u64::from(fallback_bits)).div_ceil(8))
}

/// Per-stage communication volume of one optimizer step under a scheme.
///
/// Counts each linear layer's weight tensor once for all-gather and its
/// gradient once for reduce-scatter (norm gains and embeddings are a
/// negligible fraction and always BF16).
pub fn step_comm_volume(
    cfg: &ModelConfig,
    scheme: &Scheme,
    partition: &StagePartition,
    policy: WirePolicy,
) -> Vec<CommVolume> {
    (0..partition.n_stages())
        .map(|k| {
            let mut v = CommVolume::default();
            for block in partition.blocks(k) {
                for kind in LayerKind::ALL {
                    let id = LayerId::new(block, kind);
                    let (n, kk) = kind.dims(cfg);
                    let (grad_bytes, weight_bytes) = match policy {
                        WirePolicy::Bf16 => {
                            let numel = (n * kk) as u64;
                            (numel * 2, numel * 2)
                        }
                        WirePolicy::SchemePrecision => {
                            let p = scheme.layer(id);
                            (
                                operand_wire_bytes(
                                    n,
                                    kk,
                                    p.grad,
                                    TensorRole::OutputGrad,
                                    cfg.quant_group,
                                ),
                                operand_wire_bytes(
                                    n,
                                    kk,
                                    p.weight,
                                    TensorRole::Weight,
                                    cfg.quant_group,
                                ),
                            )
                        }
                    };
                    v.reduce_scatter += grad_bytes;
                    v.all_gather += weight_bytes;
                }
            }
            v
        })
        .collect()
}

/// Whole-model communication saving factor of a scheme vs BF16 wires.
pub fn comm_saving_factor(cfg: &ModelConfig, scheme: &Scheme) -> f64 {
    let partition = StagePartition::even(cfg.n_layers, 1);
    let bf16: u64 = step_comm_volume(cfg, scheme, &partition, WirePolicy::Bf16)
        .iter()
        .map(|v| v.total())
        .sum();
    let low: u64 = step_comm_volume(cfg, scheme, &partition, WirePolicy::SchemePrecision)
        .iter()
        .map(|v| v.total())
        .sum();
    bf16 as f64 / low.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_quant::Precision;

    #[test]
    fn bf16_wire_volume_matches_param_count() {
        let cfg = ModelConfig::tiny_test();
        let partition = StagePartition::even(cfg.n_layers, 1);
        let scheme = Scheme::uniform(Precision::Fp4, cfg.n_linear_layers());
        let v = step_comm_volume(&cfg, &scheme, &partition, WirePolicy::Bf16);
        // 2 blocks × (4·16·16 + 2·24·16 + 16·24) weights, 2 bytes each way.
        let linear_params: u64 = (0..cfg.n_linear_layers())
            .map(|i| {
                let (n, k) = LayerId::from_linear_index(i).kind.dims(&cfg);
                (n * k) as u64
            })
            .sum();
        assert_eq!(v[0].reduce_scatter, linear_params * 2);
        assert_eq!(v[0].all_gather, linear_params * 2);
    }

    #[test]
    fn fp4_wires_save_nearly_4x_over_bf16() {
        // Byte-accurate accounting includes the scale factors, so the saving
        // sits just below the element-only 4× / 2× ideals.
        let cfg = ModelConfig::tinyllama_1b_sim();
        let scheme = Scheme::uniform(Precision::Fp4, cfg.n_linear_layers());
        // quant_group = 16 here, so tile scales add a full 0.25 B/element
        // to the 0.5 B/element FP4 gradients — the honest factor is ~3.15,
        // approaching 4 only as scale groups grow (128 at paper scale).
        let factor = comm_saving_factor(&cfg, &scheme);
        assert!((3.0..4.0).contains(&factor), "fp4 factor = {factor}");
        let fp8 = Scheme::uniform(Precision::Fp8, cfg.n_linear_layers());
        let factor8 = comm_saving_factor(&cfg, &fp8);
        assert!((1.7..2.0).contains(&factor8), "fp8 factor = {factor8}");
        assert!(factor > factor8);
    }

    #[test]
    fn operand_wire_bytes_hand_check() {
        // 16×16 FP4 gradient at 1×8 tiles: 16 rows × 8 packed bytes
        // + 16·2 scales × 4 B.
        let b = operand_wire_bytes(16, 16, Precision::Fp4, TensorRole::OutputGrad, 8);
        assert_eq!(b, 16 * 8 + 32 * 4);
        // Same operand as an FP8 weight at 8×8 blocks: 256 code bytes
        // + 4 blocks × 4 B.
        let b = operand_wire_bytes(16, 16, Precision::Fp8, TensorRole::Weight, 8);
        assert_eq!(b, 256 + 4 * 4);
        // BF16: two bytes per element, no scales.
        let b = operand_wire_bytes(16, 16, Precision::Bf16, TensorRole::Weight, 8);
        assert_eq!(b, 512);
        // Odd FP4 rows pad to whole bytes, exactly like QTensor storage.
        let b = operand_wire_bytes(3, 5, Precision::Fp4, TensorRole::OutputGrad, 8);
        assert_eq!(b, 3 * 3 + 3 * 4);
    }

    #[test]
    fn codec_wire_bytes_covers_alternative_quantizers() {
        use snip_quant::Quantizer;
        // MX: 0.5 B/elem + one E8M0 byte per 32-block.
        let b = codec_wire_bytes(&Quantizer::mxfp4(), 2, 64, 16);
        assert_eq!(b, 2 * 32 + 2 * 2);
        // Outlier split over an FP4 tile body: body bytes + 6 B per outlier.
        let dense = Precision::Fp4.quantizer_with_group(TensorRole::OutputGrad, 8);
        let split = dense.with_outliers(2.0 / 128.0);
        let body = codec_wire_bytes(&dense, 8, 16, 16);
        assert_eq!(codec_wire_bytes(&split, 8, 16, 16), body + 2 * 6);
        // Unpackable codecs fall back to the given wire width.
        let bf16 = Precision::Bf16.quantizer_with_group(TensorRole::Weight, 8);
        assert_eq!(codec_wire_bytes(&bf16, 4, 4, 16), 32);
    }

    #[test]
    fn subbyte_fallback_rounds_up_per_row() {
        // Regression: the fallback used to floor (rows·cols·bits)/8, which
        // under-counted ragged subbyte rows. 3×5 at 4 bits is 3 bytes per
        // row (QTensor pads rows to whole bytes), not floor(60/8) = 7.
        let bf16 = Precision::Bf16.quantizer_with_group(TensorRole::Weight, 8);
        assert_eq!(codec_wire_bytes(&bf16, 3, 5, 4), 9);
        // 1×1 at 4 bits is one whole byte, not zero.
        assert_eq!(codec_wire_bytes(&bf16, 1, 1, 4), 1);
        // Byte-aligned shapes are unchanged.
        assert_eq!(codec_wire_bytes(&bf16, 2, 8, 4), 8);
        assert_eq!(codec_wire_bytes(&bf16, 2, 8, 16), 32);
    }

    #[test]
    fn mixed_scheme_saves_between_2x_and_4x() {
        let cfg = ModelConfig::tinyllama_1b_sim();
        let mut scheme = Scheme::uniform(Precision::Fp8, cfg.n_linear_layers());
        // Half the blocks to FP4.
        for b in 0..cfg.n_layers / 2 {
            for kind in LayerKind::ALL {
                scheme.set_layer(
                    LayerId::new(b, kind),
                    snip_quant::LinearPrecision::uniform(Precision::Fp4),
                );
            }
        }
        let f = comm_saving_factor(&cfg, &scheme);
        assert!(f > 2.0 && f < 4.0, "factor = {f}");
    }

    #[test]
    fn per_stage_volumes_sum_to_total() {
        let cfg = ModelConfig::tinyllama_1b_sim();
        let scheme = Scheme::uniform(Precision::Fp8, cfg.n_linear_layers());
        let one = step_comm_volume(
            &cfg,
            &scheme,
            &StagePartition::even(cfg.n_layers, 1),
            WirePolicy::SchemePrecision,
        );
        let four = step_comm_volume(
            &cfg,
            &scheme,
            &StagePartition::even(cfg.n_layers, 4),
            WirePolicy::SchemePrecision,
        );
        let total4: u64 = four.iter().map(|v| v.total()).sum();
        assert_eq!(one[0].total(), total4);
    }
}
