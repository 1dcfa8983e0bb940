//! **Ablation: quantization-option families** — the pluggable alternatives
//! §5.2 anticipates ("new methods can be incorporated as additional
//! quantization options"), measured on real checkpoint tensors.
//!
//! Compares, per tensor role (activations X, weights W, output gradients
//! ∇Y), the mean relative quantization error of: plain FP4 (the paper's
//! DeepSeek-style recipe), MXFP4 (power-of-two block scales), RHT-FP4
//! (randomized Hadamard pre-rotation, the MXFP4-training trick \[68\]),
//! outlier-split FP4 (dense FP4 + BF16 outliers, the \[73\] mechanism),
//! INT4, and FP8/INT8 references.

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::{Precision, Quantizer, Rounding, TensorRole};
use snip_tensor::Tensor;

pub fn run(ctx: &Ctx) {
    println!("# Ablation: quantization options on checkpoint tensors");
    println!("# tinyllama-1b-sim @ 3-unit checkpoint; mean relative error over layers\n");
    let study = Study::at(
        ctx,
        ModelConfig::tinyllama_1b_sim(),
        3 * ctx.params.ckpt_unit,
    );
    let record = study.record();
    let nb = study.cfg().quant_group;
    // RHT blocks must be powers of two; use the largest ≤ nb.
    let rht_block =
        (1usize << (usize::BITS - 1 - (nb.leading_zeros().min(usize::BITS - 1)))).max(2);

    let tensors_of = |role: TensorRole| -> Vec<&Tensor> {
        record
            .linears
            .iter()
            .map(|lr| match role {
                TensorRole::Input => &lr.x,
                TensorRole::Weight => &lr.w,
                TensorRole::OutputGrad => &lr.dy,
            })
            .collect()
    };

    for (role, label) in [
        (TensorRole::Input, "activations X"),
        (TensorRole::Weight, "weights W"),
        (TensorRole::OutputGrad, "output grads dY"),
    ] {
        let ts = tensors_of(role);
        let fp4 = Precision::Fp4.quantizer_with_group(role, nb);
        let fp8 = Precision::Fp8.quantizer_with_group(role, nb);
        let int =
            |format: IntFormat| Quantizer::new(format, Granularity::Tile { nb }, Rounding::Nearest);
        let options: [(&str, Quantizer); 7] = [
            ("fp4 (paper recipe)", fp4),
            ("mxfp4 (E8M0 scales)", Quantizer::mxfp4()),
            ("rht-fp4", fp4.with_rht(rht_block, 17)),
            ("fp4+outliers(1%)", fp4.with_outliers(0.01)),
            ("int4", int(IntFormat::int4())),
            ("fp8 (reference)", fp8),
            ("int8 (reference)", int(IntFormat::int8())),
        ];
        println!("## {label}");
        println!("{:<22} {:>12}", "option", "rel. error");
        for (name, q) in options {
            let err = ts.iter().map(|t| q.relative_error(t)).sum::<f64>() / ts.len() as f64;
            println!("{name:<22} {err:>12.5}");
        }
        println!();
    }
    println!("# Expected shape: all FP4-class options sit an order of magnitude");
    println!("# above FP8/INT8; outlier splitting and (on outlier-heavy tensors)");
    println!("# RHT shave the FP4 error; MXFP4's power-of-two scales cost a");
    println!("# little accuracy vs f32 scales. Any of these can enter SNIP's ILP");
    println!("# as an extra per-layer option (examples/custom_quantizer.rs).");
}
