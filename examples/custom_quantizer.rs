//! Extending SNIP's ILP with custom quantization options (paper §5.2:
//! "SNIP is compatible with emerging quantization techniques, as new
//! methods can be incorporated as additional quantization options").
//!
//! The ILP layer is format-agnostic: a per-layer option is just a
//! (quality, efficiency) pair. This example builds a *three-way* option set
//! — FP8, plain FP4, and RHT-FP4 (randomized-Hadamard pre-rotation) — where
//! every option's quality coefficient comes from its measured error on the
//! layer's actual tensors, and lets the solver arbitrate per layer.
//!
//! ```sh
//! cargo run --release --example custom_quantizer
//! ```

use snip::core::stats::option_errors;
use snip::core::{Trainer, TrainerConfig};
use snip::ilp::{solve, Choice, McKnapsack, SolveOptions};
use snip::nn::ModelConfig;
use snip::quant::{Precision, Quantizer, TensorRole};
use snip::tensor::rng::Rng;

fn main() {
    // Train a small model so the tensors carry realistic statistics.
    let cfg = TrainerConfig {
        model: ModelConfig::tiny_test(),
        ..TrainerConfig::tiny()
    };
    let mut trainer = Trainer::new(cfg.clone()).expect("valid config");
    trainer.train(20);

    // Build per-layer options: (label, quality, efficiency).
    // Quality here is the summed relative quantization error of the three
    // operands (a local metric, kept simple for the example — a production
    // option would feed divergence estimates instead), measured on the
    // layer's live X, W and dY of one BF16 step. Efficiency is the layer's
    // FLOP share if its GEMMs run FP4 (RHT runs on FP4 hardware, so it
    // earns the same FP4 FLOPs; its extra transform cost is O(n·log n) per
    // n² GEMM — negligible).
    let nb = cfg.model.quant_group;
    let rht_block = nb.next_power_of_two();
    let roles = [
        TensorRole::Input,
        TensorRole::Weight,
        TensorRole::OutputGrad,
    ];
    // fp8 (tiny error, no FP4 FLOPs), plain fp4 (the paper's recipe) and
    // rht-fp4; option `3·c + r` is candidate `c` on operand `roles[r]`.
    let candidates = |role| {
        let fp4 = Precision::Fp4.quantizer_with_group(role, nb);
        [
            Precision::Fp8.quantizer_with_group(role, nb),
            fp4,
            fp4.with_rht(rht_block, 0xABCD),
        ]
    };
    let options: Vec<(TensorRole, Quantizer)> = (0..3)
        .flat_map(|c| roles.map(|role| (role, candidates(role)[c])))
        .collect();
    let batch = trainer.peek_batch();
    let errors = option_errors(&mut trainer.model, &batch, &mut Rng::seed_from(7), &options);

    let flops = snip::core::FlopModel::new(&cfg.model);
    let n_layers = cfg.model.n_linear_layers();
    let mut labels: Vec<Vec<&str>> = Vec::new();
    let mut groups: Vec<Vec<Choice>> = Vec::new();
    for (i, layer) in errors.iter().enumerate() {
        let q: Vec<f64> = layer.chunks_exact(3).map(|c| c.iter().sum()).collect();
        let e_fp4 = flops.fraction(i);
        labels.push(vec!["fp8", "fp4", "rht-fp4"]);
        groups.push(vec![
            Choice::new(q[0], 0.0),
            Choice::new(q[1], e_fp4),
            Choice::new(q[2], e_fp4),
        ]);
    }

    // Solve at a 60% FP4 budget.
    let problem = McKnapsack::new(groups.clone(), 0.6);
    let sol = solve(&problem, &SolveOptions::default()).expect("feasible");
    println!("60% FP4 budget over {n_layers} layers — per-layer winners:\n");
    let mut counts = [0usize; 3];
    for (i, &j) in sol.picks.iter().enumerate() {
        counts[j] += 1;
        if i < 7 {
            let q: Vec<String> = groups[i]
                .iter()
                .map(|c| format!("{:.4}", c.quality))
                .collect();
            println!(
                "layer {i:>2}: {}  (q: fp8 {}, fp4 {}, rht {})",
                labels[i][j], q[0], q[1], q[2]
            );
        }
    }
    println!("  …");
    println!(
        "\ntotals: fp8 ×{}, plain fp4 ×{}, rht-fp4 ×{}",
        counts[0], counts[1], counts[2]
    );
    println!(
        "achieved FP4 FLOP fraction: {:.1}%  |  objective {:.4}",
        100.0 * sol.efficiency,
        sol.objective
    );
    println!("\nWherever RHT measurably beats plain FP4 on a layer's real tensors,");
    println!("the solver buys its FP4 FLOPs through the rotated option instead —");
    println!("no change to the framework, just one more column in the ILP.");
}
