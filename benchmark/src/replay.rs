//! The traced run's replay of a workload: the sequence `Trainer::train_step`
//! performs, taken apart call by call with a span around each, next to the
//! same steps run whole and untraced. `bench.parts_over_whole` is the check
//! that the parts account for the whole.

use crate::fixture::{Fixture, Seeds, GRAD_CLIP};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    dp_configs, prepare_proc_env, snip_config, Outcome, TrainerKind, NOMINAL_SECONDS,
};
use snip_core::{analyze, decide_scheme, measure, FlopModel, Scheme, Trainer};
use snip_nn::StepOptions;
use snip_optim::clip::clip_global_norm;
use snip_pipeline::collective::{QuantizePolicy, Wire};
use snip_pipeline::transport::proc::proc_data_parallel_train;
use snip_quant::Precision;
use snip_tensor::{pool, rng::Rng};
use std::time::Instant;

const WARMUP_STEPS: u64 = 2;
const REPLAY_STEPS: f64 = 6.0;

/// Two identically built trainers, past their first allocations; the replay
/// and the layer timings both work on this pair.
pub fn warmed_pair(fx: &Fixture, seeds: Seeds, out: &mut Outcome) -> [Trainer; 2] {
    out.attempted += 2 * WARMUP_STEPS;
    [(); 2].map(|()| {
        let mut t = Trainer::new(fx.trainer_config(seeds.init, seeds.data))
            .expect("fixture config is valid");
        let _ = t.train(WARMUP_STEPS);
        t
    })
}

/// Replays `kind` for a few steps on the pair: one trainer steps whole
/// through `train_step`, the other through the decomposed sequence under
/// spans. Returns the median over plain steps of `Σ parts ÷ whole`, each
/// pair of steps taken back to back.
pub fn trainer(
    kind: TrainerKind,
    fx: &Fixture,
    seeds: Seeds,
    seconds: f64,
    pair: &mut [Trainer; 2],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> f64 {
    let steps = ((REPLAY_STEPS * seconds / NOMINAL_SECONDS).round() as u64).max(4);
    let n_linear = fx.model.n_linear_layers();
    let start = match kind {
        TrainerKind::Uniform(p) => Scheme::uniform(p, n_linear),
        TrainerKind::Adaptive => Scheme::uniform(Precision::Bf16, n_linear),
    };
    let [whole, parts] = pair;
    whole.apply_scheme(&start);
    parts.apply_scheme(&start);
    // The decomposed side draws stochastic-rounding bits from its own
    // stream: same work, not the same bits, as the whole side.
    let mut rng = Rng::seed_from(seeds.init ^ 0x5eed);
    // The adaptive replay regenerates its scheme once, mid-way.
    let update_at = (kind == TrainerKind::Adaptive).then_some(steps / 2);
    let snip = snip_config();
    let flops = FlopModel::new(&fx.model);

    let mut ratios = Vec::new();
    let mut losses = Vec::new();
    for step in 0..steps {
        let mut whole_ms = 0.0;
        let mut index = 0;
        let mut new_scheme = None;
        // The two sides swap places every step, so that whatever the first
        // of a pair leaves behind for the second lands on both alike.
        let whole_first = step % 2 == 0;
        for side_is_whole in [whole_first, !whole_first] {
            if side_is_whole {
                let t0 = Instant::now();
                losses.push(whole.train_step());
                whole_ms = t0.elapsed().as_secs_f64() * 1e3;
                continue;
            }
            index = rec.spans().len();
            rec.scope("train_step", step, |rec| {
                if update_at == Some(step) {
                    let batch = rec.scope("snip-data.next_batch", step, |_| parts.peek_batch());
                    let m = rec.scope("snip-core.measure", step, |_| {
                        measure(
                            &mut parts.model,
                            &parts.optimizer,
                            &batch,
                            &mut rng,
                            snip.probe_epsilon,
                        )
                    });
                    let analysis = rec.scope("snip-core.analyze", step, |_| {
                        analyze(&m, &fx.model, &snip.options, &flops)
                    });
                    let scheme = rec
                        .scope("snip-core.decide_scheme", step, |_| {
                            decide_scheme(
                                &analysis,
                                &snip.options,
                                &fx.model,
                                &snip.policy,
                                "replay",
                            )
                        })
                        .expect("the fixture's target is feasible");
                    rec.scope("snip-core.apply_scheme", step, |_| {
                        parts.apply_scheme(&scheme)
                    });
                    new_scheme = Some(scheme);
                }
                let batch = rec.scope("snip-data.next_batch", step, |_| parts.peek_batch());
                rec.scope("snip-nn.zero_grads", step, |_| parts.model.zero_grads());
                let o = rec.scope("snip-nn.model_step", step, |_| {
                    parts.model.step(&batch, &mut rng, &StepOptions::train())
                });
                rec.scope("snip-optim.clip_global_norm", step, |_| {
                    clip_global_norm(&mut parts.model, GRAD_CLIP)
                });
                rec.scope("snip-optim.adamw_update", step, |_| {
                    parts.optimizer.update(&mut parts.model)
                });
                losses.push(o.loss);
            });
        }
        match new_scheme {
            // Keep the whole side on the same scheme from the next step on;
            // this step's pair compares unlike work and is left out.
            Some(scheme) => whole.apply_scheme(&scheme),
            None => ratios.push(rec.children_ms(index) / whole_ms),
        }
    }
    out.attempted += 2 * steps;
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    if bad > 0 {
        out.failed += bad;
        out.violations
            .push(format!("{bad} non-finite losses in the replay"));
    }
    out.notes.push(format!(
        "replay: {steps} steps each way, {} plain pairs",
        ratios.len()
    ));
    median(&ratios)
}

/// The outside view of `dp2-socket-fp4`: a zero-step launch, a call, and
/// the same steps on one rank and one thread in this process. Parts are
/// launch plus compute; what is missing from the whole is the exchange that
/// compute does not hide.
pub fn dp2(
    fx: &Fixture,
    seeds: Seeds,
    single: &mut Trainer,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> f64 {
    const STEPS: u64 = 2;
    // The caller's trainers have sized the pool already; from here on worker
    // processes are pointed at one thread each.
    prepare_proc_env();
    let cfgs = dp_configs(fx, seeds);
    let wire = Wire::fp4(fx.model.quant_group);
    let mut run = |name: &'static str, id: u64, steps: u64| {
        let index = rec.spans().len();
        let result = rec.scope(name, id, |_| {
            proc_data_parallel_train(&cfgs, steps, &wire, QuantizePolicy::EveryHop, seeds.comm)
        });
        if let Err(e) = result {
            out.failed += steps.max(1);
            out.violations.push(format!("{name}: {e}"));
        }
        rec.duration_ms(index)
    };
    let launch_ms = run("snip-pipeline.proc_launch", 0, 0);
    let call_ms = run("snip-pipeline.proc_dp_call", 1, STEPS);

    let mut compute_ms = 0.0;
    for step in 0..STEPS {
        let index = rec.spans().len();
        rec.scope("single_rank_one_thread_step", 2 + step, |_| {
            pool::with_threads(1, || single.train_step())
        });
        compute_ms += rec.duration_ms(index);
    }
    out.attempted += STEPS * (cfgs.len() as u64 + 1);
    (launch_ms + compute_ms) / call_ms
}
