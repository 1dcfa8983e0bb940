//! The four end-to-end workloads. Each is a closed loop with one client: a
//! training loop that issues the next step when the previous one returns.
//! Only public entry points of the workspace are driven, and everything is
//! timed from outside.

use crate::fixture::{mix, Fixture, Seeds};
use crate::metrics::Measured;
use crate::stats::{median, per_step_after_launch, rel_iqr, tail_percentile};
use snip_core::{FlopModel, OptionSet, PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer};
use snip_nn::Model;
use snip_pipeline::collective::{chunk_bounds, QuantizePolicy, Wire};
use snip_pipeline::comm::codec_wire_bytes;
use snip_pipeline::transport::proc::proc_data_parallel_train;
use snip_quant::Precision;
use std::time::Instant;

/// `--seconds` at which the step counts below apply; other values scale
/// them. Run length is a step count, never a clock, so it is identical on
/// every commit and `final_loss` is taken at a fixed step.
pub const NOMINAL_SECONDS: f64 = 25.0;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const WARMUP_STEPS: u64 = 3;
/// Timed steps at the nominal run length: about `NOMINAL_SECONDS` on the
/// 2-core reference box, and at least 50 plain-step samples so that ten lie
/// beyond `step_ms_p80`.
const TIMED_BF16: f64 = 56.0;
const TIMED_FP4: f64 = 50.0;
/// 50 plain steps plus the updates due at steps 16, 32 and 48.
const TIMED_ADAPTIVE: f64 = 53.0;
const FINAL_LOSS_STEPS: usize = 8;

pub const UPDATE_PERIOD: u64 = 16;
pub const TARGET_FP4: f64 = 0.5;

pub const DP_WORLD: usize = 2;
pub const DP_STEPS_PER_CALL: u64 = 4;
const DP_CALLS: f64 = 4.0;

/// Scratch directory for the socket fabric, relative to the working
/// directory (the checkout root): the benchmark writes nowhere else, and a
/// relative path keeps Unix socket names far below their 108-byte limit.
pub const PROC_TMPDIR: &str = "benchmark/.tmp";

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Training steps attempted.
    pub attempted: u64,
    /// Steps with a non-finite loss or a typed transport/launch error, plus
    /// one per violated correctness condition.
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Measured>,
    /// Sample counts and the like, for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn violate(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Measured::new(name, value));
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrainerKind {
    Uniform(Precision),
    Adaptive,
}

fn scaled(base: f64, seconds: f64, floor: u64) -> u64 {
    ((base * seconds / NOMINAL_SECONDS).round() as u64).max(floor)
}

pub fn snip_config() -> SnipConfig {
    SnipConfig {
        policy: PolicyConfig {
            target_fp4: TARGET_FP4,
            ..Default::default()
        },
        options: OptionSet::fp8_fp4(),
        update_period: UPDATE_PERIOD,
        ..Default::default()
    }
}

struct Ready {
    trainer: Trainer,
    engine: Option<SnipEngine>,
    warm_losses: Vec<f64>,
}

/// One set-up: what a user pays before the first useful timed step.
fn set_up(kind: TrainerKind, fx: &Fixture, seeds: Seeds) -> Ready {
    let mut trainer =
        Trainer::new(fx.trainer_config(seeds.init, seeds.data)).expect("fixture config is valid");
    let n_linear = fx.model.n_linear_layers();
    let engine = match kind {
        TrainerKind::Uniform(p) => {
            trainer.apply_scheme(&Scheme::uniform(p, n_linear));
            None
        }
        TrainerKind::Adaptive => {
            trainer.apply_scheme(&Scheme::uniform(Precision::Bf16, n_linear));
            Some(SnipEngine::new(snip_config(), fx.model.clone()))
        }
    };
    let warm_losses = match &engine {
        None => trainer.train(WARMUP_STEPS),
        Some(e) => trainer.train_with_engine(WARMUP_STEPS, e),
    };
    Ready {
        trainer,
        engine,
        warm_losses,
    }
}

struct Sample {
    ms: f64,
    loss: f64,
    update: bool,
}

/// `train-bf16`, `train-fp4` and `adaptive-snip`.
pub fn train(kind: TrainerKind, fx: &Fixture, seeds: Seeds, seconds: f64) -> Outcome {
    let timed = match kind {
        // Never fewer than a first and a last loss window.
        TrainerKind::Uniform(Precision::Bf16) => {
            scaled(TIMED_BF16, seconds, 2 * FINAL_LOSS_STEPS as u64)
        }
        TrainerKind::Uniform(_) => scaled(TIMED_FP4, seconds, 2 * FINAL_LOSS_STEPS as u64),
        // At least one update must land and be applied.
        TrainerKind::Adaptive => scaled(TIMED_ADAPTIVE, seconds, UPDATE_PERIOD + 4),
    };
    let mut out = Outcome::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut first_warm: Option<Vec<f64>> = None;
    let mut ready: Option<Ready> = None;
    for rep in 0..SETUP_REPS {
        // Before the next set-up, or peak memory would count two trainers.
        drop(ready.take());
        let t0 = Instant::now();
        let r = set_up(kind, fx, seeds);
        setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += WARMUP_STEPS;
        match &first_warm {
            None => first_warm = Some(r.warm_losses.clone()),
            // Same seed, same inputs: the repetition must repeat bit for bit.
            Some(first) if bits(first) != bits(&r.warm_losses) => out.violate(format!(
                "set-up {rep} warm-up losses {:?} differ from the first set-up's {first:?}",
                r.warm_losses
            )),
            Some(_) => {}
        }
        ready = Some(r);
    }
    let Ready {
        mut trainer,
        engine,
        warm_losses,
    } = ready.expect("at least one set-up");
    count_non_finite(&mut out, &warm_losses, "warm-up");

    let mut samples = Vec::with_capacity(timed as usize);
    let mut cache_bytes = 0usize;
    for _ in 0..timed {
        let update = engine
            .as_ref()
            .is_some_and(|e| e.is_update_due(trainer.step_count()));
        let t0 = Instant::now();
        let loss = match &engine {
            None => {
                let step = trainer.train_step_output_with_grad_hook(&mut |_| {});
                cache_bytes = cache_bytes.max(step.linear_cache_bytes);
                step.loss
            }
            Some(e) => trainer.train_with_engine(1, e)[0],
        };
        samples.push(Sample {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            loss,
            update,
        });
    }
    out.attempted += timed;
    let losses: Vec<f64> = samples.iter().map(|s| s.loss).collect();
    count_non_finite(&mut out, &losses, "timed");

    let plain: Vec<f64> = samples.iter().filter(|s| !s.update).map(|s| s.ms).collect();
    let wall_ms: f64 = samples.iter().map(|s| s.ms).sum();
    let p50 = median(&plain);
    let spread = rel_iqr(&plain);
    let window = FINAL_LOSS_STEPS.min(losses.len());
    let final_loss = mean(&losses[losses.len() - window..]);
    // Window against window: single batch losses are too noisy to compare.
    let first_loss = mean(&losses[..window]);
    // (A NaN on either side also fails the comparison.)
    let improved = final_loss < first_loss;
    if !improved {
        out.violate(format!(
            "final_loss {final_loss} is not below the first timed losses' mean {first_loss}"
        ));
    }

    out.metrics.push(Measured::with_spread(
        "tokens_per_s",
        (timed as usize * fx.tokens()) as f64 / (wall_ms / 1e3),
        spread,
    ));
    out.metrics
        .push(Measured::with_spread("step_ms_p50", p50, spread));
    match tail_percentile(&plain, 0.80, 10) {
        Some(p80) => out
            .metrics
            .push(Measured::with_spread("step_ms_p80", p80, spread)),
        None => out.notes.push(format!(
            "step_ms_p80 omitted: {} plain samples leave fewer than 10 beyond it",
            plain.len()
        )),
    }
    out.metrics.push(Measured::with_spread(
        "setup_s",
        median(&setup_s),
        rel_iqr(&setup_s),
    ));
    out.push("final_loss", final_loss);
    match kind {
        TrainerKind::Uniform(_) => out.push("linear_cache_mb", cache_bytes as f64 / MIB),
        TrainerKind::Adaptive => {
            let extra: f64 = samples
                .iter()
                .filter(|s| s.update)
                .map(|s| s.ms - p50)
                .sum();
            out.metrics.push(Measured::with_spread(
                "snip_overhead_frac",
                extra / wall_ms,
                spread,
            ));
            let scheme = trainer.model.scheme();
            let fp4 = FlopModel::new(&fx.model).scheme_fp4_fraction(&scheme);
            let uniform = scheme.windows(2).all(|w| w[0] == w[1]);
            if uniform || fp4 + 1e-9 < TARGET_FP4 {
                out.violate(format!(
                    "adaptive run ended on a {} scheme with FP4 FLOP fraction {fp4:.3} (target {TARGET_FP4})",
                    if uniform { "uniform" } else { "mixed" }
                ));
            }
            out.notes.push(format!(
                "final scheme: {} of {} layers FP4, FP4 FLOP fraction {fp4:.3}",
                Scheme::new("final", scheme).fp4_layer_count(),
                fx.model.n_linear_layers()
            ));
        }
    }
    out.notes.push(format!(
        "{} plain-step samples, {} update steps, {SETUP_REPS} set-ups of {WARMUP_STEPS} warm-up steps",
        plain.len(),
        samples.len() - plain.len()
    ));
    out
}

/// Payload bytes one data-parallel step must put on the wire: every
/// parameter gradient ring-all-reduced, each of the `2·(world−1)` ring
/// passes moving every chunk across one link.
pub fn expected_dp_payload_per_step(fx: &Fixture, wire: &Wire, world: usize) -> u64 {
    let mut model = Model::new(fx.model.clone(), 0).expect("fixture config is valid");
    let mut numels = Vec::new();
    model.visit_params_mut(&mut |p| numels.push(p.numel()));
    let per_pass: u64 = numels
        .iter()
        .flat_map(|&n| chunk_bounds(n, world))
        .map(|(lo, hi)| match wire.codec() {
            Some(codec) => codec_wire_bytes(codec, 1, hi - lo, wire.bits()),
            None => 4 * (hi - lo) as u64,
        })
        .sum();
    2 * (world as u64 - 1) * per_pass
}

/// Points worker processes at one thread each and at a scratch directory
/// inside the checkout. Workers inherit the launcher's environment; the
/// launcher's own pool, if it already exists, keeps its size.
pub fn prepare_proc_env() {
    std::fs::create_dir_all(PROC_TMPDIR).expect("create the socket scratch directory");
    std::env::set_var("TMPDIR", PROC_TMPDIR);
    std::env::set_var("SNIP_THREADS", "1");
}

pub fn dp_configs(fx: &Fixture, seeds: Seeds) -> Vec<snip_core::TrainerConfig> {
    (0..DP_WORLD as u64)
        .map(|rank| fx.trainer_config(seeds.init, mix(seeds.data, 16 + rank)))
        .collect()
}

/// `dp2-socket-fp4`: zero-step launches (the set-up) interleaved with
/// `DP_STEPS_PER_CALL`-step calls, so launcher drift cancels.
pub fn dp2(fx: &Fixture, seeds: Seeds, seconds: f64) -> Outcome {
    prepare_proc_env();
    let calls = scaled(DP_CALLS, seconds, 2);
    let wire = Wire::fp4(fx.model.quant_group);
    let cfgs = dp_configs(fx, seeds);
    let expected = expected_dp_payload_per_step(fx, &wire, DP_WORLD);
    let mut out = Outcome::default();

    let mut launch_ms = Vec::new();
    let mut call_ms = Vec::new();
    let mut first: Option<(Vec<Vec<f64>>, u64)> = None;
    for call in 0..calls {
        for steps in [0, DP_STEPS_PER_CALL] {
            out.attempted += steps * DP_WORLD as u64;
            let t0 = Instant::now();
            let run =
                proc_data_parallel_train(&cfgs, steps, &wire, QuantizePolicy::EveryHop, seeds.comm);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    out.failed += steps * DP_WORLD as u64;
                    out.violate(format!("call {call} ({steps} steps): {e}"));
                    continue;
                }
            };
            if steps == 0 {
                launch_ms.push(ms);
                continue;
            }
            call_ms.push(ms);
            for l in &run.losses {
                count_non_finite(&mut out, l, "data-parallel");
            }
            if !run.stats.two_sided() {
                out.violate(format!(
                    "call {call}: link counters disagree between the two ends"
                ));
            }
            let measured = run.stats.total_payload_bytes();
            if measured != expected * steps {
                out.violate(format!(
                    "call {call}: {measured} payload bytes, codec_wire_bytes says {}",
                    expected * steps
                ));
            }
            if run.params.len() != DP_WORLD
                || run.params.iter().any(|p| p.len() != run.params[0].len())
                || run.params.iter().flatten().any(|v| !v.is_finite())
            {
                out.violate(format!("call {call}: ranks returned malformed parameters"));
            }
            match &first {
                None => {
                    // Expected under the lossy wire: a chunk's owner keeps
                    // its f32 sum, the other rank the FP4 copy it was sent.
                    out.notes.push(format!(
                        "ranks disagree on {} of {} parameters after {steps} steps of the every-hop FP4 wire",
                        differing_params(&run.params),
                        run.params[0].len()
                    ));
                    first = Some((run.losses, measured));
                }
                Some((first_losses, _)) => {
                    if first_losses
                        .iter()
                        .map(|l| bits(l))
                        .ne(run.losses.iter().map(|l| bits(l)))
                    {
                        out.violate(format!(
                            "call {call}: losses differ from the first call's for the same seed"
                        ));
                    }
                }
            }
        }
    }
    // After the timed calls, so that it warms nothing for them.
    check_ranks_agree(&cfgs, seeds, &mut out);
    let (Some((losses, payload_bytes)), false, false) =
        (first, launch_ms.is_empty(), call_ms.is_empty())
    else {
        out.violate("no data-parallel call completed".into());
        return out;
    };

    let launch = median(&launch_ms);
    let per_step: Vec<f64> = call_ms
        .iter()
        .map(|&ms| per_step_after_launch(ms, launch, DP_STEPS_PER_CALL))
        .collect();
    let spread = rel_iqr(&per_step);
    let global_tokens = (DP_WORLD * fx.tokens()) as f64 * DP_STEPS_PER_CALL as f64;
    let work_s: f64 = call_ms.iter().map(|ms| (ms - launch) / 1e3).sum();
    out.metrics.push(Measured::with_spread(
        "tokens_per_s",
        global_tokens * call_ms.len() as f64 / work_s,
        spread,
    ));
    out.metrics.push(Measured::with_spread(
        "step_ms_p50",
        median(&per_step),
        spread,
    ));
    out.metrics.push(Measured::with_spread(
        "setup_s",
        launch / 1e3,
        rel_iqr(&launch_ms),
    ));
    // The global batch's loss at the last step of a call: both ranks' halves.
    let last: Vec<f64> = losses.iter().filter_map(|l| l.last().copied()).collect();
    out.push("final_loss", mean(&last));
    out.push(
        "wire_bytes_per_step",
        payload_bytes as f64 / DP_STEPS_PER_CALL as f64,
    );
    out.notes.push(format!(
        "{} calls of {DP_STEPS_PER_CALL} steps, {} zero-step launches (median {launch:.0} ms)",
        call_ms.len(),
        launch_ms.len()
    ));
    let _ = std::fs::remove_dir(PROC_TMPDIR);
    out
}

/// Parameters on which the ranks of a data-parallel run hold different bits.
fn differing_params(params: &[Vec<f32>]) -> usize {
    (0..params[0].len())
        .filter(|&i| {
            params
                .iter()
                .any(|p| p[i].to_bits() != params[0][i].to_bits())
        })
        .count()
}

/// The rank-agreement gate, on the wire where agreement is exact: after one
/// step over `Wire::exact()` every rank must return the same bits. (Under
/// the FP4 wire the ranks drift apart by design, so the timed calls cannot
/// carry this check.)
fn check_ranks_agree(cfgs: &[snip_core::TrainerConfig], seeds: Seeds, out: &mut Outcome) {
    out.attempted += DP_WORLD as u64;
    let policy = QuantizePolicy::EveryHop;
    match proc_data_parallel_train(cfgs, 1, &Wire::exact(), policy, seeds.comm) {
        Err(e) => {
            out.failed += DP_WORLD as u64;
            out.violate(format!("exact-wire call: {e}"));
        }
        Ok(run) => {
            let same_len = run.params.len() == DP_WORLD
                && run.params.iter().all(|p| p.len() == run.params[0].len());
            if !same_len || differing_params(&run.params) > 0 {
                out.violate(
                    "ranks returned different parameters after a step over the exact wire".into(),
                );
            }
        }
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn count_non_finite(out: &mut Outcome, losses: &[f64], phase: &str) {
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    if bad > 0 {
        out.failed += bad;
        out.violations
            .push(format!("{bad} non-finite {phase} losses"));
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_scale_with_seconds_and_keep_their_floor() {
        assert_eq!(scaled(TIMED_BF16, NOMINAL_SECONDS, 8), 56);
        assert_eq!(scaled(TIMED_FP4, NOMINAL_SECONDS, 8), 50);
        assert_eq!(scaled(TIMED_FP4, 50.0, 8), 100);
        assert_eq!(scaled(TIMED_FP4, 0.5, 8), 8);
        assert_eq!(scaled(DP_CALLS, NOMINAL_SECONDS, 2), 4);
    }

    #[test]
    fn expected_payload_counts_both_ring_phases() {
        let fx = Fixture::smoke();
        let exact = expected_dp_payload_per_step(&fx, &Wire::exact(), 2);
        let mut model = Model::new(fx.model.clone(), 0).unwrap();
        // World 2: each of the two passes moves every element once, 4 B each.
        assert_eq!(exact, 2 * 4 * model.num_params() as u64);
        let fp4 = expected_dp_payload_per_step(&fx, &Wire::fp4(fx.model.quant_group), 2);
        assert!(fp4 < exact / 3, "fp4 {fp4} vs exact {exact}");
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 1.0));
    }
}
