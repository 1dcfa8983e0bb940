//! The Fig. 6 loop is a pure function of seed and step.
//!
//! `Trainer::train_with_engine` measures, solves and installs a scheme on
//! the update step itself, on the calling thread. So a run must repeat bit
//! for bit, install schemes on exactly the steps `k · update_period`, not
//! depend on the pool split or the kernel tier, not depend on how the steps
//! are divided into calls, and survive a checkpoint at any step of a period
//! — with a fresh engine, since an engine carries no state.

use snip_core::{PolicyConfig, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip_quant::LinearPrecision;
use snip_tensor::{pool, simd};

const PERIOD: u64 = 4;
/// Steps 0..=12: updates due at 4, 8 and 12.
const STEPS: u64 = 3 * PERIOD + 1;

fn engine() -> SnipEngine {
    SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.5,
                ..Default::default()
            },
            update_period: PERIOD,
            ..Default::default()
        },
        TrainerConfig::tiny().model,
    )
}

fn fresh() -> Trainer {
    Trainer::new(TrainerConfig::tiny()).expect("tiny trainer")
}

/// Everything a run leaves behind: parameters, moments, data cursor, RNG,
/// step count and the installed scheme (the checkpoint bytes), and the
/// gradients a checkpoint leaves out (their bits).
fn state(t: &Trainer) -> (Vec<u8>, Vec<u32>) {
    let params = t.model.params();
    let grads = params.iter().flat_map(|p| p.grad().as_slice());
    (t.checkpoint_bytes(), grads.map(|g| g.to_bits()).collect())
}

/// One run, a step per call: loss bits and the scheme each step trained
/// under, plus the final state.
#[derive(Debug, PartialEq)]
struct Run {
    losses: Vec<u64>,
    schemes: Vec<Vec<LinearPrecision>>,
    state: (Vec<u8>, Vec<u32>),
}

fn run(mut t: Trainer, steps: u64, e: &SnipEngine) -> Run {
    let mut losses = Vec::new();
    let mut schemes = Vec::new();
    for _ in 0..steps {
        losses.push(t.train_with_engine(1, e)[0].to_bits());
        schemes.push(t.model.scheme());
    }
    Run {
        losses,
        schemes,
        state: state(&t),
    }
}

#[test]
fn reruns_repeat_and_schemes_land_on_multiples_of_the_period() {
    let e = engine();
    let a = run(fresh(), STEPS, &e);
    assert_eq!(a, run(fresh(), STEPS, &e), "two runs of one seed differ");

    let mut installed = fresh().model.scheme();
    for (step, scheme) in a.schemes.iter().enumerate() {
        if *scheme != installed {
            assert!(
                e.is_update_due(step as u64),
                "the scheme changed on step {step}, which is not an update step"
            );
            installed = scheme.clone();
        }
    }
    let first = PERIOD as usize;
    assert_ne!(
        a.schemes[first],
        a.schemes[first - 1],
        "the first update left the initial scheme installed"
    );

    // The new scheme governs the update step itself: replaying that step by
    // hand — probe batch drawn, scheme applied, then the step — gives its
    // loss. (A scheme landing one step late would train step 4 in BF16.)
    let mut by_hand = fresh();
    let _ = by_hand.train_with_engine(PERIOD, &e);
    let _probe_batch = by_hand.peek_batch();
    by_hand.model.set_scheme(&a.schemes[first]);
    assert_eq!(by_hand.train_step().to_bits(), a.losses[first]);
}

#[test]
fn pool_split_and_kernel_tier_do_not_move_the_run() {
    let e = engine();
    let want = run(fresh(), STEPS, &e);
    for split in [1, 2, pool::size()] {
        let got = pool::with_threads(split, || run(fresh(), STEPS, &e));
        assert_eq!(got, want, "pool split {split}");
    }
    let got = simd::with_forced_backend(simd::Backend::Scalar, || run(fresh(), STEPS, &e));
    assert_eq!(got, want, "scalar kernel tier");
}

#[test]
fn one_call_of_n_steps_equals_n_calls_of_one() {
    let e = engine();
    let stepwise = run(fresh(), STEPS, &e);
    let mut t = fresh();
    let losses: Vec<u64> = t
        .train_with_engine(STEPS, &e)
        .iter()
        .map(|l| l.to_bits())
        .collect();
    assert_eq!(losses, stepwise.losses);
    assert_eq!(state(&t), stepwise.state);
}

#[test]
fn checkpoint_at_any_step_of_a_period_resumes_bit_exactly() {
    let whole = run(fresh(), STEPS, &engine());
    let dir = std::env::temp_dir().join(format!("snip_adaptive_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join("ckpt.bin");
    // From the step before the first update through the whole next period:
    // saved just before an update step, on one, and at every lag after it.
    for j in PERIOD - 1..=2 * PERIOD {
        let mut t = fresh();
        let head = t.train_with_engine(j, &engine());
        t.save(&path).expect("checkpoint written");
        drop(t);
        let resumed = Trainer::load(&path).expect("checkpoint read");
        let tail = run(resumed, STEPS - j, &engine());
        let losses: Vec<u64> = head
            .iter()
            .map(|l| l.to_bits())
            .chain(tail.losses)
            .collect();
        assert_eq!(losses, whole.losses, "losses after resuming at step {j}");
        assert_eq!(
            tail.schemes.last(),
            whole.schemes.last(),
            "final scheme after resuming at step {j}"
        );
        assert_eq!(
            tail.state, whole.state,
            "final state after resuming at step {j}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
