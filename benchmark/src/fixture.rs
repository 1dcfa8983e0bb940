//! The one model and data shape every workload and every layer timing uses,
//! and how `--seed` turns into the program's inputs.

use snip_core::TrainerConfig;
use snip_nn::ModelConfig;
use snip_optim::{AdamWConfig, LrSchedule, MomentPrecision};

/// Model, batch shape and optimizer settings of a run.
#[derive(Clone, Debug)]
pub struct Fixture {
    pub model: ModelConfig,
    pub batch: usize,
    pub seq: usize,
    pub lr: f64,
    /// Side of the square tensor the wire-codec timings pack.
    pub wire_side: usize,
    /// Elements per rank in the stand-alone all-reduce timings.
    pub allreduce_len: usize,
}

impl Fixture {
    /// ≈15 M parameters, 14 linear layers. With 4 × 64 = 256 tokens per step
    /// its GEMMs are the `256x768x768` / `256x2048x768` shapes
    /// `BENCH_gemm.json` times, so layer shares reconcile with that file.
    pub fn full() -> Self {
        Fixture {
            model: ModelConfig {
                name: "bench-768x2".into(),
                vocab_size: 512,
                hidden: 768,
                n_layers: 2,
                n_heads: 12,
                ffn_hidden: 2048,
                max_seq: 64,
                rope_theta: 10_000.0,
                quant_group: 128,
            },
            batch: 4,
            seq: 64,
            lr: 3e-4,
            wire_side: 1024,
            allreduce_len: 4 << 20,
        }
    }

    /// `ModelConfig::tiny_test()` shapes: the same code paths in well under
    /// a second, for the smoke test.
    pub fn smoke() -> Self {
        Fixture {
            model: ModelConfig::tiny_test(),
            batch: 2,
            seq: 16,
            lr: 3e-3,
            wire_side: 64,
            allreduce_len: 4 << 10,
        }
    }

    /// Tokens one rank processes per step.
    pub fn tokens(&self) -> usize {
        self.batch * self.seq
    }

    pub fn adamw(&self, moments: MomentPrecision) -> AdamWConfig {
        AdamWConfig {
            lr: self.lr,
            moments,
            ..Default::default()
        }
    }

    pub fn trainer_config(&self, init_seed: u64, data_seed: u64) -> TrainerConfig {
        TrainerConfig {
            model: self.model.clone(),
            adamw: self.adamw(MomentPrecision::F32),
            schedule: LrSchedule::Constant { lr: self.lr },
            batch_size: self.batch,
            seq_len: self.seq,
            grad_clip: Some(GRAD_CLIP),
            data_seed,
            init_seed,
            language: Default::default(),
        }
    }
}

pub const GRAD_CLIP: f64 = 1.0;

/// The three seeds a run derives from `--seed`; the program under test sees
/// only inputs generated from these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    pub init: u64,
    pub data: u64,
    pub comm: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        Seeds {
            init: mix(seed, 1),
            data: mix(seed, 2),
            comm: mix(seed, 3),
        }
    }
}

/// splitmix64 finalizer over `(seed, stream)`: nearby `--seed` values give
/// unrelated streams.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_repeat_and_differ() {
        assert_eq!(Seeds::derive(7), Seeds::derive(7));
        let (a, b) = (Seeds::derive(0), Seeds::derive(1));
        assert!(a.init != b.init && a.data != b.data && a.comm != b.comm);
        assert!(a.init != a.data && a.data != a.comm);
    }

    #[test]
    fn fixtures_validate() {
        for fx in [Fixture::full(), Fixture::smoke()] {
            fx.model.validate().unwrap();
            assert!(fx.seq <= fx.model.max_seq);
        }
        assert_eq!(Fixture::full().tokens(), 256);
        assert_eq!(Fixture::full().model.n_linear_layers(), 14);
    }
}
