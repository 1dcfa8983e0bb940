//! A checkpoint streams: saving and loading hold the trainer and one stage
//! buffer, never a copy of the state.
//!
//! Its own test binary, because it counts with the shared counting
//! allocator (`support/counting.rs`: live heap bytes of every thread and
//! their high-water mark). A trainer above the arena floor (hidden 256 ×
//! 2 blocks, FFN 1024, vocab 512: 2.4 M parameters, 9 MiB of values) takes
//! one step, with f32 and with packed FP8 moments. `Trainer::save`'s
//! high-water mark may exceed what was live before it — the trainer — by
//! one [`STAGE_BYTES`] buffer plus [`SLACK`]; `Trainer::load`'s may exceed
//! what is live after it — the loaded trainer — by the same. A save that
//! built the file in memory first would hold a second copy of the state,
//! 27 MiB at this shape with f32 moments. Run with `--nocapture` to see the marks.

use snip_core::{Trainer, TrainerConfig};
use snip_nn::ModelConfig;
use snip_optim::MomentPrecision;
use snip_quant::wire::STAGE_BYTES;

#[path = "support/counting.rs"]
mod counting;

use counting::{high_water, live, mib};

/// Bytes `save` and `load` may hold beyond the trainer and the stage
/// buffer: 64 KiB for the file and reader buffers, the embedded
/// configuration and allocator noise.
const SLACK: usize = 64 * 1024;

fn trainer(moments: MomentPrecision) -> Trainer {
    let mut cfg = TrainerConfig::tiny().with_moment_precision(moments);
    cfg.model = ModelConfig {
        name: "wide-256x2".into(),
        vocab_size: 512,
        hidden: 256,
        n_layers: 2,
        n_heads: 4,
        ffn_hidden: 1024,
        max_seq: 64,
        rope_theta: 10_000.0,
        quant_group: 128,
    };
    (cfg.batch_size, cfg.seq_len) = (4, 64);
    let mut t = Trainer::new(cfg).expect("valid config");
    t.train_step();
    t
}

/// One test, so no other test's thread allocates while the marks are taken.
#[test]
fn save_and_load_hold_the_trainer_and_one_stage_buffer() {
    let dir = std::env::temp_dir().join(format!("snip_ckpt_memory_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join("ckpt.bin");
    for moments in [MomentPrecision::F32, MomentPrecision::PackedFp8] {
        let t = trainer(moments);
        let before = live();
        let (saved, written) = high_water(|| t.save(&path));
        written.expect("checkpoint written");
        let state = std::fs::metadata(&path).expect("checkpoint").len() as usize;
        drop(t);

        let (loaded, t) = high_water(|| Trainer::load(&path));
        let t = t.expect("checkpoint read");
        let after = live();
        let bound = STAGE_BYTES + SLACK;
        println!(
            "{moments:?}: file {:.2} MiB; save +{:.3} MiB over the trainer, load +{:.3} MiB \
             over the loaded trainer; bound +{:.3}",
            mib(state),
            mib(saved - before),
            mib(loaded.saturating_sub(after)),
            mib(bound)
        );
        assert!(
            saved <= before + bound,
            "{moments:?}: save held {} B beyond the trainer; at most {bound}",
            saved - before
        );
        assert!(
            loaded <= after + bound,
            "{moments:?}: load held {} B beyond the loaded trainer; at most {bound}",
            loaded - after
        );
        // Every tensor here spans many stage buffers: the state read back
        // is the state written.
        assert!(t.checkpoint_bytes() == std::fs::read(&path).expect("checkpoint"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
