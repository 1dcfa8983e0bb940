//! Partitioning transformer blocks into pipeline stages.

use snip_ilp::contiguous_stages;
use snip_nn::{LayerId, LayerKind};

/// A contiguous range of transformer blocks assigned to one pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePartition {
    /// `ranges[k]` = the block range `[start, end)` of stage `k`.
    ranges: Vec<(usize, usize)>,
}

impl StagePartition {
    /// Evenly partitions `n_blocks` into `n_stages` contiguous stages. Early
    /// stages take `ceil(n/k)` blocks; the final stage takes the remainder —
    /// e.g. TinyLlama's 22 blocks over 4 stages become `[6, 6, 6, 4]`, the
    /// layout paper Fig. 12 describes.
    ///
    /// The assignment rule is `snip_ilp::contiguous_stages` — the one the
    /// stage-aware ILP constrains by.
    ///
    /// # Panics
    ///
    /// Panics if `n_stages` is zero or exceeds `n_blocks`.
    pub fn even(n_blocks: usize, n_stages: usize) -> Self {
        assert!(n_stages <= n_blocks, "more stages than blocks");
        let stage_of = contiguous_stages(n_blocks, n_stages);
        let ranges = (0..n_stages)
            .map(|k| {
                let start = stage_of.partition_point(|&s| s < k);
                (start, stage_of.partition_point(|&s| s <= k))
            })
            .collect();
        StagePartition { ranges }
    }

    /// Number of stages.
    pub(crate) fn n_stages(&self) -> usize {
        self.ranges.len()
    }

    /// Block range of stage `k`.
    pub(crate) fn blocks(&self, k: usize) -> std::ops::Range<usize> {
        self.ranges[k].0..self.ranges[k].1
    }

    /// Linear-layer ids owned by stage `k`.
    pub fn linears(&self, k: usize) -> Vec<LayerId> {
        self.blocks(k)
            .flat_map(|b| {
                LayerKind::ALL
                    .iter()
                    .map(move |&kind| LayerId::new(b, kind))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tinyllama_partition_matches_paper() {
        // Paper Fig. 12: 22 layers over 4 stages = 6/6/6/4.
        let p = StagePartition::even(22, 4);
        assert_eq!(p.blocks(0), 0..6);
        assert_eq!(p.blocks(1), 6..12);
        assert_eq!(p.blocks(2), 12..18);
        assert_eq!(p.blocks(3), 18..22);
    }

    #[test]
    fn stage_of_block_round_trips() {
        // Every block lies in exactly one stage's range.
        let p = StagePartition::even(22, 4);
        for b in 0..22 {
            let owners: Vec<usize> = (0..p.n_stages())
                .filter(|&s| p.blocks(s).contains(&b))
                .collect();
            assert_eq!(owners.len(), 1, "block {b} owned by stages {owners:?}");
        }
    }

    #[test]
    fn partition_is_the_ilp_stage_rule() {
        // The stages' block ranges, read back as a block → stage map, tile
        // the blocks in order and are exactly the ILP's assignment.
        for n in 1..=24 {
            for k in 1..=n {
                let p = StagePartition::even(n, k);
                assert_eq!(p.n_stages(), k);
                let by_partition: Vec<usize> =
                    (0..k).flat_map(|s| p.blocks(s).map(move |_| s)).collect();
                assert_eq!(
                    by_partition,
                    contiguous_stages(n, k),
                    "{n} blocks / {k} stages"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "more stages than blocks")]
    fn too_many_stages_rejected() {
        let _ = StagePartition::even(2, 3);
    }
}
