//! Scaling granularities (paper §2.3) — the one definition in the
//! workspace (`snip-quant` names the enum `Granularity`).
//!
//! Low-precision formats have a narrow dynamic range, so tensors are scaled
//! group-by-group such that each group's maximum magnitude maps to the
//! format's maximum representable value:
//!
//! ```text
//! scale = FPX_MAX / max(abs(group))
//! y     = Quant(x * scale) / scale
//! ```
//!
//! The paper follows DeepSeek-V3: **1×128 tile-wise** scaling for activations
//! and gradients, **128×128 block-wise** scaling for weights.
//!
//! [`GroupLayout`] is both halves of the concept: the *walk* quantizers
//! scale by ([`GroupLayout::for_each_group`]) and the *index arithmetic*
//! packed storage decodes by ([`GroupLayout::group_index`]). They define one
//! group order, which is why they live side by side.

use serde::{Deserialize, Serialize};

/// How scaling factors are assigned to regions of a tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupLayout {
    /// One scale for the whole tensor.
    Tensorwise,
    /// One scale per row.
    Rowwise,
    /// One scale per column.
    Columnwise,
    /// One scale per `nb × nb` block (paper: 128×128 for weights).
    Block {
        /// Block side length.
        nb: usize,
    },
    /// One scale per `1 × nb` tile within each row (paper: 1×128 for
    /// activations and gradients).
    Tile {
        /// Tile length along the row.
        nb: usize,
    },
}

impl GroupLayout {
    /// Number of scale groups for a `rows × cols` tensor (0 when empty).
    /// This is also the memory overhead of storing scales.
    pub fn group_count(&self, rows: usize, cols: usize) -> usize {
        if rows == 0 || cols == 0 {
            return 0;
        }
        match *self {
            GroupLayout::Tensorwise => 1,
            GroupLayout::Rowwise => rows,
            GroupLayout::Columnwise => cols,
            GroupLayout::Block { nb } => rows.div_ceil(nb) * cols.div_ceil(nb),
            GroupLayout::Tile { nb } => rows * cols.div_ceil(nb),
        }
    }

    /// Visits every scale group of a `rows × cols` tensor as a
    /// `(row_range, col_range)` rectangle, in scale-vector order: the
    /// `i`-th rectangle visited is the group [`GroupLayout::group_index`]
    /// numbers `i`, and [`GroupLayout::group_count`] rectangles are visited
    /// (none for an empty tensor).
    pub fn for_each_group(
        &self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(std::ops::Range<usize>, std::ops::Range<usize>),
    ) {
        if rows == 0 || cols == 0 {
            return;
        }
        match *self {
            GroupLayout::Tensorwise => f(0..rows, 0..cols),
            GroupLayout::Rowwise => {
                for r in 0..rows {
                    f(r..r + 1, 0..cols);
                }
            }
            GroupLayout::Columnwise => {
                for c in 0..cols {
                    f(0..rows, c..c + 1);
                }
            }
            GroupLayout::Block { nb } => {
                assert!(nb > 0, "block size must be positive");
                let mut r = 0;
                while r < rows {
                    let re = (r + nb).min(rows);
                    let mut c = 0;
                    while c < cols {
                        let ce = (c + nb).min(cols);
                        f(r..re, c..ce);
                        c = ce;
                    }
                    r = re;
                }
            }
            GroupLayout::Tile { nb } => {
                assert!(nb > 0, "tile size must be positive");
                for r in 0..rows {
                    let mut c = 0;
                    while c < cols {
                        let ce = (c + nb).min(cols);
                        f(r..r + 1, c..ce);
                        c = ce;
                    }
                }
            }
        }
    }

    /// The scaling factor for one group: `grid_max / max|group|`, with an
    /// identity fallback for all-zero or non-finite groups.
    ///
    /// Every quantization path — fake (float and int) and packed — must use
    /// this one definition: the packed↔fake bit-identity contract depends
    /// on the scale expression never drifting between them.
    #[inline]
    pub fn group_scale(grid_max: f32, max_abs: f32) -> f32 {
        if max_abs > 0.0 && max_abs.is_finite() {
            grid_max / max_abs
        } else {
            1.0
        }
    }

    /// Scale groups per row-band of columns (the stride between consecutive
    /// row groups in the scale vector). Public so telemetry (`snip-quant`'s
    /// pack-signal extraction) can map elements to their scale group.
    pub fn col_groups(&self, cols: usize) -> usize {
        match *self {
            GroupLayout::Tensorwise | GroupLayout::Rowwise => 1,
            GroupLayout::Columnwise => cols,
            GroupLayout::Block { nb } | GroupLayout::Tile { nb } => cols.div_ceil(nb),
        }
    }

    /// Index into the scale vector for element `(r, c)` — the position of
    /// its group in [`GroupLayout::for_each_group`]'s visiting order.
    /// `col_groups` must come from [`GroupLayout::col_groups`] for the same
    /// `cols`.
    #[inline]
    pub fn group_index(&self, r: usize, c: usize, col_groups: usize) -> usize {
        match *self {
            GroupLayout::Tensorwise => 0,
            GroupLayout::Rowwise => r,
            GroupLayout::Columnwise => c,
            GroupLayout::Block { nb } => (r / nb) * col_groups + c / nb,
            GroupLayout::Tile { nb } => r * col_groups + c / nb,
        }
    }

    /// Length of the run of columns starting at `c` that shares one scale.
    #[inline]
    pub(crate) fn run_len(&self, c: usize, cols: usize) -> usize {
        match *self {
            GroupLayout::Tensorwise | GroupLayout::Rowwise => cols - c,
            GroupLayout::Columnwise => 1,
            GroupLayout::Block { nb } | GroupLayout::Tile { nb } => (nb - c % nb).min(cols - c),
        }
    }
}

impl std::fmt::Display for GroupLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GroupLayout::Tensorwise => write!(f, "tensorwise"),
            GroupLayout::Rowwise => write!(f, "rowwise"),
            GroupLayout::Columnwise => write!(f, "columnwise"),
            GroupLayout::Block { nb } => write!(f, "{nb}x{nb} blockwise"),
            GroupLayout::Tile { nb } => write!(f, "1x{nb} tilewise"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYOUTS: [GroupLayout; 5] = [
        GroupLayout::Tensorwise,
        GroupLayout::Rowwise,
        GroupLayout::Columnwise,
        GroupLayout::Block { nb: 3 },
        GroupLayout::Tile { nb: 3 },
    ];

    fn collect_groups(
        g: GroupLayout,
        rows: usize,
        cols: usize,
    ) -> Vec<(usize, usize, usize, usize)> {
        let mut v = Vec::new();
        g.for_each_group(rows, cols, |rr, cr| {
            v.push((rr.start, rr.end, cr.start, cr.end))
        });
        v
    }

    #[test]
    fn group_counts() {
        assert_eq!(GroupLayout::Tensorwise.group_count(10, 20), 1);
        assert_eq!(GroupLayout::Rowwise.group_count(10, 20), 10);
        assert_eq!(GroupLayout::Columnwise.group_count(10, 20), 20);
        assert_eq!(GroupLayout::Block { nb: 8 }.group_count(10, 20), 2 * 3);
        assert_eq!(GroupLayout::Tile { nb: 8 }.group_count(10, 20), 10 * 3);
        // The paper's (DeepSeek-V3) weight blocks on a big tensor
        assert_eq!(
            GroupLayout::Block { nb: 128 }.group_count(4096, 4096),
            32 * 32
        );
    }

    /// The walk covers every element once, and the `i`-th group it visits
    /// is the one `group_index` numbers `i` — the order contract between
    /// quantizers (which fill the scale vector by walking) and packed
    /// storage (which reads it by index).
    #[test]
    fn groups_partition_the_tensor() {
        for g in LAYOUTS {
            let (rows, cols) = (5, 7);
            let cg = g.col_groups(cols);
            let mut covered = vec![0u8; rows * cols];
            let mut visited = 0;
            g.for_each_group(rows, cols, |rr, cr| {
                for r in rr {
                    for c in cr.clone() {
                        covered[r * cols + c] += 1;
                        assert_eq!(g.group_index(r, c, cg), visited, "{g} at ({r},{c})");
                    }
                }
                visited += 1;
            });
            assert!(covered.iter().all(|&x| x == 1), "{g}: {covered:?}");
            assert_eq!(visited, g.group_count(rows, cols));
        }
    }

    #[test]
    fn degenerate_shapes() {
        // An empty tensor has no scale groups, under every layout: the
        // count and the walk must agree, or a packer sizes its scale vector
        // for groups it never fills.
        for g in LAYOUTS {
            for (rows, cols) in [(0, 0), (0, 5), (5, 0)] {
                let visited = collect_groups(g, rows, cols).len();
                assert_eq!(visited, 0, "{g} on {rows}x{cols}");
                assert_eq!(g.group_count(rows, cols), visited, "{g} on {rows}x{cols}");
            }
        }
        // Tile larger than the row degrades to rowwise.
        assert_eq!(
            collect_groups(GroupLayout::Tile { nb: 128 }, 3, 7),
            collect_groups(GroupLayout::Rowwise, 3, 7)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(GroupLayout::Tile { nb: 128 }.to_string(), "1x128 tilewise");
        assert_eq!(
            GroupLayout::Block { nb: 128 }.to_string(),
            "128x128 blockwise"
        );
    }
}
