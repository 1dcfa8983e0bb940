//! Scaling granularities (paper §2.3).
//!
//! The concept has one definition, [`snip_tensor::GroupLayout`] — the group
//! walk quantizers scale by and the scale-vector indexing packed storage
//! decodes by are one order contract, kept in one file. `Granularity` is its
//! name on the quantization side.

pub use snip_tensor::GroupLayout as Granularity;
