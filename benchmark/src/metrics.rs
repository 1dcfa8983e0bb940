//! Every name the benchmark prints, declared once: workloads, end-to-end
//! metrics with their bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root repeats the contract part of this table; a unit test
//! keeps the two in agreement.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub const TRAIN_BF16: &str = "train-bf16";
pub const TRAIN_FP4: &str = "train-fp4";
pub const ADAPTIVE_SNIP: &str = "adaptive-snip";
pub const DP2_SOCKET_FP4: &str = "dp2-socket-fp4";

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        TRAIN_BF16,
        "dense path: matmul/pool, attention, norm, loss and AdamW do the work, packing none; a quantizer change must not move it",
    ),
    (
        TRAIN_FP4,
        "packed subbyte path: qgemm decode plus nearest/stochastic pack on every operand; shows a dense gain that costs the packed kernels",
    ),
    (
        ADAPTIVE_SNIP,
        "the paper's Fig. 6 loop: probe, analyze and ILP beside training on a mixed FP8/FP4 scheme; the only workload with SNIP overhead",
    ),
    (
        DP2_SOCKET_FP4,
        "two worker processes over Unix sockets with an FP4 wire: pack, frame, CRC, socket, decode, reduce; a wire-path gain shows only here",
    ),
];

const ALL: &[&str] = &[TRAIN_BF16, TRAIN_FP4, ADAPTIVE_SNIP, DP2_SOCKET_FP4];
const TRAINERS: &[&str] = &[TRAIN_BF16, TRAIN_FP4, ADAPTIVE_SNIP];

/// An end-to-end metric: what a user of the trainer sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen between two
    /// runs of ONE seed before `--compare` calls it a regression.
    pub bound: f64,
    /// The bound `BENCHMARK.json` carries, for the metrics defined on all
    /// four workloads (the driver's contract wants every listed metric on
    /// every workload); the others are printed and judged by `--compare`
    /// only. The driver compares medians over ten DIFFERENT seeds and first
    /// requires the quartile spread of those ten runs to stay inside the
    /// bound, so this one is sized from seed-to-seed spread (at least three
    /// times the widest seen, at most the contract's 0.25; see the README's
    /// stability table) and is wider than `bound`.
    pub driver_bound: Option<f64>,
    /// Workloads that report it. A metric is never printed as a made-up
    /// value where it has no meaning.
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    /// `bound` on `workload`.
    pub fn bound_on(&self, workload: &str) -> f64 {
        // The engine's worker thread decides on which step a new scheme
        // lands, so one seed's adaptive loss can shift by a step's worth.
        if self.name == "final_loss" && workload == ADAPTIVE_SNIP {
            2.0 * self.bound
        } else {
            self.bound
        }
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "tokens_per_s",
        unit: "tok/s",
        better: Better::Higher,
        bound: 0.07,
        driver_bound: Some(0.25),
        workloads: ALL,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.07,
        driver_bound: Some(0.25),
        workloads: ALL,
    },
    EndToEnd {
        name: "step_ms_p80",
        unit: "ms",
        better: Better::Lower,
        bound: 0.12,
        driver_bound: None,
        workloads: TRAINERS,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        driver_bound: Some(0.25),
        workloads: ALL,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        driver_bound: Some(0.05),
        workloads: ALL,
    },
    EndToEnd {
        name: "linear_cache_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.005,
        driver_bound: None,
        workloads: &[TRAIN_BF16, TRAIN_FP4],
    },
    EndToEnd {
        name: "final_loss",
        unit: "nats",
        better: Better::Lower,
        bound: 0.01,
        driver_bound: Some(0.07),
        workloads: ALL,
    },
    EndToEnd {
        name: "snip_overhead_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
        driver_bound: None,
        workloads: &[ADAPTIVE_SNIP],
    },
    EndToEnd {
        name: "wire_bytes_per_step",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.0,
        driver_bound: None,
        workloads: &[DP2_SOCKET_FP4],
    },
];

/// The one per-layer metric that depends on the workload: the traced
/// replay's parts over its whole steps.
pub const PARTS_OVER_WHOLE: &str = "bench.parts_over_whole";

/// `(name, unit, better)`; layers are the workspace's crates.
pub const PER_LAYER: [(&str, &str, Better); 66] = {
    use Better::{Higher, Lower};
    [
        // snip-tensor
        ("tensor.matmul_attn_ms", "ms", Lower),
        ("tensor.matmul_nt_attn_ms", "ms", Lower),
        ("tensor.matmul_tn_attn_ms", "ms", Lower),
        ("tensor.matmul_ffn_ms", "ms", Lower),
        ("tensor.matmul_nt_ffn_ms", "ms", Lower),
        ("tensor.matmul_tn_ffn_ms", "ms", Lower),
        ("tensor.qgemm_fp4_attn_ms", "ms", Lower),
        ("tensor.qgemm_nt_fp4_attn_ms", "ms", Lower),
        ("tensor.qgemm_tn_fp4_attn_ms", "ms", Lower),
        ("tensor.qgemm_fp4_ffn_ms", "ms", Lower),
        ("tensor.qgemm_nt_fp4_ffn_ms", "ms", Lower),
        ("tensor.qgemm_tn_fp4_ffn_ms", "ms", Lower),
        ("tensor.dequant_fp4_ms", "ms", Lower),
        ("tensor.gemm_gflops", "GFLOP/s", Higher),
        ("tensor.pool_speedup", "ratio", Higher),
        // snip-quant
        ("quant.pack_fp4_nearest_ms", "ms", Lower),
        ("quant.pack_fp4_stochastic_ms", "ms", Lower),
        ("quant.pack_fp8_nearest_ms", "ms", Lower),
        ("quant.pack_fp8_stochastic_ms", "ms", Lower),
        ("quant.pack_fp4_weight_ms", "ms", Lower),
        ("quant.wire_encode_ms", "ms", Lower),
        ("quant.wire_decode_ms", "ms", Lower),
        ("quant.stream_frame_ms", "ms", Lower),
        ("quant.stream_decode_ms", "ms", Lower),
        ("quant.crc32_gbps", "GB/s", Higher),
        // snip-nn
        ("nn.forward_bf16_ms", "ms", Lower),
        ("nn.forward_fp4_ms", "ms", Lower),
        ("nn.fwd_bwd_bf16_ms", "ms", Lower),
        ("nn.fwd_bwd_fp4_ms", "ms", Lower),
        ("nn.backward_bf16_ms", "ms", Lower),
        ("nn.backward_fp4_ms", "ms", Lower),
        ("nn.zero_grads_ms", "ms", Lower),
        ("nn.record_step_ms", "ms", Lower),
        ("nn.gemm_frac_bf16", "ratio", Lower),
        ("nn.gemm_frac_fp4", "ratio", Lower),
        ("nn.quant_frac_bf16", "ratio", Lower),
        ("nn.quant_frac_fp4", "ratio", Lower),
        ("nn.other_frac_bf16", "ratio", Lower),
        ("nn.other_frac_fp4", "ratio", Lower),
        // snip-optim
        ("optim.adamw_f32_ms", "ms", Lower),
        ("optim.adamw_fp8_ms", "ms", Lower),
        ("optim.clip_ms", "ms", Lower),
        ("optim.moment_f32_mb", "MiB", Lower),
        ("optim.moment_fp8_mb", "MiB", Lower),
        // snip-data
        ("data.next_batch_ms", "ms", Lower),
        // snip-ilp
        ("ilp.solve_14_ms", "ms", Lower),
        ("ilp.solve_560_ms", "ms", Lower),
        // snip-core
        ("core.measure_ms", "ms", Lower),
        ("core.measure_over_step", "ratio", Lower),
        ("core.analyze_ms", "ms", Lower),
        ("core.decide_ms", "ms", Lower),
        ("core.apply_scheme_ms", "ms", Lower),
        ("core.update_step_ms", "ms", Lower),
        ("core.try_step_extra_ms", "ms", Lower),
        // snip-pipeline
        ("pipeline.proc_launch_ms", "ms", Lower),
        ("pipeline.allreduce_socket_bf16_ms", "ms", Lower),
        ("pipeline.allreduce_socket_fp4_ms", "ms", Lower),
        ("pipeline.allreduce_channel_bf16_ms", "ms", Lower),
        ("pipeline.allreduce_channel_fp4_ms", "ms", Lower),
        ("pipeline.dp_comm_frac", "ratio", Lower),
        ("pipeline.dp_scaling_eff", "ratio", Higher),
        ("pipeline.payload_bytes_per_step", "bytes", Lower),
        ("pipeline.envelope_bytes_per_step", "bytes", Lower),
        ("pipeline.frames_per_step", "count", Lower),
        // snip-obs, and the harness's own check
        ("obs.trace_overhead_frac", "ratio", Lower),
        (PARTS_OVER_WHOLE, "ratio", Higher),
    ]
};

/// One measured value on its way to the output.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// In-run relative spread of the samples behind `value` (0 for counts).
    pub spread: f64,
}

impl Measured {
    pub fn new(name: &'static str, value: f64) -> Self {
        Measured {
            name,
            value,
            spread: 0.0,
        }
    }

    pub fn with_spread(name: &'static str, value: f64, spread: f64) -> Self {
        Measured {
            name,
            value,
            spread,
        }
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of a declared metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name).map(|m| m.unit).or_else(|| {
        PER_LAYER
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(_, unit, _)| *unit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use serde::Content;

    fn contract() -> Content {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str::<Json>(&text).expect("valid JSON").0
    }

    fn rows(c: &Content, key: &str) -> Vec<Content> {
        match c.get(key) {
            Some(Content::Seq(v)) => v.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_contract() {
        let c = contract();
        let workloads: Vec<String> = rows(&c, "workloads")
            .iter()
            .map(|w| json::str_field(w, "name").unwrap())
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
        for (w, (_, why)) in rows(&c, "workloads").iter().zip(WORKLOADS) {
            assert_eq!(json::str_field(w, "why").unwrap(), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let declared: Vec<(&EndToEnd, f64)> = END_TO_END
            .iter()
            .filter_map(|m| Some((m, m.driver_bound?)))
            .collect();
        let listed = rows(&c, "end_to_end");
        assert_eq!(listed.len(), declared.len(), "end_to_end length");
        for (row, (m, driver_bound)) in listed.iter().zip(&declared) {
            assert_eq!(json::str_field(row, "name").unwrap(), m.name);
            assert_eq!(json::str_field(row, "unit").unwrap(), m.unit);
            assert_eq!(json::str_field(row, "better").unwrap(), m.better.as_str());
            assert_eq!(
                json::num_field(row, "bound").unwrap(),
                *driver_bound,
                "{}",
                m.name
            );
            assert!(m.bound <= *driver_bound && *driver_bound <= 0.25);
            // The driver runs every listed metric on every workload.
            assert_eq!(m.workloads.len(), WORKLOADS.len(), "{}", m.name);
        }
        assert!(declared
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert_eq!(
            json::num_field(&c, "run_seconds"),
            Some(crate::workloads::NOMINAL_SECONDS)
        );

        let listed = rows(&c, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len(), "per_layer length");
        for (row, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(json::str_field(row, "name").unwrap(), name);
            assert_eq!(json::str_field(row, "unit").unwrap(), unit);
            assert_eq!(json::str_field(row, "better").unwrap(), better.as_str());
        }
    }

    #[test]
    fn final_loss_bound_is_doubled_on_the_adaptive_workload_only() {
        let loss = end_to_end("final_loss").unwrap();
        assert_eq!(loss.bound_on(TRAIN_FP4), 0.01);
        assert_eq!(loss.bound_on(ADAPTIVE_SNIP), 0.02);
        let p50 = end_to_end("step_ms_p50").unwrap();
        assert_eq!(p50.bound_on(ADAPTIVE_SNIP), p50.bound_on(TRAIN_FP4));
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| (*n, "count"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)));
        for (name, unit) in names {
            assert!(ok_name(name), "name {name}");
            assert!(ok_unit(unit), "unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }
}
