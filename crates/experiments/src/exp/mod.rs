//! The experiments and their registry: one module per name, each exposing
//! `run(&Ctx)` and printing its tables to stdout, and one table of (name,
//! paper artefact, `fn`) in the order a full sweep runs them — cheap
//! tensor-level tables first, then the resume experiments grouped by the
//! checkpoints they share.

use crate::harness::Ctx;

/// One registered experiment.
pub struct Experiment {
    /// The name `snip-exp <name>` dispatches on.
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub artefact: &'static str,
    /// Runs it, printing its tables to stdout.
    pub run: fn(&Ctx),
}

macro_rules! registry {
    ($($name:ident: $artefact:literal,)*) => {
        $(pub mod $name;)*

        /// Every experiment, in sweep order.
        pub const REGISTRY: &[Experiment] = &[
            $(Experiment {
                name: stringify!($name),
                artefact: $artefact,
                run: $name::run,
            },)*
        ];
    };
}

registry! {
    memory_overhead: "the §6.1 / §2.2 / §6.3 memory claims",
    comm_precision: "§2.2 future work: low-precision reduce-scatter, error + bytes",
    sanity_dynamics: "no paper artefact: the premise check (FP8 ≈ BF16, FP4 hurts, SNIP ≈ FP8)",
    sanity_maturity: "no paper artefact: checkpoint depth where the FP4 contrast clears noise",
    fig7_precision_maps: "Fig. 7 (per-layer maps at 25/50/75 %)",
    fig10_sensitivity_heatmap: "Fig. 10 (layer × type sensitivity)",
    fig11_scheme_evolution: "Fig. 11 (scheme across checkpoints)",
    fig12_pipeline_timeline: "Fig. 12 (1F1B timeline, stage-balanced ILP)",
    fig13_estimation_validation: "Fig. 13 (estimated vs true loss impact)",
    ablation_quality_metric: "§5.1 ablation (ΔL, ΔW, ΔL + ΔW)",
    ablation_rht: "§5.2 quantization-option families",
    ablation_pipeline_balance: "§5.3 / Fig. 12 balancing-policy ablation",
    fig3_accuracy_vs_efficiency: "Fig. 3 (accuracy vs FP4 FLOP share, SNIP vs five baselines)",
    table1_benchmark_accuracy: "Table 1",
    baselines_extended: "related-work baselines on the Fig. 3 axes (§1, §7)",
    table2_checkpoints_models: "Table 2",
    fig8_loss_curves: "Fig. 8 (from-scratch loss curves at 75 %)",
    fig9_70b_loss_diff: "Fig. 9 (80-block loss difference vs BF16)",
    table3_70b_accuracy: "Table 3",
}

/// The experiments `name` selects: that one, or every entry in registry
/// order when no name is given (the CI sweep).
///
/// # Errors
///
/// A message for a name that is not in the registry.
pub fn select(name: Option<&str>) -> Result<Vec<&'static Experiment>, String> {
    match name {
        None => Ok(REGISTRY.iter().collect()),
        Some(name) => REGISTRY
            .iter()
            .find(|e| e.name == name)
            .map(|e| vec![e])
            .ok_or_else(|| format!("unknown experiment {name:?}")),
    }
}

/// Runs `selected` in order (a banner line before each when there are
/// several).
///
/// # Errors
///
/// After the runs, any ILP solve that returned an unproven incumbent
/// (`snip.solve_unproven`): such a scheme depends on how fast the machine
/// is, so the printed tables are not reproducible.
pub fn run(selected: &[&Experiment], ctx: &Ctx) -> Result<(), String> {
    for (i, e) in selected.iter().enumerate() {
        if selected.len() > 1 {
            let gap = if i == 0 { "" } else { "\n" };
            println!("{gap}==== {} — {} ====", e.name, e.artefact);
        }
        (e.run)(ctx);
    }
    match snip_obs::counter_value("snip.solve_unproven") {
        0 => Ok(()),
        n => Err(format!(
            "{n} ILP solve(s) hit the time limit before proving optimality"
        )),
    }
}

/// The usage text: the command line and one line per experiment.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: snip-exp [<name>] [--quick] [--transport threads|process] \
         [--chaos <seed>]\n\nwith no name, runs every experiment in this order:\n",
    );
    for e in REGISTRY {
        out.push_str(&format!("  {:<30} {}\n", e.name, e.artefact));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ROADMAP 8(j) inventory minus `obs_smoke` (the crate's second
    /// binary).
    #[test]
    fn registry_is_the_roadmap_inventory() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let mut expected = vec![
            "ablation_pipeline_balance",
            "ablation_quality_metric",
            "ablation_rht",
            "baselines_extended",
            "comm_precision",
            "fig10_sensitivity_heatmap",
            "fig11_scheme_evolution",
            "fig12_pipeline_timeline",
            "fig13_estimation_validation",
            "fig3_accuracy_vs_efficiency",
            "fig7_precision_maps",
            "fig8_loss_curves",
            "fig9_70b_loss_diff",
            "memory_overhead",
            "sanity_dynamics",
            "sanity_maturity",
            "table1_benchmark_accuracy",
            "table2_checkpoints_models",
            "table3_70b_accuracy",
        ];
        expected.sort_unstable();
        assert_eq!(names, expected, "19 unique names");
    }

    #[test]
    fn unknown_names_are_errors_and_usage_lists_every_name() {
        assert!(select(Some("fig3")).is_err());
        assert_eq!(select(Some("fig8_loss_curves")).unwrap().len(), 1);
        assert_eq!(select(None).unwrap().len(), REGISTRY.len());
        let usage = usage();
        assert!(REGISTRY.iter().all(|e| usage.contains(e.name)));
    }
}
