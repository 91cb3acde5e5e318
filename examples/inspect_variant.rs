//! Inspect the anatomy of a single mixed-precision variant: the
//! transformation (declaration rewrites + synthesized wrappers), the flow-
//! graph invariant, the static cost estimate, and the dynamic measurement —
//! on the mini-MOM6 "variant 58" scenario from Section IV-B, where
//! `zonal_mass_flux` keeps its large arrays in 64-bit while its callees run
//! in 32-bit and casting eats the run.
//!
//! Run: `cargo run --release --example inspect_variant`

use prose::analysis::flow::FpFlowGraph;
use prose::analysis::static_cost::static_penalty;
use prose::core::tuner::PerfScope;
use prose::core::DynamicEvaluator;
use prose::fortran::PrecisionMap;
use prose::models::{mom6, ModelSize};

fn main() {
    let model = mom6::mom6(ModelSize::Small)
        .load()
        .expect("mini-MOM6 loads");
    let task = model.task(PerfScope::Hotspot, 58).unwrap();
    let mut eval = DynamicEvaluator::new(&task).expect("baseline runs");

    // Variant 58's shape: zonal_mass_flux stays 64-bit, its callees
    // (ppm_reconstruction, ppm_limit_pos, the adjusters, row_transport)
    // go 32-bit.
    let keep_f64 = "zonal_mass_flux";
    let config: Vec<bool> = model
        .atoms
        .iter()
        .map(|a| {
            let scope = model
                .index
                .scope_info(model.index.fp_var(*a).scope)
                .name
                .clone();
            scope != keep_f64 && scope != "continuity_ppm" && scope != "merid_mass_flux"
        })
        .collect();
    let lowered = config.iter().filter(|b| **b).count();
    println!(
        "variant: {} of {} atoms lowered (callees 32-bit, flux assemblers 64-bit)",
        lowered,
        config.len()
    );

    // Static view: the flow graph shows the mismatched parameter-passing
    // edges, and the cost model prices them (calls x elements).
    let map = {
        let mut m = PrecisionMap::declared(&model.index);
        for (i, low) in config.iter().enumerate() {
            if *low {
                m.set(model.atoms[i], prose::fortran::ast::FpPrecision::Single);
            }
        }
        m
    };
    let graph = FpFlowGraph::build(&model.program, &model.index);
    let mismatches = graph.mismatches(&model.index, &map);
    println!(
        "\nflow graph: {} call sites, {} precision-mismatched edges",
        graph.sites().len(),
        mismatches.len()
    );
    for m in mismatches.iter().take(8) {
        let site = &graph.sites()[m.site];
        println!(
            "  {} -> {} arg #{} `{}` ({} -> {} bit{})",
            model.index.scope_info(site.caller).name,
            site.callee,
            m.arg_index + 1,
            m.param,
            m.caller_precision.kind() as u32 * 8,
            m.callee_precision.kind() as u32 * 8,
            if m.is_array { ", array" } else { "" }
        );
    }
    println!(
        "static casting penalty estimate: {:.0} cycle units",
        static_penalty(&graph, &model.index, &map)
    );

    // Transform: see the wrappers that repair those edges.
    let variant =
        prose::transform::make_variant(&model.program, &model.index, &map).expect("transforms");
    println!("\nsynthesized wrappers: {:?}", variant.wrappers);
    let g2 = FpFlowGraph::build(&variant.program, &variant.index);
    let clean = g2.invariant_holds(&variant.index, &PrecisionMap::declared(&variant.index));
    println!("post-transform flow invariant holds: {clean}");

    // Dynamic view: measure it.
    let rec = eval.eval_one(&config);
    println!(
        "\ndynamic evaluation: {:?}, hotspot speedup {:.2}x, error {:.2e}",
        rec.outcome.status, rec.outcome.speedup, rec.outcome.error
    );
    if let Some(total) = rec.total_cycles {
        let extra = (total - eval.baseline.total_cycles).max(0.0);
        println!(
            "whole-model cycles {:.0} vs baseline {:.0}: {:.0}% of the run is overhead
             (array casting at every wrapped call plus the devectorized flux loops)",
            total,
            eval.baseline.total_cycles,
            100.0 * extra / total
        );
    }
    if let Some(detail) = &rec.detail {
        println!("detail: {detail}");
    }
}
