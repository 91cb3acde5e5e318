use prose_core::tuner::PerfScope;
use prose_interp::{run_program, RunConfig};
use prose_models::*;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    for spec in all_models(ModelSize::Small) {
        if !which.is_empty() && spec.name != which {
            continue;
        }
        let m = match spec.load() {
            Ok(m) => m,
            Err(e) => {
                println!("{}: LOAD ERR {e}", spec.name);
                continue;
            }
        };
        println!("=== {} : {} atoms ===", spec.name, m.atoms.len());
        match run_program(&m.program, &m.index, &RunConfig::default()) {
            Ok(out) => {
                println!(
                    "baseline total={:.0} events={}",
                    out.total_cycles, out.events
                );
                let mut rows: Vec<_> = out
                    .timers
                    .iter()
                    .map(|(p, t)| (p.to_string(), t.cycles, t.calls))
                    .collect();
                rows.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (p, c, n) in rows.iter().take(12) {
                    println!(
                        "  {:40} {:>12.0} cyc {:>8} calls ({:.1}%)",
                        p,
                        c,
                        n,
                        100.0 * c / out.total_cycles
                    );
                }
                let hs: f64 = spec
                    .target_procs
                    .iter()
                    .filter_map(|p| out.timers.get(p))
                    .map(|t| t.cycles)
                    .sum();
                println!("  hotspot share = {:.1}%", 100.0 * hs / out.total_cycles);
                for (k, v) in &out.records.scalars {
                    let preview: Vec<_> = v.iter().take(6).map(|x| format!("{x:.4}")).collect();
                    println!("  rec {}: {:?}...", k, preview);
                }
                // uniform 32
                let task = m.task(PerfScope::Hotspot, 1).unwrap();
                let mut eval = prose_core::DynamicEvaluator::new(&task).unwrap();
                let rec = eval.eval_one(&vec![true; m.atoms.len()]);
                println!(
                    "  uniform32: {:?} err={:.3e} detail={:?}",
                    rec.outcome.status, rec.outcome.error, rec.detail
                );
                println!("  uniform32 hotspot speedup = {:.2}", rec.outcome.speedup);
                let taskw = m.task(PerfScope::WholeModel, 1).unwrap();
                let mut evalw = prose_core::DynamicEvaluator::new(&taskw).unwrap();
                let recw = evalw.eval_one(&vec![true; m.atoms.len()]);
                println!(
                    "  uniform32 whole-model speedup = {:.2} ({:?})",
                    recw.outcome.speedup, recw.outcome.status
                );
            }
            Err(e) => println!("baseline ERR: {e}"),
        }
    }
}
