//! Quickstart: simulate a small datacenter estate, run the headline
//! analyses, print the findings.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use dcfail::analysis::{interfailure, rates, recurrence, repair};
use dcfail::model::prelude::*;
use dcfail::synth::Scenario;

fn main() {
    // 1. Simulate one observation year at 10% of the paper's population.
    let dataset = Scenario::paper().seed(42).scale(0.1).build().into_dataset();
    println!(
        "simulated {} machines, {} incidents, {} crash events, {} tickets\n",
        dataset.machines().len(),
        dataset.incidents().len(),
        dataset.events().len(),
        dataset.tickets().len()
    );

    // 2. Who fails more — PMs or VMs? (paper: PMs, by ~40%)
    let (pm, vm) = rates::weekly_failure_rates(&dataset)
        .estate()
        .expect("the paper scenario has PM and VM failures");
    println!(
        "weekly failure rate: PM {:.4} vs VM {:.4}  (PM/VM = {:.2}x)",
        pm.mean,
        vm.mean,
        pm.mean / vm.mean
    );

    // 3. Are failures memoryless? (paper: recurrent ≈ 35–42× random)
    let t5 = recurrence::table5(&dataset);
    if let (Some(pm), Some(vm)) = (t5.pm[0], t5.vm[0]) {
        println!(
            "recurrent vs random (weekly): PM {:.2}/{:.4} = {:.0}x, VM {:.2}/{:.4} = {:.0}x",
            pm.recurrent,
            pm.random,
            pm.ratio().unwrap_or(0.0),
            vm.recurrent,
            vm.random,
            vm.ratio().unwrap_or(0.0)
        );
    }

    // 4. How long do repairs take? (paper: 38.5 h PM vs 19.6 h VM)
    for kind in MachineKind::ALL {
        if let Some(r) = repair::analyze(&dataset, kind) {
            println!(
                "{kind} repairs: mean {:.1} h, best fit {} ({})",
                r.mean_hours,
                r.fits.best().dist.family(),
                r.fits.best().dist.params()
            );
        }
    }

    // 5. Inter-failure times and their distribution.
    for kind in MachineKind::ALL {
        if let Some(a) = interfailure::analyze(&dataset, kind) {
            println!(
                "{kind} inter-failure: mean {:.1} d over {} gaps, best fit {}",
                a.mean_days,
                a.gaps_days.len(),
                a.fits.best().dist.family()
            );
        }
    }
}
