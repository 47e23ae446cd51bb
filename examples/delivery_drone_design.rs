//! Package-delivery drone design via automated design-space exploration.
//!
//! The paper's intro motivates package delivery as a target workload and
//! its conclusion proposes using F-1 for automated DSE. This example
//! runs a DSE **query plan** on a session for an AscTec Pelican delivery
//! platform: maximize safe velocity and minimize mission energy under a
//! TDP budget, with the battery mounted so hover endurance is scored
//! too, then reports the ranking and the Pareto frontier.
//!
//! ```sh
//! cargo run --example delivery_drone_design
//! ```

use std::sync::Arc;

use f1_uav::components::{names, Catalog};
use f1_uav::skyline::query::{Constraint, Objective};
use f1_uav::skyline::{QueryPlan, Session};
use f1_uav::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Arc::new(Catalog::paper());
    let plan = QueryPlan::builder()
        .airframes(&[catalog.airframe_id(names::ASCTEC_PELICAN)?])
        .battery(catalog.battery_id(names::BATTERY_PELICAN)?)
        .objectives(&[
            Objective::SafeVelocity,
            Objective::MissionEnergyWhPerKm,
            Objective::HoverEnduranceMin,
        ])
        .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
        .constraint(Constraint::FeasibleOnly)
        .build()?;
    let result = Session::new(Arc::clone(&catalog)).run(&plan)?;

    println!(
        "Explored {} delivery builds under a 20 W TDP budget ({} filtered out, \
         {} platform×algorithm pairs uncharacterized).\n",
        result.points().len(),
        result.dropped(),
        result.uncharacterized()
    );

    println!("top 5 builds by safe velocity (energy, endurance alongside):");
    for (rank, index) in result.top_k(5).into_iter().enumerate() {
        let point = &result.points()[index];
        let values = result.row(index);
        println!(
            "  {}. {:<16} + {:<16} + {:<26} → {:>5.2} m/s  {:>5.2} Wh/km  {:>4.1} min hover",
            rank + 1,
            catalog.sensor_by_id(point.candidate.sensor).name(),
            catalog.compute_by_id(point.candidate.compute).name(),
            catalog.algorithm_by_id(point.candidate.algorithm).name(),
            values[0],
            values[1],
            values[2],
        );
    }

    println!("\nPareto frontier over (velocity ↑, energy ↓, endurance ↑):");
    for &index in result.frontier() {
        let point = &result.points()[index];
        let values = result.row(index);
        println!(
            "  • {} + {} + {}: {:.2} m/s, {:.2} Wh/km, {:.1} min",
            catalog.sensor_by_id(point.candidate.sensor).name(),
            catalog.compute_by_id(point.candidate.compute).name(),
            catalog.algorithm_by_id(point.candidate.algorithm).name(),
            values[0],
            values[1],
            values[2],
        );
    }

    let best = result.best().expect("the Pelican lifts the whole catalog");
    println!(
        "\nrecommended delivery build: {} + {} + {} at {:.2} m/s",
        catalog.sensor_by_id(best.candidate.sensor).name(),
        catalog.compute_by_id(best.candidate.compute).name(),
        catalog.algorithm_by_id(best.candidate.algorithm).name(),
        best.outcome.velocity.get()
    );
    Ok(())
}
