//! Fig. 11b — §VI-A onboard-compute selection: Intel NCS vs Nvidia AGX on
//! a DJI Spark running DroNet, plus the AGX 30 W → 15 W TDP what-if.

use std::sync::Arc;

use f1_components::{names, Catalog};
use f1_model::roofline::Roofline;
use f1_plot::Chart;
use f1_skyline::chart::{roofline_chart, OperatingPoint};
use f1_skyline::dse::Outcome;
use f1_skyline::query::{Knob, KnobSweep};
use f1_skyline::{QueryPlan, Session};
use f1_units::Hertz;

use crate::report::{num, Table};

/// One characterized configuration of the study.
#[derive(Debug, Clone)]
pub struct ComputeChoice {
    /// Display label.
    pub label: String,
    /// Compute throughput of DroNet on this platform (Hz).
    pub compute_rate: f64,
    /// Total payload (g), including heatsink.
    pub payload_g: f64,
    /// The physics roof (m/s).
    pub roof: f64,
    /// Achieved safe velocity (m/s).
    pub velocity: f64,
    /// The knee (Hz).
    pub knee: f64,
    /// The configuration's roofline (for charting).
    pub roofline: Roofline,
}

/// The Fig. 11 regeneration result.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// NCS, AGX-30W and AGX-15W configurations in that order.
    pub choices: Vec<ComputeChoice>,
}

/// Runs the §VI-A study as one DSE query plan: the Spark's RGB camera and
/// DroNet over the {NCS, AGX} compute choice, with the paper's TDP
/// what-if expressed as a [`Knob::TdpScale`] sweep at {1, ½} — the
/// halved-TDP AGX keeps its 230 FPS but sheds heatsink mass.
///
/// # Errors
///
/// Propagates catalog errors (none for the paper catalog).
pub fn run() -> Result<Fig11, Box<dyn std::error::Error>> {
    let catalog = Arc::new(Catalog::paper());
    let plan = QueryPlan::builder()
        .airframes(&[catalog.airframe_id(names::DJI_SPARK)?])
        .sensors(&[catalog.sensor_id(names::RGB_60)?])
        .computes(&[
            catalog.compute_id(names::NCS)?,
            catalog.compute_id(names::AGX)?,
        ])
        .algorithms(&[catalog.algorithm_id(names::DRONET)?])
        .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
        .build()?;
    let result = Session::new(Arc::clone(&catalog)).run(&plan)?;

    let agx = catalog.compute_id(names::AGX)?;
    let ncs = catalog.compute_id(names::NCS)?;
    let point = |compute, tdp_scale: f64| {
        result
            .points()
            .iter()
            .find(|p| p.candidate.compute == compute && p.setting.tdp_scale == tdp_scale)
            .ok_or_else(|| format!("query is missing the {tdp_scale}× point"))
    };

    let mut choices = Vec::new();
    let stock_ncs = point(ncs, 1.0)?;
    choices.push(choice(
        "Intel NCS",
        stock_ncs.candidate.throughput,
        stock_ncs.outcome,
    )?);
    let agx30 = point(agx, 1.0)?;
    choices.push(choice(
        "Nvidia AGX-30W",
        agx30.candidate.throughput,
        agx30.outcome,
    )?);
    let agx15 = point(agx, 0.5)?;
    choices.push(choice(
        "Nvidia AGX-15W",
        agx15.candidate.throughput,
        agx15.outcome,
    )?);

    Ok(Fig11 { choices })
}

fn choice(
    label: &str,
    throughput: Hertz,
    outcome: Outcome,
) -> Result<ComputeChoice, Box<dyn std::error::Error>> {
    let roofline = outcome
        .roofline
        .ok_or_else(|| format!("{label}: configuration cannot hover"))?;
    Ok(ComputeChoice {
        label: label.to_owned(),
        compute_rate: throughput.get(),
        payload_g: outcome.payload.get(),
        roof: outcome.roof.get(),
        velocity: outcome.velocity.get(),
        knee: outcome.knee.get(),
        roofline,
    })
}

impl Fig11 {
    /// The study table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 11b — Intel NCS vs Nvidia AGX on DJI Spark (DroNet, 60 FPS sensor)",
            &[
                "compute",
                "DroNet (Hz)",
                "payload (g)",
                "roof (m/s)",
                "v_safe (m/s)",
                "knee (Hz)",
            ],
        );
        for c in &self.choices {
            t.push([
                c.label.clone(),
                num(c.compute_rate, 0),
                num(c.payload_g, 0),
                num(c.roof, 2),
                num(c.velocity, 2),
                num(c.knee, 1),
            ]);
        }
        t
    }

    /// The roof improvement of the AGX-15W what-if over AGX-30W, percent.
    #[must_use]
    pub fn tdp_whatif_improvement_percent(&self) -> f64 {
        let agx30 = &self.choices[1];
        let agx15 = &self.choices[2];
        (agx15.roof / agx30.roof - 1.0) * 100.0
    }

    /// The combined roofline chart.
    ///
    /// # Errors
    ///
    /// Propagates analysis/plot errors (none for the paper catalog).
    pub fn chart(&self) -> Result<Chart, Box<dyn std::error::Error>> {
        let mut rooflines = Vec::new();
        let mut points = Vec::new();
        for c in &self.choices {
            rooflines.push((c.label.clone(), c.roofline));
            points.push(OperatingPoint {
                label: format!("{} @ {:.0} Hz", c.label, c.compute_rate),
                rate: Hertz::new(c.compute_rate),
                velocity: f1_units::MetersPerSecond::new(c.velocity),
            });
        }
        Ok(roofline_chart(
            "Compute selection for DJI Spark (Fig. 11b)",
            &rooflines,
            &points,
            Hertz::new(1.0),
            Hertz::new(1000.0),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncs_beats_agx_despite_lower_throughput() {
        // §VI-A's headline: AGX does 1.5× the FPS but the lighter NCS wins
        // on safe velocity because the Spark's physics dominates.
        let fig = run().unwrap();
        let ncs = &fig.choices[0];
        let agx = &fig.choices[1];
        assert!(agx.compute_rate > ncs.compute_rate);
        assert!(
            ncs.velocity > agx.velocity,
            "NCS {} vs AGX {}",
            ncs.velocity,
            agx.velocity
        );
        assert!(ncs.payload_g < agx.payload_g);
    }

    #[test]
    fn tdp_halving_raises_roof_substantially() {
        // Paper: "the reduction of the compute payload weight increases the
        // DJI Spark's safe velocity by 75 %."
        let fig = run().unwrap();
        let gain = fig.tdp_whatif_improvement_percent();
        assert!(gain > 40.0 && gain < 120.0, "gain = {gain}%");
    }

    #[test]
    fn ad_hoc_selection_degrades_velocity_at_least_2x() {
        // §I: "selecting onboard compute in this fashion results in 2.3×
        // degradation in safe velocity" — picking the AGX for its FPS
        // costs the Spark a factor ≥ 2 vs the NCS.
        let fig = run().unwrap();
        let ratio = fig.choices[0].velocity / fig.choices[1].velocity;
        assert!(ratio > 2.0, "degradation only {ratio}×");
    }

    #[test]
    fn payload_includes_heatsink_difference() {
        // AGX-15W sheds ~half of the 162 g heatsink vs AGX-30W.
        let fig = run().unwrap();
        let diff = fig.choices[1].payload_g - fig.choices[2].payload_g;
        assert!(diff > 50.0 && diff < 110.0, "heatsink delta = {diff} g");
    }

    #[test]
    fn outputs_render() {
        let fig = run().unwrap();
        assert_eq!(fig.table().rows().len(), 3);
        let svg = fig.chart().unwrap().render_svg(720, 480).unwrap();
        assert!(svg.contains("NCS"));
    }
}
