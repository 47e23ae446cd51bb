//! Fig. 15b — §VI-D full-system characterization: DJI Spark and AscTec
//! Pelican across the platform × algorithm grid, with compute-bound gaps
//! and physics-bound surpluses.

use std::sync::Arc;

use f1_components::{names, Catalog};
use f1_model::roofline::Bound;
use f1_plot::Chart;
use f1_skyline::chart::{roofline_chart, OperatingPoint};
use f1_skyline::query::QueryPoint;
use f1_skyline::{QueryPlan, Session, UavSystem};
use f1_units::Hertz;

use crate::report::{num, Table};

/// One evaluated (UAV, platform, algorithm) cell of the grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// UAV name.
    pub uav: String,
    /// Compute platform name.
    pub platform: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Compute throughput (Hz).
    pub compute_rate: f64,
    /// Safe velocity (m/s); zero when infeasible.
    pub velocity: f64,
    /// The system's knee (Hz); zero when infeasible.
    pub knee: f64,
    /// Bound classification (None when infeasible).
    pub bound: Option<Bound>,
    /// For compute-bound cells: the required speedup to the knee. For
    /// physics-bound cells: the surplus factor.
    pub factor: f64,
}

/// The Fig. 15 regeneration result.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// All evaluated cells.
    pub cells: Vec<GridCell>,
}

/// The platform × algorithm combinations plotted in Fig. 15b.
const COMBOS: [(&str, &str); 5] = [
    (names::NCS, names::DRONET),
    (names::TX2, names::DRONET),
    (names::TX2, names::TRAILNET),
    (names::TX2, names::VGG16),
    (names::RAS_PI4, names::DRONET),
];

/// Extra Ras-Pi cells quoted in the §VI-D text (improvement factors
/// 3.3× / 110× / 660×).
const RASPI_EXTRAS: [(&str, &str); 2] = [
    (names::RAS_PI4, names::TRAILNET),
    (names::RAS_PI4, names::CAD2RL),
];

/// Runs the §VI-D grid: one DSE query plan per UAV (its default
/// sensor over the plotted platforms × algorithms), then picks the
/// paper's plotted cells from the evaluated subspace.
///
/// # Errors
///
/// Propagates catalog errors (none for the paper catalog).
pub fn run() -> Result<Fig15, Box<dyn std::error::Error>> {
    let catalog = Arc::new(Catalog::paper());
    let session = Session::new(Arc::clone(&catalog));
    let platforms = [names::NCS, names::TX2, names::RAS_PI4];
    let algorithms = [names::DRONET, names::TRAILNET, names::VGG16, names::CAD2RL];

    let compute_ids = platforms
        .iter()
        .map(|p| catalog.compute_id(p))
        .collect::<Result<Vec<_>, _>>()?;
    let algorithm_ids = algorithms
        .iter()
        .map(|a| catalog.algorithm_id(a))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cells = Vec::new();
    for uav in [names::DJI_SPARK, names::ASCTEC_PELICAN] {
        let plan = QueryPlan::builder()
            .airframes(&[catalog.airframe_id(uav)?])
            .sensors(&[catalog.sensor_id(default_sensor(uav))?])
            .computes(&compute_ids)
            .algorithms(&algorithm_ids)
            .build()?;
        let result = session.run(&plan)?;
        // The query evaluates every characterized pair of the subspace;
        // the figure plots the paper's cells, in the paper's order.
        for (platform, algorithm) in COMBOS.iter().chain(RASPI_EXTRAS.iter()) {
            let platform_id = catalog.compute_id(platform)?;
            let algorithm_id = catalog.algorithm_id(algorithm)?;
            let point = result
                .points()
                .iter()
                .find(|p| {
                    p.candidate.compute == platform_id && p.candidate.algorithm == algorithm_id
                })
                .ok_or_else(|| format!("{algorithm} on {platform} not characterized"))?;
            cells.push(cell_from(uav, platform, algorithm, point));
        }
    }
    Ok(Fig15 { cells })
}

fn default_sensor(uav: &str) -> &'static str {
    if uav == names::DJI_SPARK {
        names::RGB_60
    } else {
        names::RGBD_60
    }
}

fn cell_from(uav: &str, platform: &str, algorithm: &str, point: &QueryPoint) -> GridCell {
    let outcome = point.outcome;
    let factor = match (outcome.bound, outcome.compute_assessment) {
        (Some(Bound::Physics), Some(assessment)) => assessment.surplus_factor(),
        (Some(_), Some(assessment)) => assessment.speedup_required(),
        _ => 0.0, // cannot hover
    };
    GridCell {
        uav: uav.to_owned(),
        platform: platform.to_owned(),
        algorithm: algorithm.to_owned(),
        compute_rate: point.candidate.throughput.get(),
        velocity: outcome.velocity.get(),
        knee: outcome.knee.get(),
        bound: outcome.bound,
        factor,
    }
}

impl Fig15 {
    /// Finds a cell.
    #[must_use]
    pub fn cell(&self, uav: &str, platform: &str, algorithm: &str) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.uav == uav && c.platform == platform && c.algorithm == algorithm)
    }

    /// The grid table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 15b — full-system characterization",
            &[
                "UAV",
                "platform",
                "algorithm",
                "f_compute (Hz)",
                "v_safe (m/s)",
                "knee (Hz)",
                "bound",
                "gap/surplus (×)",
            ],
        );
        for c in &self.cells {
            t.push([
                c.uav.clone(),
                c.platform.clone(),
                c.algorithm.clone(),
                num(c.compute_rate, 2),
                num(c.velocity, 2),
                num(c.knee, 1),
                c.bound
                    .map_or_else(|| "cannot hover".to_owned(), |b| b.to_string()),
                num(c.factor, 2),
            ]);
        }
        t
    }

    /// The two-roofline chart with every feasible operating point.
    ///
    /// # Errors
    ///
    /// Propagates catalog/plot errors.
    pub fn chart(&self) -> Result<Chart, Box<dyn std::error::Error>> {
        let catalog = Catalog::paper();
        let mut rooflines = Vec::new();
        for uav in [names::DJI_SPARK, names::ASCTEC_PELICAN] {
            // Use the lightest platform's roofline as the representative
            // roof for the UAV, as the paper's figure draws one roofline
            // per UAV.
            let system = UavSystem::from_catalog(
                &catalog,
                uav,
                default_sensor(uav),
                names::NCS,
                names::DRONET,
            )?;
            rooflines.push((format!("Roofline: {uav}"), system.roofline()?));
        }
        let points: Vec<OperatingPoint> = self
            .cells
            .iter()
            .filter(|c| c.bound.is_some())
            .map(|c| OperatingPoint {
                label: format!("{} + {} ({})", c.algorithm, c.platform, c.uav),
                rate: Hertz::new(c.compute_rate),
                velocity: f1_units::MetersPerSecond::new(c.velocity),
            })
            .collect();
        Ok(roofline_chart(
            "Full UAV system characterization (Fig. 15b)",
            &rooflines,
            &points,
            Hertz::new(0.05),
            Hertz::new(1000.0),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_uavs_and_all_combos() {
        let fig = run().unwrap();
        assert_eq!(fig.cells.len(), 14);
        assert!(fig
            .cell(names::DJI_SPARK, names::TX2, names::DRONET)
            .is_some());
        assert!(fig
            .cell(names::ASCTEC_PELICAN, names::RAS_PI4, names::CAD2RL)
            .is_some());
    }

    #[test]
    fn raspi_gaps_ordered_like_paper() {
        // §VI-D quotes Ras-Pi improvement gaps of 3.3× (DroNet), 110×
        // (TrailNet), 660× (CAD2RL) on the Pelican. Our calibrated knee
        // gives the same ordering and magnitudes within ~2×.
        let fig = run().unwrap();
        let gap = |alg: &str| {
            fig.cell(names::ASCTEC_PELICAN, names::RAS_PI4, alg)
                .unwrap()
                .factor
        };
        let dronet = gap(names::DRONET);
        let trailnet = gap(names::TRAILNET);
        let cad2rl = gap(names::CAD2RL);
        assert!(dronet > 1.0 && dronet < 7.0, "DroNet gap {dronet}");
        assert!(
            trailnet > 50.0 && trailnet < 220.0,
            "TrailNet gap {trailnet}"
        );
        assert!(cad2rl > 300.0 && cad2rl < 1300.0, "CAD2RL gap {cad2rl}");
        assert!(cad2rl > trailnet && trailnet > dronet);
    }

    #[test]
    fn spark_tx2_dronet_is_over_provisioned() {
        // §VI-D: Spark + TX2 running DroNet at 178 Hz vs a ~30 Hz knee is
        // over-provisioned ~6×.
        let fig = run().unwrap();
        let cell = fig
            .cell(names::DJI_SPARK, names::TX2, names::DRONET)
            .unwrap();
        assert_eq!(cell.bound, Some(Bound::Physics));
        assert!(cell.factor > 3.0 && cell.factor < 9.0, "surplus {cell:?}");
    }

    #[test]
    fn compute_bound_cells_exist_on_raspi() {
        let fig = run().unwrap();
        let cell = fig
            .cell(names::ASCTEC_PELICAN, names::RAS_PI4, names::TRAILNET)
            .unwrap();
        assert_eq!(cell.bound, Some(Bound::Compute));
    }

    #[test]
    fn spark_rooflines_sit_below_pelican_for_heavy_payloads() {
        // The Pelican lifts a TX2 easily; the Spark pays a large velocity
        // penalty for the same platform.
        let fig = run().unwrap();
        let spark = fig
            .cell(names::DJI_SPARK, names::TX2, names::DRONET)
            .unwrap();
        let pelican = fig
            .cell(names::ASCTEC_PELICAN, names::TX2, names::DRONET)
            .unwrap();
        assert!(pelican.velocity > spark.velocity);
    }

    #[test]
    fn outputs_render() {
        let fig = run().unwrap();
        assert!(fig.table().to_text().contains("DJI Spark"));
        assert!(fig.chart().unwrap().render_svg(900, 600).is_ok());
    }
}
