//! Integration tests spanning crates: catalog → skyline assembly → model →
//! simulators, checking that the analytic model and both simulators agree
//! where they must.

use std::sync::Arc;

use f1_uav::components::{names, Catalog};
use f1_uav::flightsim::{
    find_safe_velocity, DisturbanceModel, SearchConfig, StopScenario, VehicleDynamics,
};
use f1_uav::model::physics::DragModel;
use f1_uav::pipeline::{ExecutionMode, PipelineSim, StageConfig};
use f1_uav::prelude::*;
use f1_uav::skyline::{QueryPlan, Session};

/// The discrete-event pipeline simulator's measured throughput matches the
/// Eq. 3 rate computed from the same catalog components.
#[test]
fn pipeline_sim_agrees_with_catalog_rates() {
    let catalog = Catalog::paper();
    let system = UavSystem::from_catalog(
        &catalog,
        names::ASCTEC_PELICAN,
        names::RGBD_60,
        names::TX2,
        names::DRONET,
    )
    .unwrap();
    let rates = system.stage_rates().unwrap();
    let sim = PipelineSim::new(
        StageConfig::fixed(rates.sensor().period()),
        StageConfig::fixed(rates.compute().period()),
        StageConfig::fixed(rates.control().period()),
    );
    let measured = sim
        .run(ExecutionMode::Pipelined, 2000, 7)
        .action_throughput();
    let analytic = rates.action_throughput();
    assert!(
        (measured.get() - analytic.get()).abs() / analytic.get() < 0.02,
        "measured {measured} vs analytic {analytic}"
    );
}

/// A lag-free, drag-free, noise-free flight simulation stops almost
/// exactly at the Eq. 4 boundary: the simulator degenerates to the model
/// when the model's assumptions hold.
#[test]
fn flightsim_degenerates_to_eq4_without_error_sources() {
    let a = MetersPerSecondSquared::new(1.5);
    let d = Meters::new(3.0);
    let rate = Hertz::new(10.0);
    let model = SafetyModel::new(a, d).unwrap();
    let v_pred = model.safe_velocity(rate.period());

    let vehicle = VehicleDynamics::new(
        Kilograms::new(1.5),
        a,
        a,
        Seconds::new(0.0005), // effectively instantaneous actuation
        DragModel::none(),
    )
    .unwrap();
    let scenario = StopScenario::new(vehicle, rate, d);
    let result = find_safe_velocity(
        &scenario,
        &SearchConfig {
            v_max: MetersPerSecond::new(v_pred.get() * 2.0),
            resolution: MetersPerSecond::new(0.002),
            trials: 1,
        },
        3,
    );
    let err = (v_pred.get() - result.safe_velocity.get()).abs() / v_pred.get();
    assert!(
        err < 0.02,
        "ideal sim should match Eq. 4: pred {v_pred}, sim {}",
        result.safe_velocity
    );
}

/// Each error source (lag, drag removal, noise) moves the simulated safe
/// velocity in the documented direction.
#[test]
fn error_sources_move_simulation_as_documented() {
    let a = MetersPerSecondSquared::new(1.5);
    let d = Meters::new(3.0);
    let rate = Hertz::new(10.0);
    let cfg = SearchConfig {
        v_max: MetersPerSecond::new(6.0),
        resolution: MetersPerSecond::new(0.005),
        trials: 2,
    };
    let build = |lag: f64, drag: f64, noise: f64| {
        let vehicle = VehicleDynamics::new(
            Kilograms::new(1.5),
            a,
            a,
            Seconds::new(lag),
            DragModel::quadratic(drag).unwrap(),
        )
        .unwrap();
        let scenario = StopScenario::new(vehicle, rate, d)
            .with_disturbance(DisturbanceModel::gaussian(noise).unwrap());
        find_safe_velocity(&scenario, &cfg, 11).safe_velocity.get()
    };
    let ideal = build(0.0005, 0.0, 0.0);
    let laggy = build(0.25, 0.0, 0.0);
    let draggy = build(0.0005, 0.3, 0.0);
    let noisy = build(0.0005, 0.0, 0.08);
    assert!(laggy < ideal, "lag must reduce v_safe ({laggy} vs {ideal})");
    assert!(draggy > ideal, "drag assists braking ({draggy} vs {ideal})");
    assert!(noisy <= ideal, "noise cannot help ({noisy} vs {ideal})");
}

/// Skyline's payload accounting matches a by-hand sum of catalog masses.
#[test]
fn payload_accounting_cross_check() {
    let catalog = Catalog::paper();
    let system = UavSystem::from_catalog(
        &catalog,
        names::DJI_SPARK,
        names::RGB_60,
        names::AGX,
        names::DRONET,
    )
    .unwrap();
    let agx = catalog.compute(names::AGX).unwrap();
    let sensor = catalog.sensor(names::RGB_60).unwrap();
    let heatsink = HeatsinkModel::paper_calibrated().mass_for(agx.tdp());
    let expected = agx.fielded_mass().get() + heatsink.get() + sensor.mass().get();
    assert!((system.payload_mass().get() - expected).abs() < 1e-9);
}

/// The DSE winner for the Pelican is at least as fast as every manually
/// assembled §VI configuration.
#[test]
fn dse_winner_dominates_case_study_builds() {
    let catalog = Arc::new(Catalog::paper());
    let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
    let plan = QueryPlan::builder().airframes(&[pelican]).build().unwrap();
    let dse = Session::new(Arc::clone(&catalog)).run(&plan).unwrap();
    let best = dse.best().unwrap().outcome.velocity.get();
    for (platform, algorithm) in [
        (names::TX2, names::DRONET),
        (names::TX2, names::TRAILNET),
        (names::TX2, names::MAVBENCH_PD),
        (names::RAS_PI4, names::DRONET),
    ] {
        let v = UavSystem::from_catalog(
            &catalog,
            names::ASCTEC_PELICAN,
            names::RGBD_60,
            platform,
            algorithm,
        )
        .unwrap()
        .analyze()
        .unwrap()
        .bound
        .velocity
        .get();
        assert!(
            best >= v - 1e-9,
            "DSE best {best} < {platform}+{algorithm} {v}"
        );
    }
}

/// A cloned catalog equals its original and is independent of it.
#[test]
fn catalog_clone_and_equality() {
    let a = Catalog::paper();
    let b = a.clone();
    assert_eq!(a, b);
    // Mutating the clone must not affect the original.
    let mut c = b.clone();
    c.matrix_mut()
        .upsert("Nvidia TX2", "DroNet", Hertz::new(999.0))
        .unwrap();
    assert_ne!(a, c);
    assert_eq!(
        a.throughput("Nvidia TX2", "DroNet").unwrap(),
        Hertz::new(178.0)
    );
}

/// Knobs-driven and catalog-driven assemblies agree when fed the same
/// underlying numbers.
#[test]
fn knobs_and_catalog_assemblies_agree() {
    let catalog = Catalog::paper();
    let cat_system = UavSystem::from_catalog(
        &catalog,
        names::DJI_SPARK,
        names::RGB_60,
        names::TX2,
        names::DRONET,
    )
    .unwrap();
    let spark = catalog.airframe(names::DJI_SPARK).unwrap();
    let knobs = Knobs {
        sensor_framerate: Hertz::new(60.0),
        sensor_range: Meters::new(5.0),
        compute_tdp: Watts::new(15.0),
        compute_runtime: Hertz::new(178.0).period(),
        drone_weight: spark.base_mass(),
        rotor_pull: Grams::new(800.0),
        // Catalog payload minus the heatsink the knob path re-adds.
        payload_weight: Grams::new(
            cat_system.payload_mass().get()
                - cat_system.heatsink().mass_for(Watts::new(15.0)).get(),
        ),
    };
    let knob_system = UavSystem::from_knobs("knob spark", &knobs).unwrap();
    let a1 = cat_system.analyze().unwrap();
    let a2 = knob_system.analyze().unwrap();
    assert!((a1.bound.velocity.get() - a2.bound.velocity.get()).abs() < 1e-9);
    assert!((a1.bound.knee.rate.get() - a2.bound.knee.rate.get()).abs() < 1e-9);
    assert_eq!(a1.bound.bound, a2.bound.bound);
}
