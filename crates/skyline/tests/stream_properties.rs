//! Bit-identity of the tier-1 executor's two collectors. Both are
//! checked against an independent serial oracle — every candidate
//! evaluated one by one through the public per-candidate API, objective
//! values from the public mission model, the frontier from the naive
//! all-pairs scan — and against each other: a `KeepPoints::FrontierOnly`
//! run must agree with the `KeepPoints::All` run **to the bit** — same
//! frontier indices, bit-equal stored rows, the exact top-k ranking
//! prefix, and identical dropped / uncharacterized / nonfinite
//! accounting. Covers random plans over the paper catalog and a
//! synthesized subset, multi-shard + multi-block synthetic spaces
//! (candidate counts past `SHARD_SIZE`, sweeps and airframe subsets),
//! the battery-backed endurance objective, the `Auto` mode decision,
//! and delta `refresh` over streamed cache entries (untouched → same
//! `Arc`, touched → exact cold re-stream).

use std::sync::Arc;

use f1_components::{names, Catalog, CatalogDelta, CatalogStore};
use f1_model::mission::hover_endurance;
use f1_skyline::dse::{evaluate_parts, Candidate};
use f1_skyline::frontier::{naive_pareto_min, pareto_min};
use f1_skyline::mission::power_model_for_parts;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{
    Constraint, Knob, KnobSetting, KnobSweep, MissionProfile, Objective, QueryPoint,
};
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::shard::{SHARD_SIZE, STREAM_TOP_K};
use f1_units::{Grams, Hertz, MetersPerSecond, Watts};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seed-derived random plan (same generator family as
/// `session_properties`), built in the requested keep-points mode so a
/// streaming twin shares every other plan field with its materializing
/// reference.
fn random_plan(seed: u64, with_sweep: bool, keep: KeepPoints) -> QueryPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = [
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    let bits = rng.gen_range(0u32..16);
    let mut objectives: Vec<Objective> = pool
        .iter()
        .enumerate()
        .filter(|&(i, _)| bits & (1 << i) != 0)
        .map(|(_, &o)| o)
        .collect();
    if objectives.is_empty() {
        objectives.push(pool[rng.gen_range(0usize..pool.len())]);
    }
    let rotation = rng.gen_range(0usize..objectives.len());
    objectives.rotate_left(rotation);
    let mut builder = QueryPlan::builder().objectives(&objectives);
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::MaxTotalTdp(Watts::new(
            rng.gen_range(0.5f64..40.0),
        )));
    }
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::MinVelocity(MetersPerSecond::new(
            rng.gen_range(0.01f64..5.0),
        )));
    }
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::FeasibleOnly);
    }
    if with_sweep {
        let value = rng.gen_range(0.5f64..2.0);
        let (knob, values) = match rng.gen_range(0u32..6) {
            0 => (Knob::TdpScale, vec![1.0, value]),
            1 => (Knob::SensorRateScale, vec![1.0, value]),
            2 => (Knob::SensorRangeScale, vec![1.0, value]),
            3 => (Knob::PayloadDelta, vec![0.0, value * 100.0]),
            4 => (Knob::WeightScale, vec![1.0, value]),
            _ => (Knob::RotorPull, vec![1.0, value]),
        };
        builder = builder.sweep(KnobSweep::new(knob, values));
    }
    builder
        .keep_points(keep)
        .build()
        .expect("generated plans are valid")
}

/// The full bit-identity contract between a streamed run and its
/// materializing reference: counters, frontier, stored rows/points, and
/// the top-k ranking prefix.
fn assert_stream_matches(streamed: &ResultSet, full: &ResultSet) {
    assert!(streamed.is_streamed(), "twin plan must stream");
    assert!(!full.is_streamed(), "reference plan must materialize");
    assert_eq!(streamed.len(), full.len(), "logical kept count");
    assert_eq!(streamed.dropped(), full.dropped(), "dropped count");
    assert_eq!(
        streamed.uncharacterized(),
        full.uncharacterized(),
        "uncharacterized count"
    );
    assert_eq!(streamed.nonfinite(), full.nonfinite(), "nonfinite count");
    assert_eq!(streamed.frontier(), full.frontier(), "frontier indices");

    // The bounded ranking is the exact prefix of the full ranking,
    // including feasible-first order and enumeration-order ties.
    let full_ranked = full.ranked();
    let take = STREAM_TOP_K.min(full_ranked.len());
    assert_eq!(streamed.ranked(), &full_ranked[..take], "top-k ranking");
    let k = 7.min(take);
    assert_eq!(streamed.top_k(k), full.top_k(k), "top_k({k})");

    // Stored set is exactly frontier ∪ top-k, ascending and deduped.
    let mut expected: Vec<usize> = streamed
        .frontier()
        .iter()
        .copied()
        .chain(streamed.ranked())
        .collect();
    expected.sort_unstable();
    expected.dedup();
    let stored = streamed.stored_indices().expect("streamed results store");
    assert_eq!(stored, &expected[..], "stored = frontier ∪ top-k");

    // Every stored point and row is bit-identical to the materializing
    // pass (to_bits — `==` would conflate -0.0 with 0.0).
    for &i in stored {
        assert_eq!(streamed.point(i), full.point(i), "point {i}");
        let (a, b) = (streamed.row(i), full.row(i));
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "row {i}: {a:?} vs {b:?}"
        );
    }
    assert_eq!(
        streamed.best().is_some(),
        full.best().is_some(),
        "best() presence"
    );
    if let (Some(a), Some(b)) = (streamed.best(), full.best()) {
        assert_eq!(a, b, "best() point");
    }
}

/// The serial reference result of a sweep-free plan: points, objective
/// rows, frontier and accounting, built only from public per-candidate
/// APIs.
struct Oracle {
    points: Vec<QueryPoint>,
    rows: Vec<Vec<f64>>,
    frontier: Vec<usize>,
    dropped: usize,
    nonfinite: usize,
    uncharacterized: usize,
}

fn oracle(catalog: &Catalog, plan: &QueryPlan) -> Oracle {
    assert!(plan.sweeps().is_empty(), "the oracle evaluates stock parts");
    let table = catalog.throughput_table();
    let airframes = plan.airframes().map_or_else(
        || catalog.airframe_entries().map(|(id, _)| id).collect(),
        <[_]>::to_vec,
    );
    let sensors = plan.sensors().map_or_else(
        || catalog.sensor_entries().map(|(id, _)| id).collect(),
        <[_]>::to_vec,
    );
    let computes = plan.computes().map_or_else(
        || catalog.compute_entries().map(|(id, _)| id).collect(),
        <[_]>::to_vec,
    );
    let algorithms = plan.algorithms().map_or_else(
        || catalog.algorithm_entries().map(|(id, _)| id).collect(),
        <[_]>::to_vec,
    );
    let mut candidates = Vec::new();
    for &sensor in &sensors {
        for &compute in &computes {
            for &algorithm in &algorithms {
                if let Some(throughput) = table.get(compute, algorithm) {
                    candidates.push(Candidate {
                        sensor,
                        compute,
                        algorithm,
                        throughput,
                    });
                }
            }
        }
    }
    let battery = plan.battery().map(|id| catalog.battery_by_id(id));
    let extra = Grams::new(battery.map_or(0.0, |b| b.mass().get()));
    let profile = plan.mission_profile();
    let mut out = Oracle {
        points: Vec::new(),
        rows: Vec::new(),
        frontier: Vec::new(),
        dropped: 0,
        nonfinite: 0,
        uncharacterized: sensors.len() * computes.len() * algorithms.len() - candidates.len(),
    };
    for &airframe in &airframes {
        let frame = catalog.airframe_by_id(airframe);
        for &candidate in &candidates {
            let outcome = evaluate_parts(
                frame,
                catalog.sensor_by_id(candidate.sensor),
                catalog.compute_by_id(candidate.compute),
                candidate.throughput,
                extra,
            )
            .unwrap();
            if !plan.constraints().iter().all(|c| c.admits(&outcome)) {
                out.dropped += 1;
                continue;
            }
            let power = outcome.feasible.then(|| {
                power_model_for_parts(
                    frame,
                    frame.takeoff_mass(outcome.payload),
                    outcome.total_tdp,
                    profile.figure_of_merit,
                    profile.parasitic_coeff,
                )
                .unwrap()
            });
            let v = outcome.velocity;
            let row: Vec<f64> = plan
                .objectives()
                .iter()
                .map(|objective| match objective {
                    Objective::SafeVelocity => v.get(),
                    Objective::TotalTdp => outcome.total_tdp.get(),
                    Objective::PayloadMass => outcome.payload.get(),
                    Objective::MissionEnergyWhPerKm => match &power {
                        Some(p) if v.get() > 0.0 => {
                            p.power_at(v).get() * (1000.0 / v.get()) / 3600.0
                        }
                        _ => f64::INFINITY,
                    },
                    Objective::HoverEnduranceMin => match &power {
                        Some(p) => {
                            let wh = battery.unwrap().energy_watt_hours();
                            hover_endurance(p, wh, profile.battery_reserve)
                                .unwrap()
                                .get()
                        }
                        None => 0.0,
                    },
                    other => panic!("the oracle does not model {other:?}"),
                })
                .collect();
            if outcome.feasible && row.iter().any(|x| !x.is_finite()) {
                out.nonfinite += 1;
            }
            out.points.push(QueryPoint {
                airframe,
                candidate,
                setting: KnobSetting::IDENTITY,
                outcome,
            });
            out.rows.push(row);
        }
    }
    let mut keys = Vec::new();
    let mut map = Vec::new();
    for (i, (point, row)) in out.points.iter().zip(&out.rows).enumerate() {
        if point.outcome.feasible && row.iter().all(|x| x.is_finite()) {
            map.push(i);
            keys.extend(
                row.iter()
                    .zip(plan.objectives())
                    .map(|(&x, o)| if o.maximize() { -x } else { x }),
            );
        }
    }
    out.frontier = naive_pareto_min(plan.objectives().len(), &keys)
        .into_iter()
        .map(|i| map[i])
        .collect();
    out
}

/// A session result equals the oracle to the bit: accounting, frontier,
/// every stored point and row, and (streamed) the top-k ranking prefix.
fn assert_matches_oracle(result: &ResultSet, oracle: &Oracle, maximize: bool) {
    assert_eq!(result.len(), oracle.points.len(), "kept count");
    assert_eq!(result.dropped(), oracle.dropped, "dropped count");
    assert_eq!(result.nonfinite(), oracle.nonfinite, "nonfinite count");
    assert_eq!(
        result.uncharacterized(),
        oracle.uncharacterized,
        "uncharacterized count"
    );
    assert_eq!(result.frontier(), oracle.frontier, "frontier indices");
    let stored: Vec<usize> = result
        .stored_indices()
        .map_or_else(|| (0..result.len()).collect(), <[_]>::to_vec);
    for i in stored {
        assert_eq!(result.point(i), &oracle.points[i], "point {i}");
        let row = result.row(i);
        assert!(
            row.iter()
                .zip(&oracle.rows[i])
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "row {i}: {row:?} vs {:?}",
            oracle.rows[i]
        );
    }
    if result.is_streamed() {
        let mut ranked: Vec<usize> = (0..oracle.points.len()).collect();
        let key = |i: usize| (oracle.points[i].outcome.feasible, oracle.rows[i][0]);
        ranked.sort_by(|&a, &b| {
            let ((fa, va), (fb, vb)) = (key(a), key(b));
            fb.cmp(&fa)
                .then_with(|| {
                    if maximize {
                        vb.total_cmp(&va)
                    } else {
                        va.total_cmp(&vb)
                    }
                })
                .then_with(|| a.cmp(&b))
        });
        ranked.truncate(STREAM_TOP_K);
        assert_eq!(result.ranked(), ranked, "top-k ranking");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sweep-free plans under both collectors, over the paper
    /// catalog and over a ≤ 3 456-candidate synthesized subset (two
    /// airframes), with and without a battery and the endurance
    /// objective: `Session::run` equals the serial oracle to the bit.
    #[test]
    fn session_matches_serial_oracle(seed in 0u64..1_000_000) {
        for shape in 0u32..8 {
            let keep = if shape & 1 == 0 { KeepPoints::All } else { KeepPoints::FrontierOnly };
            let synth = shape & 2 != 0;
            let catalog = if synth { Catalog::synthesize(seed, 12) } else { Catalog::paper() };
            let base = random_plan(seed, false, keep);
            let mut objectives = base.objectives().to_vec();
            let mut builder = QueryPlan::builder().keep_points(keep);
            for &constraint in base.constraints() {
                builder = builder.constraint(constraint);
            }
            if shape & 4 != 0 {
                objectives.push(Objective::HoverEnduranceMin);
                let pick = seed as usize % catalog.battery_count();
                let (battery, _) = catalog.battery_entries().nth(pick).unwrap();
                builder = builder.battery(battery);
            }
            if synth {
                let airframes: Vec<_> = catalog
                    .airframe_entries()
                    .skip((seed % 10) as usize)
                    .take(2)
                    .map(|(id, _)| id)
                    .collect();
                builder = builder.airframes(&airframes);
            }
            let plan = builder.objectives(&objectives).build().unwrap();
            let expected = oracle(&catalog, &plan);
            let result = Session::new(Arc::new(catalog)).run(&plan).unwrap();
            prop_assert_eq!(result.is_streamed(), keep == KeepPoints::FrontierOnly);
            assert_matches_oracle(&result, &expected, objectives[0].maximize());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random plan shapes over the paper catalog: the streaming twin of
    /// every generated plan is bit-identical to its materializing
    /// reference.
    #[test]
    fn streaming_matches_materializing(seed in 0u64..1_000_000, sweep_bit in 0u32..2) {
        let with_sweep = sweep_bit == 1;
        let catalog = Arc::new(Catalog::paper());
        let full_plan = random_plan(seed, with_sweep, KeepPoints::All);
        let stream_plan = random_plan(seed, with_sweep, KeepPoints::FrontierOnly);
        let session = Session::new(catalog);
        let full = session.run(&full_plan).unwrap();
        let streamed = session.run(&stream_plan).unwrap();
        assert_stream_matches(&streamed, &full);
    }

    /// Streamed cache hits return the very same `Arc`, and an
    /// independent session re-streams the plan bit-identically.
    #[test]
    fn streamed_cache_hits_are_bit_identical(seed in 0u64..1_000_000) {
        let plan = random_plan(seed, true, KeepPoints::FrontierOnly);
        let catalog = Arc::new(Catalog::paper());
        let session = Session::new(Arc::clone(&catalog));
        let first = session.run(&plan).unwrap();
        let hit = session.run(&plan).unwrap();
        prop_assert!(Arc::ptr_eq(&first, &hit));
        let fresh = Session::new(catalog).run(&plan).unwrap();
        prop_assert_eq!(&*first, &*fresh);
        prop_assert_eq!(first.frontier(), fresh.frontier());
        prop_assert_eq!(first.ranked(), fresh.ranked());
    }
}

/// Shard and block boundaries: a synthetic space whose per-block
/// candidate count (41³ = 68 921) exceeds `SHARD_SIZE`, enumerated over
/// 2 airframes × 2 knob settings — shards crossing block boundaries —
/// streams bit-identically to the keep-all collector.
#[test]
fn multi_shard_multi_block_space_streams_bit_identically() {
    const N: usize = 41;
    const _: () = assert!(
        N * N * N > SHARD_SIZE,
        "a single block must span several shards"
    );
    let catalog = Catalog::synthesize(11, N);
    let airframes: Vec<_> = catalog
        .airframe_entries()
        .take(2)
        .map(|(id, _)| id)
        .collect();
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .airframes(&airframes)
            .objectives(&[
                Objective::SafeVelocity,
                Objective::TotalTdp,
                Objective::PayloadMass,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(Constraint::MaxTotalTdp(Watts::new(30.0)))
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.7]))
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(catalog));
    let full = session.run(&build(KeepPoints::All)).unwrap();
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert_eq!(full.len() + full.dropped(), 2 * 2 * N * N * N);
    assert_stream_matches(&streamed, &full);
}

/// A budget sweep over a space of several shards, run as one batch:
/// nested TDP caps under both collectors (one shared cross-shard skyline),
/// beside a velocity-floored lane ranking TDP and payload (not
/// downward-closed, so a share of its own) and a lane with its own
/// mission profile. Every member is bit-identical to a standalone cold
/// run and to its keep-all twin, whose frontier is one skyline over all
/// of its kept rows, computed without any shard merge.
#[test]
fn multi_shard_budget_sweep_batch_matches_standalone() {
    const N: usize = 41;
    let catalog = Arc::new(Catalog::synthesize(11, N));
    let airframes: Vec<_> = catalog
        .airframe_entries()
        .take(2)
        .map(|(id, _)| id)
        .collect();
    let four = [
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    let odd = MissionProfile {
        figure_of_merit: 0.55,
        parasitic_coeff: 0.12,
        battery_reserve: 0.7,
    };
    // (objectives, constraint, own mission profile, keep policy)
    let tdp = |cap: f64| Constraint::MaxTotalTdp(Watts::new(cap));
    let (all, frontier_only) = (KeepPoints::All, KeepPoints::FrontierOnly);
    let specs: [(&[Objective], Constraint, bool, KeepPoints); 8] = [
        (&four, tdp(1.0), false, frontier_only),
        (&four, tdp(1.5), false, all),
        (&four, tdp(2.0), false, frontier_only),
        (&four, tdp(3.0), false, all),
        (&four, tdp(5.0), false, frontier_only),
        (&four, tdp(8.0), false, all),
        (
            &four[1..3],
            Constraint::MinVelocity(MetersPerSecond::new(2.0)),
            false,
            frontier_only,
        ),
        (&four, tdp(25.0), true, frontier_only),
    ];
    let build =
        |&(objectives, constraint, own, _): &(&[Objective], Constraint, bool, KeepPoints),
         keep: KeepPoints| {
            let builder = QueryPlan::builder()
                .airframes(&airframes)
                .objectives(objectives)
                .constraint(constraint)
                .keep_points(keep);
            let builder = if own {
                builder.mission_profile(odd)
            } else {
                builder
            };
            builder.build().unwrap()
        };
    let plans: Vec<QueryPlan> = specs.iter().map(|spec| build(spec, spec.3)).collect();
    let batch = Session::new(Arc::clone(&catalog))
        .run_batch(&plans)
        .unwrap();
    for ((spec, plan), batched) in specs.iter().zip(&plans).zip(&batch) {
        let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
        assert_eq!(**batched, *standalone, "{}", plan.key());
        assert_eq!(batched.frontier(), standalone.frontier());
        assert_eq!(batched.dropped(), standalone.dropped());
        assert_eq!(batched.nonfinite(), standalone.nonfinite());
        for pos in 0..plan.objectives().len() {
            let (a, b) = (batched.column(pos), standalone.column(pos));
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }

        let full = Session::new(Arc::clone(&catalog))
            .run(&build(spec, all))
            .unwrap();
        assert_eq!(full.len() + full.dropped(), 2 * N * N * N);
        if batched.is_streamed() {
            assert_stream_matches(batched, &full);
        } else {
            assert_eq!(**batched, *full);
        }
        let k = plan.objectives().len();
        let eligible: Vec<usize> = (0..full.len())
            .filter(|&i| {
                full.point(i).outcome.feasible && (0..k).all(|pos| full.column(pos)[i].is_finite())
            })
            .collect();
        let mut keys = Vec::with_capacity(eligible.len() * k);
        for &i in &eligible {
            for (pos, objective) in plan.objectives().iter().enumerate() {
                let v = full.column(pos)[i];
                keys.push(if objective.maximize() { -v } else { v });
            }
        }
        let expected: Vec<usize> = pareto_min(k, &keys)
            .into_iter()
            .map(|m| eligible[m])
            .collect();
        assert!(!expected.is_empty(), "{}", plan.key());
        assert_eq!(full.frontier(), &expected[..], "{}", plan.key());
    }
}

/// The battery-backed endurance objective streams identically to the
/// keep-all collector, including the zero-endurance infeasible
/// convention (the serial oracle covers it against `hover_endurance`).
#[test]
fn endurance_objective_streams_bit_identically() {
    let catalog = Catalog::paper();
    let battery = catalog.battery_id(names::BATTERY_PELICAN).unwrap();
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .objectives(&[
                Objective::HoverEnduranceMin,
                Objective::SafeVelocity,
                Objective::TotalTdp,
            ])
            .battery(battery)
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(catalog));
    let full = session.run(&build(KeepPoints::All)).unwrap();
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert_stream_matches(&streamed, &full);
}

/// `KeepPoints::Auto` only streams past the job-count threshold: the
/// paper catalog materializes (points() works), while `FrontierOnly`
/// streams even the smallest space and `All` never streams.
#[test]
fn auto_mode_materializes_small_spaces() {
    let session = Session::new(Arc::new(Catalog::paper()));
    let auto = session.run(&QueryPlan::builder().build().unwrap()).unwrap();
    assert!(!auto.is_streamed());
    assert!(!auto.points().is_empty());

    let forced = session
        .run(
            &QueryPlan::builder()
                .keep_points(KeepPoints::FrontierOnly)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(forced.is_streamed());
    assert_stream_matches(&forced, &auto);

    let all = session
        .run(
            &QueryPlan::builder()
                .keep_points(KeepPoints::All)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(!all.is_streamed());
    assert_eq!(*all, *auto);
}

/// Keep-points mode is part of the plan identity: the three modes have
/// distinct canonical keys, every key round-trips, and the mode
/// survives the trip.
#[test]
fn keep_points_round_trips_through_plan_keys() {
    let keys: Vec<String> = [KeepPoints::Auto, KeepPoints::All, KeepPoints::FrontierOnly]
        .into_iter()
        .map(|keep| {
            let plan = QueryPlan::builder().keep_points(keep).build().unwrap();
            let replayed = QueryPlan::from_key(plan.key()).unwrap();
            assert_eq!(replayed, plan);
            assert_eq!(replayed.keep_points(), keep);
            plan.key().to_owned()
        })
        .collect();
    assert_eq!(
        keys.iter().collect::<std::collections::HashSet<_>>().len(),
        3,
        "modes must not collide in the cache"
    );
}

/// A streamed result with nothing to keep: constraints that drop every
/// candidate leave an empty frontier, empty stored set and exact
/// accounting.
#[test]
fn fully_constrained_stream_is_empty_with_exact_accounting() {
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .constraint(Constraint::MaxTotalTdp(Watts::new(1e-9)))
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(Catalog::paper()));
    let full = session.run(&build(KeepPoints::All)).unwrap();
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert!(streamed.is_empty());
    assert!(streamed.frontier().is_empty());
    assert_eq!(streamed.stored_indices(), Some(&[][..]));
    assert!(streamed.ranked().is_empty());
    assert!(streamed.best().is_none());
    assert_stream_matches(&streamed, &full);
}

/// Delta `refresh` over a streamed cache entry: a delta outside the
/// plan's subspace returns the cached `Arc` untouched; a touching delta
/// re-streams cold, bit-identical to a fresh session at the new epoch
/// (a streamed result keeps no survivor slab to splice, so there is no
/// incremental path to get subtly wrong).
#[test]
fn streamed_refresh_is_unchanged_or_exact_cold_restream() {
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    let catalog = session.catalog();
    let tx2 = catalog.compute_id(names::TX2).unwrap();
    let plan = QueryPlan::builder()
        .computes(&[tx2])
        .keep_points(KeepPoints::FrontierOnly)
        .build()
        .unwrap();
    let cached = session.run(&plan).unwrap();
    assert!(cached.is_streamed());

    // Disjoint delta: a throughput patch on a compute the plan excludes.
    store
        .apply(&CatalogDelta::new().patch_throughput(names::NCS, names::TRAILNET, Hertz::new(40.0)))
        .unwrap();
    let refreshed = session.refresh(&plan).unwrap();
    assert!(Arc::ptr_eq(&cached, &refreshed));
    assert_eq!(session.cache_stats().repairs, 0);

    // Touching delta: patch a throughput inside the subspace. The
    // refresh must re-stream (never splice) and equal both a fresh cold
    // stream and the materializing reference at the new epoch.
    store
        .apply(&CatalogDelta::new().patch_throughput(names::TX2, names::DRONET, Hertz::new(220.0)))
        .unwrap();
    let refreshed = session.refresh(&plan).unwrap();
    assert!(!Arc::ptr_eq(&cached, &refreshed));
    assert!(refreshed.is_streamed());
    assert_eq!(
        session.cache_stats().repairs,
        0,
        "streamed refresh never repairs in place"
    );
    let cold = Session::over(Arc::clone(&store)).run(&plan).unwrap();
    assert_eq!(*refreshed, *cold);
    let full_plan = QueryPlan::builder()
        .computes(&[tx2])
        .keep_points(KeepPoints::All)
        .build()
        .unwrap();
    let full = Session::over(store).run(&full_plan).unwrap();
    assert_stream_matches(&refreshed, &full);
}
