//! `skyline` — the paper's interactive tool as a CLI.
//!
//! ```sh
//! # list everything in the paper's catalog
//! cargo run -p f1-skyline --bin skyline -- --list
//!
//! # analyze a build (the §VI-B study)
//! cargo run -p f1-skyline --bin skyline -- \
//!     --airframe "AscTec Pelican" --sensor "RGB-D 60FPS" \
//!     --compute "Nvidia TX2" --algorithm "DroNet" --chart --mission 1000
//!
//! # a four-objective DSE query under a TDP budget, on a synthesized
//! # 10⁴-candidate catalog, exporting the result set and demonstrating
//! # the session plan cache
//! cargo run -p f1-skyline --bin skyline -- --dse --synth 22 \
//!     --objectives velocity,tdp,payload,energy --max-tdp 20 \
//!     --top-k 10 --json out.json --repeat 3
//!
//! # the same query at 10⁷ candidates (216³ per airframe): past ~2M
//! # candidates the session streams automatically — only the Pareto
//! # frontier, bounded top-k and accounting are kept, in ~1 s release
//! cargo run --release -p f1-skyline --bin skyline -- --dse --synth 216 \
//!     --objectives velocity,tdp,payload,energy --keep-points frontier \
//!     --top-k 10
//!
//! # evolve the catalog with JSON deltas (see CatalogDelta::from_json
//! # for the schema): each --delta publishes a new epoch, and the
//! # session repairs the cached result incrementally instead of
//! # re-running the full pass
//! cargo run -p f1-skyline --bin skyline -- --dse --synth 22 \
//!     --delta retire_tx2.json --delta add_orin.json
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::{Catalog, CatalogDelta, CatalogStore};
use f1_skyline::chart::{roofline_chart, OperatingPoint};
use f1_skyline::mission::{analyze_mission, MissionSpec};
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::UavSystem;
use f1_units::{Hertz, Meters, Watts};

/// Seed for `--synth` catalogs, fixed so runs are reproducible.
const SYNTH_SEED: u64 = 42;

struct Args {
    airframe: Option<String>,
    sensor: Option<String>,
    compute: Option<String>,
    algorithm: Option<String>,
    list: bool,
    chart: bool,
    dse: bool,
    dse_top: usize,
    mission_m: Option<f64>,
    objectives: Vec<Objective>,
    max_tdp: Option<f64>,
    battery: Option<String>,
    synth: Option<usize>,
    keep_points: Option<KeepPoints>,
    top_k: Option<usize>,
    json: Option<String>,
    repeat: usize,
    deltas: Vec<String>,
}

/// Parses a flag's number; NaN and infinities are usage errors, not
/// values the unit types would panic on.
fn finite(v: &str, what: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("bad {what} {v:?} (expected a finite number)"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        airframe: None,
        sensor: None,
        compute: None,
        algorithm: None,
        list: false,
        chart: false,
        dse: false,
        dse_top: 5,
        mission_m: None,
        objectives: Vec::new(),
        max_tdp: None,
        battery: None,
        synth: None,
        keep_points: None,
        top_k: None,
        json: None,
        repeat: 1,
        deltas: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--airframe" => args.airframe = Some(value("--airframe")?),
            "--sensor" => args.sensor = Some(value("--sensor")?),
            "--compute" => args.compute = Some(value("--compute")?),
            "--algorithm" => args.algorithm = Some(value("--algorithm")?),
            "--battery" => args.battery = Some(value("--battery")?),
            "--mission" => {
                args.mission_m = Some(finite(&value("--mission")?, "mission distance")?);
            }
            "--list" => args.list = true,
            "--chart" => args.chart = true,
            "--dse" => args.dse = true,
            "--dse-top" => {
                let v = value("--dse-top")?;
                args.dse_top = v
                    .parse()
                    .map_err(|_| format!("bad --dse-top count {v:?}"))?;
            }
            "--top-k" => {
                let v = value("--top-k")?;
                let n: usize = v.parse().map_err(|_| format!("bad --top-k count {v:?}"))?;
                if n == 0 {
                    return Err("--top-k must be at least 1".into());
                }
                args.top_k = Some(n);
            }
            "--json" => args.json = Some(value("--json")?),
            "--delta" => args.deltas.push(value("--delta")?),
            "--repeat" => {
                let v = value("--repeat")?;
                let n: usize = v.parse().map_err(|_| format!("bad --repeat count {v:?}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                args.repeat = n;
            }
            "--objectives" => {
                let v = value("--objectives")?;
                args.objectives = v
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--max-tdp" => {
                args.max_tdp = Some(finite(&value("--max-tdp")?, "--max-tdp watts")?);
            }
            "--synth" => {
                let v = value("--synth")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --synth family size {v:?}"))?;
                if n == 0 {
                    return Err("--synth needs at least 1 part per family".into());
                }
                args.synth = Some(n);
            }
            "--keep-points" => {
                let v = value("--keep-points")?;
                args.keep_points = Some(match v.as_str() {
                    "auto" => KeepPoints::Auto,
                    "all" => KeepPoints::All,
                    "frontier" => KeepPoints::FrontierOnly,
                    _ => return Err(format!("bad --keep-points mode {v:?} (auto|all|frontier)")),
                });
            }
            "--help" | "-h" => {
                println!(
                    "skyline — F-1 bottleneck analysis for UAV onboard compute\n\n\
                     usage:\n  skyline --list\n  skyline --dse [--airframe NAME] [--dse-top N]\n\
                     \x20         [--objectives velocity,tdp,payload,energy,endurance]\n\
                     \x20         [--max-tdp WATTS] [--battery NAME] [--synth N_PER_FAMILY]\n\
                     \x20         [--keep-points auto|all|frontier]\n\
                     \x20         [--top-k N] [--json PATH] [--repeat N] [--delta FILE ...]\n\
                     \x20 skyline --airframe NAME --sensor NAME --compute NAME \
                     --algorithm NAME [--chart] [--mission METERS]\n\n\
                     --objectives: comma-separated; the first is the primary ranking \
                     objective.\n--synth N: explore a deterministic synthetic catalog with \
                     N parts per family\n  (N³ candidates per airframe) instead of the \
                     paper catalog.\n--battery NAME: mount a catalog battery (required \
                     for the endurance objective).\n--keep-points: point materialization \
                     — auto (default: stream past ~2M\n  candidates), all (always \
                     materialize), frontier (always stream:\n  frontier + top-k only, \
                     bounded memory).\n--top-k N: also print the overall best N builds via \
                     the bounded-heap\n  selection (no full ranking sort).\n--json PATH: \
                     export the columnar result set as JSON.\n--repeat N: run the compiled \
                     plan N times through one session to\n  demonstrate plan-cache hits.\n\
                     --delta FILE: apply a JSON catalog delta (add/retire parts, patch\n\
                     \x20 throughputs) publishing a new epoch, then repair the cached\n\
                     \x20 result incrementally instead of re-running the full pass; repeat\n\
                     \x20 the flag to stack epochs. The final report reflects the last\n\
                     \x20 epoch."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn list_catalog(catalog: &Catalog) {
    println!("airframes:");
    for a in catalog.airframes() {
        println!("  {a}");
    }
    println!("sensors:");
    for s in catalog.sensors() {
        println!("  {s}");
    }
    println!("compute platforms:");
    for c in catalog.computes() {
        println!("  {c}");
    }
    println!("algorithms:");
    for a in catalog.algorithms() {
        println!("  {a}");
    }
    println!("characterized throughputs:");
    for (p, a, f) in catalog.matrix().iter() {
        println!("  {a} on {p}: {f:.2}");
    }
}

fn human_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} µs", ns as f64 / 1e3)
    }
}

fn describe_point(catalog: &Catalog, result: &ResultSet, index: usize) -> String {
    let point = result.point(index);
    let parts = format!(
        "{:<18} + {:<18} + {:<26}",
        catalog.sensor_by_id(point.candidate.sensor).name(),
        catalog.compute_by_id(point.candidate.compute).name(),
        catalog.algorithm_by_id(point.candidate.algorithm).name(),
    );
    let values = result
        .row(index)
        .iter()
        .zip(result.objectives())
        .map(|(v, o)| format!("{v:>8.2} {}", o.unit()))
        .collect::<Vec<_>>()
        .join("  ");
    let setting = if point.setting.is_identity() {
        String::new()
    } else {
        format!("  [{}]", point.setting.describe())
    };
    format!("{parts} {values}{setting}")
}

/// Compiles the CLI request into a `QueryPlan`, executes it through a
/// `Session` (optionally `--repeat`ed to exercise the plan cache), and
/// prints the ranked report plus the Pareto frontier over the requested
/// objectives.
fn dse_report(catalog: &Arc<Catalog>, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = QueryPlan::builder();
    if !args.objectives.is_empty() {
        builder = builder.objectives(&args.objectives);
    }
    if let Some(name) = args.airframe.as_deref() {
        // One airframe: explore just that slice of the design space
        // (failing loudly on a typo'd name instead of printing nothing).
        builder = builder.airframes(&[catalog.airframe_id(name).map_err(|e| e.to_string())?]);
    }
    if let Some(watts) = args.max_tdp {
        builder = builder.constraint(Constraint::MaxTotalTdp(Watts::new(watts)));
    }
    if let Some(name) = args.battery.as_deref() {
        builder = builder.battery(catalog.battery_id(name).map_err(|e| e.to_string())?);
    }
    if let Some(keep_points) = args.keep_points {
        builder = builder.keep_points(keep_points);
    }
    // Stringify so a failed build/run prints its Display form, not Debug.
    let plan = builder.build().map_err(|e| e.to_string())?;

    let store = Arc::new(CatalogStore::from_shared(Arc::clone(catalog)));
    let session = Session::over(Arc::clone(&store));
    let mut timings: Vec<Duration> = Vec::with_capacity(args.repeat);
    let mut result = None;
    for _ in 0..args.repeat {
        let start = Instant::now();
        result = Some(session.run(&plan).map_err(|e| e.to_string())?);
        timings.push(start.elapsed());
    }
    let mut result = result.expect("--repeat is at least 1");

    // Each --delta publishes a new catalog epoch; the session repairs
    // the cached result across it instead of re-running the full pass.
    for path in &args.deltas {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read delta {path}: {e}"))?;
        let delta = CatalogDelta::from_json(&text).map_err(|e| e.to_string())?;
        let snapshot = store.apply(&delta).map_err(|e| e.to_string())?;
        let start = Instant::now();
        result = session.refresh(&plan).map_err(|e| e.to_string())?;
        println!(
            "delta {path}: {} ops -> {} (digest {:016x}), result refreshed in {} \
             ({} incremental repairs so far)",
            delta.op_count(),
            snapshot.epoch(),
            snapshot.digest(),
            human_duration(start.elapsed()),
            session.cache_stats().repairs,
        );
    }
    let catalog = &session.catalog();
    let objectives = result.objectives();
    let primary = objectives[0];

    println!(
        "query @ {} (digest {:016x}): {} objectives ({} primary), {} points kept, \
         {} dropped by constraints, {} feasible with non-finite objectives (off-frontier)",
        session.epoch(),
        store.current().digest(),
        objectives.len(),
        primary,
        result.len(),
        result.dropped(),
        result.nonfinite(),
    );
    if let Some(stored) = result.stored_indices() {
        println!(
            "streamed: {} of {} points stored (frontier ∪ top-{}), the rest reduced \
             shard-by-shard",
            stored.len(),
            result.len(),
            f1_skyline::shard::STREAM_TOP_K,
        );
    }
    let stats = session.cache_stats();
    if args.repeat > 1 {
        let cached_avg = timings[1..]
            .iter()
            .sum::<Duration>()
            .div_f64((args.repeat - 1) as f64);
        println!(
            "plan cache: run 1 computed in {}, runs 2-{} served from cache in {} avg \
             ({} hits / {} misses, {} entries; key {:.48}…)",
            human_duration(timings[0]),
            args.repeat,
            human_duration(cached_avg),
            stats.hits,
            stats.misses,
            stats.entries,
            plan.key(),
        );
    }

    let ranked = result.ranked();
    for (airframe_id, airframe) in catalog.airframe_entries() {
        let per_airframe: Vec<usize> = ranked
            .iter()
            .copied()
            .filter(|&i| result.point(i).airframe == airframe_id)
            .collect();
        if per_airframe.is_empty() {
            continue;
        }
        let feasible = per_airframe
            .iter()
            .filter(|&&i| result.point(i).outcome.feasible)
            .count();
        println!(
            "━━ {}: {} candidates ({} feasible, {} uncharacterized pairs skipped) ━━",
            airframe.name(),
            per_airframe.len(),
            feasible,
            result.uncharacterized(),
        );
        for &index in per_airframe.iter().take(args.dse_top) {
            let verdict = if result.point(index).outcome.feasible {
                describe_point(catalog, &result, index)
            } else {
                format!("{} cannot hover", describe_point(catalog, &result, index))
            };
            println!("  {verdict}");
        }
    }

    if let Some(k) = args.top_k {
        println!("top {k} overall by {primary} (bounded-heap top_k, no full sort):");
        for index in result.top_k(k) {
            let airframe = catalog.airframe_by_id(result.point(index).airframe).name();
            println!(
                "  {airframe:<18} {}",
                describe_point(catalog, &result, index)
            );
        }
    }

    println!(
        "Pareto frontier over ({}):",
        objectives
            .iter()
            .map(|o| format!("{o} {}", if o.maximize() { "↑" } else { "↓" }))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for &index in result.frontier() {
        let airframe = catalog.airframe_by_id(result.point(index).airframe).name();
        println!(
            "  {airframe:<18} {}",
            describe_point(catalog, &result, index)
        );
    }

    if let Some(path) = args.json.as_deref() {
        std::fs::write(path, result.to_json(catalog))?;
        println!(
            "wrote {} points ({} objective columns) to {path}",
            result.len(),
            objectives.len()
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    let catalog = Arc::new(match args.synth {
        Some(n_per_family) => Catalog::synthesize(SYNTH_SEED, n_per_family),
        None => Catalog::paper(),
    });
    if args.list {
        list_catalog(&catalog);
        return Ok(());
    }
    if args.dse {
        return dse_report(&catalog, &args);
    }
    let (Some(airframe), Some(sensor), Some(compute), Some(algorithm)) =
        (&args.airframe, &args.sensor, &args.compute, &args.algorithm)
    else {
        return Err("need --airframe, --sensor, --compute and --algorithm (or --list)".into());
    };
    let system = UavSystem::from_catalog(&catalog, airframe, sensor, compute, algorithm)?;
    let analysis = system.analyze()?;
    println!("{analysis}");

    if let Some(distance) = args.mission_m {
        let mission = analyze_mission(&system, &MissionSpec::over(Meters::new(distance)))?;
        println!(
            "mission {distance:.0} m: {:.1} at {:.2} using {:.1} Wh \
             (bottleneck penalty: {:+.1}% time, {:+.1}% energy)",
            mission.at_cruise.duration.to_minutes(),
            mission.cruise,
            mission.at_cruise.energy_wh,
            mission.time_penalty_percent(),
            mission.energy_penalty_percent(),
        );
    }

    if args.chart {
        let roofline = system.roofline()?;
        let rates = system.stage_rates()?;
        let op = OperatingPoint {
            label: format!("{algorithm} @ {:.1}", rates.compute()),
            rate: rates.compute(),
            velocity: roofline.velocity_at(rates.action_throughput()),
        };
        let chart = roofline_chart(
            &format!("{airframe} / {compute} / {algorithm}"),
            &[(airframe.clone(), roofline)],
            &[op],
            Hertz::new(0.5),
            Hertz::new(1000.0),
        )?;
        println!("{}", chart.render_ascii(100, 28)?);
    }
    Ok(())
}
