//! `dse-sweep`: the paper's design-space exploration, cold.
//!
//! Every grid point compiles every app from scratch (frontend, IR
//! passes, placement, tape) and programs a fresh machine, then runs 8
//! queries, so compile and programming dominate and searches are a
//! small share. The grid is 5 subarray sizes × 4 optimization targets ×
//! 3 technologies × 2 cell widths = 120 points on 1 thread; each point
//! runs as a one-point `SweepPlan`, which is how its latency is seen.

use crate::apps::{App, TopkApp};
use crate::derive_seed;
use crate::ledger::run_passes;
use crate::metrics::{over_apps, peak_rss_mb, Outcome};
use crate::roofline;
use crate::stats::{median, percentile};
use crate::trace::run_app;
use c4cam::arch::tech::TechnologyModel;
use c4cam::arch::{ArchSpec, Optimization};
use c4cam::driver::{build_arch, paper_arch};
use c4cam::sweep::{SweepPlan, DEFAULT_OPTIMIZATIONS, DEFAULT_SUBARRAY_SIZES};
use c4cam::workloads::{DtreeWorkload, HdcWorkload, KnnWorkload, WorkloadInputs};
use std::time::{Duration, Instant};

/// Set-up repetitions before the first sweep and before each timed
/// sweep; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;
const SETUP_REPS_PER_SWEEP: usize = 4;
/// Queries every app runs at every point.
const QUERIES: usize = 8;
const CELL_BITS: [u32; 2] = [1, 2];
/// The paper's hierarchy, as `SweepPlan` uses by default.
const HIERARCHY: (usize, usize, usize) = (4, 4, 8);

/// One grid point, in `SweepPlan::grid` order (optimization outermost,
/// then subarray size, technology, cell width).
struct Point {
    subarray: usize,
    optimization: Optimization,
    tech: (String, Option<TechnologyModel>),
    bits: u32,
}

fn technologies() -> Vec<(String, Option<TechnologyModel>)> {
    vec![
        ("default".to_string(), None),
        (
            "fefet-45nm".to_string(),
            Some(TechnologyModel::fefet_45nm()),
        ),
        (
            "cmos-16nm".to_string(),
            Some(TechnologyModel::cmos_tcam_16nm()),
        ),
    ]
}

fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for optimization in DEFAULT_OPTIMIZATIONS {
        for subarray in DEFAULT_SUBARRAY_SIZES {
            for tech in technologies() {
                for bits in CELL_BITS {
                    points.push(Point {
                        subarray,
                        optimization,
                        tech: tech.clone(),
                        bits,
                    });
                }
            }
        }
    }
    points
}

impl Point {
    /// A sweep of this one point for `app`.
    fn plan<'a>(&self, app: &'a App) -> SweepPlan<'a> {
        SweepPlan::new(app.workload())
            .subarrays([(self.subarray, self.subarray)])
            .optimizations([self.optimization])
            .technologies([self.tech.clone()])
            .bits([self.bits])
            .hierarchy(HIERARCHY.0, HIERARCHY.1, HIERARCHY.2)
    }

    fn spec(&self) -> Result<ArchSpec, String> {
        build_arch(
            (self.subarray, self.subarray),
            HIERARCHY,
            self.optimization,
            self.bits,
        )
        .map_err(|e| e.to_string())
    }
}

/// Small HDC (10 × 1024), small KNN (256 × 256), a depth-5 decision
/// tree over 16 features (ACAM) and `knn_topk.py` (32 × 256) through the
/// TorchScript frontend.
fn apps(seed: u64) -> Vec<App> {
    vec![
        App::Hdc(HdcWorkload {
            classes: 10,
            dims: 1024,
            queries: QUERIES,
            flip_rate: 0.1,
            seed: derive_seed(seed, 11),
        }),
        App::Knn(KnnWorkload {
            patterns: 256,
            dims: 256,
            queries: QUERIES,
            k: 5,
            noise: 0.2,
            seed: derive_seed(seed, 12),
        }),
        App::Dtree(DtreeWorkload::new(16, 4, 5, QUERIES, derive_seed(seed, 13))),
        App::Topk(TopkApp {
            stored: 32,
            dims: 256,
            queries: QUERIES,
            noise: 0.1,
            seed: derive_seed(seed, 14),
        }),
    ]
}

/// Expected answers of every app, per cell width in [`CELL_BITS`].
type References = Vec<[Vec<usize>; 2]>;

/// An architecture of cell width `bits`; the module and inputs of every
/// app depend on the architecture only through its cell width.
fn width_spec(bits: u32) -> ArchSpec {
    paper_arch(16, Optimization::Base, bits)
}

/// The apps of `seed`, their TorchScript source checked once.
fn checked_apps(seed: u64) -> Result<Vec<App>, String> {
    let apps = apps(seed);
    for app in &apps {
        if let App::Topk(t) = app {
            t.check_source()?;
        }
    }
    Ok(apps)
}

/// The set-up a user of the sweep waits for: every app's module
/// (`build_module`, the frontend for `knn_topk.py`) and inputs at each
/// cell width.
fn generate(apps: &[App]) -> Vec<[WorkloadInputs; 2]> {
    apps.iter()
        .map(|app| {
            CELL_BITS.map(|bits| {
                let spec = width_spec(bits);
                std::hint::black_box(app.workload().build_module(&spec));
                app.workload().inputs(&spec)
            })
        })
        .collect()
}

/// The CPU reference answers to the inputs [`generate`] made.
fn references(apps: &[App], inputs: &[[WorkloadInputs; 2]]) -> References {
    apps.iter()
        .zip(inputs)
        .map(|(app, per_width)| {
            [0, 1].map(|b| app.reference(&width_spec(CELL_BITS[b]), &per_width[b]))
        })
        .collect()
}

fn bits_index(bits: u32) -> usize {
    usize::from(bits == CELL_BITS[1])
}

/// Run whole sweeps untraced until `seconds` have passed (at least
/// one).
///
/// # Errors
/// A set-up error or an invalid grid point.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let apps = checked_apps(seed)?;
    let mut setup = Vec::new();
    let mut references = Vec::new();
    // The references are computed after each repetition, untimed:
    // computed once after the loop, they leave the heap laid out so
    // that `peak_rss_mb` spreads over runs several times wider.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let inputs = generate(&apps);
        setup.push(t.elapsed().as_secs_f64());
        references = self::references(&apps, &inputs);
    }
    let grid = grid();

    // One untimed sweep first, so every code path and allocation size
    // the sweep uses is warm; its answers are checked like the rest.
    for point in &grid {
        for (a, app) in apps.iter().enumerate() {
            out.check(point.plan(app).run().is_ok_and(|o| {
                o.points.len() == 1
                    && o.points[0].outcome.predictions == references[a][bits_index(point.bits)]
            }));
        }
    }
    // Peak memory of set-up and one sweep: read here, it does not
    // depend on how many sweeps the host's speed let the run make.
    let peak_rss = peak_rss_mb(None).ok_or("no /proc/self/status")?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // Latency of every (point, app) in every sweep, and the time of
    // each whole sweep.
    let mut latencies = vec![Vec::new(); grid.len() * apps.len()];
    let mut sweep_secs = Vec::new();
    // Simulated (latency, energy) per query of every app at every
    // point, from the first sweep; later sweeps must repeat them.
    let mut sim: Vec<Option<(f64, f64)>> = vec![None; grid.len() * apps.len()];
    while sweep_secs.is_empty() || Instant::now() < deadline {
        // More set-up repetitions between sweeps, so `setup_s` is a
        // median over the whole run rather than over its first moment.
        for _ in 0..SETUP_REPS_PER_SWEEP {
            let t = Instant::now();
            std::hint::black_box(generate(&apps));
            setup.push(t.elapsed().as_secs_f64());
        }
        let sweep = Instant::now();
        for (p, point) in grid.iter().enumerate() {
            for (a, app) in apps.iter().enumerate() {
                let plan = point.plan(app);
                let t = Instant::now();
                let result = plan.run();
                latencies[p * apps.len() + a].push(t.elapsed().as_secs_f64());
                let point_run = match result.map(|mut o| o.points.pop()) {
                    Ok(Some(p)) => p,
                    other => {
                        eprintln!("dse-sweep: {}: {:?}", app.workload().name(), other.err());
                        out.check(false);
                        continue;
                    }
                };
                let cost = (
                    point_run.latency_per_query_ns(),
                    point_run.energy_per_query_pj(),
                );
                match sim[p * apps.len() + a].get_or_insert(cost) {
                    first if *first == cost => {}
                    _ => out.problem(format!(
                        "{} at {}: simulated cost changed between sweeps",
                        app.workload().name(),
                        point_run.grid
                    )),
                }
                out.check(point_run.outcome.predictions == references[a][bits_index(point.bits)]);
            }
        }
        sweep_secs.push(sweep.elapsed().as_secs_f64());
    }
    // Each (point, app) repeats the same work in every sweep and the
    // host only ever adds time to it, so its fastest run is its cost
    // without the host's noise, which swings whole sweeps by 20-30%
    // within seconds.
    let fastest: Vec<f64> = latencies
        .iter()
        .map(|l| l.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    eprintln!(
        "dse-sweep: {} sweeps, median {:.1} ms, slowest {:.1} ms, fastest runs sum to {:.1} ms",
        sweep_secs.len(),
        median(&sweep_secs) * 1e3,
        percentile(&sweep_secs, 100.0).unwrap_or(f64::NAN) * 1e3,
        fastest.iter().sum::<f64>() * 1e3,
    );
    let sim =
        |f: fn(&(f64, f64)) -> f64| over_apps(sim.iter().map(|s| s.as_ref().map_or(f64::NAN, f)));
    out.set("setup_s", median(&setup));
    out.set(
        "queries_per_s",
        (QUERIES * fastest.len()) as f64 / fastest.iter().sum::<f64>(),
    );
    out.set(
        "p50_ms",
        over_apps((0..apps.len()).map(|a| {
            let app_points: Vec<f64> = fastest
                .iter()
                .skip(a)
                .step_by(apps.len())
                .copied()
                .collect();
            median(&app_points) * 1e3
        })),
    );
    out.set("sim_latency_ns_per_query", sim(|s| s.0));
    out.set("sim_energy_pj_per_query", sim(|s| s.1));
    out.set("peak_rss_mb", peak_rss);
    Ok(out)
}

/// The traced run: one sweep through every layer, in the three passes
/// of [`run_passes`].
///
/// # Errors
/// A set-up error or any layer's error.
pub fn trace(seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("host.memcpy_gbps", roofline::memcpy_gbps());
    out.set("host.popcnt_gops", roofline::popcnt_gops());
    let apps = checked_apps(seed)?;
    let references = references(&apps, &generate(&apps));
    let grid = grid();
    let specs = grid
        .iter()
        .map(Point::spec)
        .collect::<Result<Vec<_>, _>>()?;

    let passes = run_passes(|l| {
        let mut runs = Vec::with_capacity(grid.len() * apps.len());
        for (point, spec) in grid.iter().zip(&specs) {
            for app in &apps {
                runs.push(run_app(
                    l,
                    app.workload(),
                    app.uses_frontend(),
                    spec,
                    &point.tech.1,
                    1,
                )?);
            }
        }
        Ok(runs)
    })?;
    let expected: Vec<Vec<usize>> = grid
        .iter()
        .flat_map(|point| references.iter().map(|r| r[bits_index(point.bits)].clone()))
        .collect();
    out.check_app_runs("dse-sweep", &passes.traced, &passes.untraced, &expected);
    out.set_app_layers(&passes.ledger, &passes.traced.iter().collect::<Vec<_>>());
    out.close_ledger("dse-sweep", &passes, (0.0, 0.0));
    Ok(out)
}
