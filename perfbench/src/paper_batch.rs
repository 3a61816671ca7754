//! `paper-batch-hdc` and `paper-batch-knn`: one of the paper's two
//! evaluation applications at paper scale, compiled once and then
//! executed batch after batch.
//!
//! The two workloads run the same code on a different app, so each
//! reports its own throughput and latency: HDC has a tiny working set
//! and never reprograms the CAM; KNN's stored set (21 M cells) is far
//! beyond the last-level cache and each batch reprograms it.
//! Compilation happens only in set-up.

use crate::apps::App;
use crate::ledger::run_passes;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::roofline;
use crate::served::Served;
use crate::stats::{median, percentile};
use crate::trace::{run_app, same_stats};
use crate::{derive_seed, executor_threads};
use c4cam::arch::{ArchSpec, Optimization};
use c4cam::driver::{paper_arch, CompiledExperiment, Experiment};
use c4cam::workloads::{HdcWorkload, KnnWorkload};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Batches the app runs at least, even past the deadline.
const MIN_BATCHES: usize = 3;

/// Which of the paper's apps a `paper-batch-*` workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperApp {
    /// HDC at 10 × 8192 on a 1-bit TCAM, 1024 queries per batch.
    Hdc,
    /// KNN at 5216 × 4096 on a 2-bit MCAM, 32 queries per batch.
    Knn,
}

impl PaperApp {
    /// The workload's name.
    fn name(self) -> &'static str {
        match self {
            PaperApp::Hdc => "paper-batch-hdc",
            PaperApp::Knn => "paper-batch-knn",
        }
    }

    /// The app and its architecture, on 64 × 64 subarrays.
    fn app(self, seed: u64) -> (App, ArchSpec) {
        match self {
            PaperApp::Hdc => (
                App::Hdc(HdcWorkload {
                    seed: derive_seed(seed, 1),
                    ..HdcWorkload::paper(1024)
                }),
                paper_arch(64, Optimization::Base, 1),
            ),
            PaperApp::Knn => (
                App::Knn(KnnWorkload {
                    seed: derive_seed(seed, 2),
                    ..KnnWorkload::paper(32)
                }),
                paper_arch(64, Optimization::Base, 2),
            ),
        }
    }
}

/// Run the workload untraced for `seconds` of batches.
///
/// # Errors
/// A compile error (an execution error is a failed operation).
pub fn run(which: PaperApp, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (app, spec) = which.app(seed);
    let name = which.name();
    let mut out = Outcome::default();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut compiled: Option<CompiledExperiment> = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's machine is freed before the next
        // compile, so peak memory holds one.
        drop(compiled.take());
        let t = Instant::now();
        compiled = Some(
            Experiment::new(app.workload())
                .arch(spec.clone())
                .threads(executor_threads())
                .compile()
                .map_err(|e| format!("{name}: {e}"))?,
        );
        setup.push(t.elapsed().as_secs_f64());
    }
    let compiled = compiled.expect("at least one set-up repetition");
    let reference = app.reference(&spec, &app.workload().inputs(&spec));

    // The first batch faults in the machine's memory; it is checked but
    // not timed.
    out.check(compiled.run().is_ok_and(|run| run.predictions == reference));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut latencies = Vec::new();
    let mut first = None;
    while latencies.len() < MIN_BATCHES || Instant::now() < deadline {
        let t = Instant::now();
        let result = compiled.run();
        latencies.push(t.elapsed().as_secs_f64());
        match result {
            Ok(run) => {
                let (total, query_phase, _) = first.get_or_insert_with(|| {
                    (
                        run.total.clone(),
                        run.query_phase.clone(),
                        (run.latency_per_query_ns(), run.energy_per_query_pj()),
                    )
                });
                if !same_stats(total, &run.total, true)
                    || !same_stats(query_phase, &run.query_phase, true)
                {
                    out.problem(format!("{name}: device stats changed between batches"));
                }
                out.check(run.predictions == reference);
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                out.check(false);
            }
        }
    }

    eprintln!(
        "{name}: {} batches, median {:.1} ms, slowest {:.1} ms",
        latencies.len(),
        median(&latencies) * 1e3,
        percentile(&latencies, 100.0).unwrap_or(f64::NAN) * 1e3,
    );
    let queries = app.workload().query_count() * latencies.len();
    let (sim_latency, sim_energy) = first.map_or((f64::NAN, f64::NAN), |f| f.2);
    out.set("setup_s", median(&setup));
    out.set(
        "queries_per_s",
        queries as f64 / latencies.iter().sum::<f64>(),
    );
    out.set("p50_ms", median(&latencies) * 1e3);
    out.set("sim_latency_ns_per_query", sim_latency);
    out.set("sim_energy_pj_per_query", sim_energy);
    out.set(
        "peak_rss_mb",
        peak_rss_mb(None).ok_or("no /proc/self/status")?,
    );
    Ok(out)
}

/// The traced run: the app once through every layer in the three
/// passes of [`run_passes`]. `paper-batch-knn` adds the served KNN
/// path ([`Served::pass`]): serving is too unsteady on a small shared
/// host to be a gated workload, and its layers must still be measured.
///
/// # Errors
/// Any layer's error.
pub fn trace(which: PaperApp, seed: u64) -> Result<Outcome, String> {
    let (app, spec) = which.app(seed);
    let name = which.name();
    let threads = executor_threads();
    let mut out = Outcome::default();
    out.set("host.memcpy_gbps", roofline::memcpy_gbps());
    out.set("host.popcnt_gops", roofline::popcnt_gops());
    let served = match which {
        PaperApp::Knn => Some(Served::new(seed)?),
        PaperApp::Hdc => None,
    };

    let passes = run_passes(|l| {
        let run = run_app(
            l,
            app.workload(),
            app.uses_frontend(),
            &spec,
            &None,
            threads,
        )?;
        let session = served.as_ref().map(|s| s.pass(l)).transpose()?;
        Ok((run, session))
    })?;
    let ((run, session), (untraced_run, untraced_session)) = (&passes.traced, &passes.untraced);
    let expected = app.reference(&spec, &run.inputs);
    out.check_app_runs(
        name,
        std::slice::from_ref(run),
        std::slice::from_ref(untraced_run),
        &[expected],
    );
    let mut runs = vec![run];
    // The served session keeps to a fixed schedule whether traced or
    // not, so it is left out of the tracing overhead.
    let mut fixed_ns = (0.0, 0.0);
    if let (Some(served), Some(s), Some(u)) = (&served, session, untraced_session) {
        served.report(&mut out, &passes.ledger, s, u);
        runs.push(&s.app);
        fixed_ns = (s.session_ns, u.session_ns);
    }
    out.set_app_layers(&passes.ledger, &runs);
    out.close_ledger(name, &passes, fixed_ns);
    Ok(out)
}
