//! End-to-end benchmark of c4cam.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-batch-hdc|paper-batch-knn|dse-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs untraced for `S` seconds and the
//! last line of standard output is a JSON object with the end-to-end
//! metrics; with `--trace 1` it runs the workload's traced pass and
//! reports the per-layer metrics instead. Every answer is checked
//! against a CPU reference. See `perfbench/README.md`.

mod apps;
mod client;
mod dse_sweep;
mod ledger;
mod metrics;
mod paper_batch;
mod roofline;
mod served;
mod stats;
mod trace;

use metrics::Outcome;
use paper_batch::PaperApp;
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` gives them.
const WORKLOADS: &[&str] = &["paper-batch-hdc", "paper-batch-knn", "dse-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected {})",
            WORKLOADS.join("|")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A seed for one input stream of a run, so streams of one run differ
/// and every stream depends on the run's seed (splitmix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `paper-batch-*` executor threads: 2, or fewer on a smaller host.
pub fn executor_threads() -> usize {
    available_cores().min(2)
}

/// Client connections of the served path (one thread each): 2, or
/// fewer on a smaller host.
pub fn connections() -> usize {
    available_cores().min(2)
}

/// `serve-child ARGS`: run `c4cam serve ARGS` in this process. The
/// traced served path starts its server this way, so the server is
/// the CLI's own serve command built from the same sources.
fn serve_child(args: &[String]) -> ExitCode {
    let mut argv = vec!["serve".to_string()];
    argv.extend_from_slice(args);
    let command = match c4cam::cli::parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match c4cam::cli::execute(&command) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Cumulative (steal, total) CPU ticks from `/proc/stat`, where the
/// host reports them: a run with much stolen time measured the host's
/// neighbours as well as the program.
fn steal_share() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("paper-batch-hdc", false) => paper_batch::run(PaperApp::Hdc, args.seed, args.seconds),
        ("paper-batch-hdc", true) => paper_batch::trace(PaperApp::Hdc, args.seed),
        ("paper-batch-knn", false) => paper_batch::run(PaperApp::Knn, args.seed, args.seconds),
        ("paper-batch-knn", true) => paper_batch::trace(PaperApp::Knn, args.seed),
        ("dse-sweep", false) => dse_sweep::run(args.seed, args.seconds),
        ("dse-sweep", true) => dse_sweep::trace(args.seed),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        return serve_child(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_before = steal_share();
    let line = run(&args).and_then(|outcome| {
        if let (Some(before), Some(after)) = (steal_before, steal_share()) {
            let (steal, total) = (after.0 - before.0, after.1 - before.1);
            eprintln!(
                "host: {:.1}% of CPU time was stolen by the hypervisor during the run",
                100.0 * steal as f64 / total.max(1) as f64
            );
        }
        for p in &outcome.problems {
            eprintln!("check failed: {p}");
        }
        outcome.render(args.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
