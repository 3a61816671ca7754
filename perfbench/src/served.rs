//! The served KNN path: a KNN classifier served by `c4cam serve` over
//! TCP, measured layer by layer in `paper-batch-knn`'s traced run.
//!
//! The benchmark writes a seeded CSV dataset (1024 samples × 128
//! features, 4 classes; the last quarter is the query pool), starts a
//! server child process on it (1 executor thread, default batching)
//! and sends classify requests of 1–4 pool rows in an open loop at a
//! fixed rate on up to 2 connections, each timed from its due time.
//! This is the only path that runs the server layers: decode, admission
//! and batching, plan cache, padded batch execution and encode.

use crate::client::{open_loop, Record};
use crate::ledger::Ledger;
use crate::metrics::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{run_app, same_stats, AppRun};
use crate::{connections, derive_seed};
use c4cam::arch::Optimization;
use c4cam::datasets::{Dataset, DatasetTask, DatasetWorkload};
use c4cam::driver::build_arch;
use c4cam::service::{reference_pool_classes, DatasetPlanSource};
use c4cam::telemetry::Telemetry;
use c4cam::workloads::nearest_rows_cpu;
use c4cam_server::json::Json;
use c4cam_server::protocol::{classify_response, parse_request, ClassifyReply, PlanKey};
use c4cam_server::{send_shutdown, BatchRunner, PlanSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 1024;
const FEATURES: usize = 128;
const CLASSES: usize = 4;
/// `c4cam serve`'s default batch capacity.
const MAX_BATCH: usize = 16;
/// Arrival rate, requests per second over all connections.
/// Spaced-out requests rarely share a batch, so each costs the server a
/// linger plus a padded batch (about 9.5 ms on a 2-vCPU x86-64 VM) and
/// the open-loop capacity is about 105 requests/s; this rate is a
/// little over half of that.
const RATE: f64 = 60.0;
/// Requests in the open-loop session.
const REQUESTS: usize = 200;

/// The plan every request uses: the server's default key with the KNN
/// task (2-bit cells on 32 × 32 subarrays).
fn plan_key() -> PlanKey {
    PlanKey {
        task: "knn".to_string(),
        bits: 2,
        subarray: 32,
        backend: "tape".to_string(),
    }
}

/// Write the seeded dataset: class centroids drawn uniformly from
/// [0, 1), samples scattered around their class's centroid.
fn write_dataset(path: &Path, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 31));
    let centroids: Vec<Vec<f64>> = (0..CLASSES)
        .map(|_| (0..FEATURES).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let mut text = String::with_capacity(SAMPLES * FEATURES * 7);
    for _ in 0..SAMPLES {
        let class = rng.gen_range(0..CLASSES);
        text.push_str(&class.to_string());
        for &c in &centroids[class] {
            let v: f64 = c + rng.gen_range(-0.3..0.3);
            text.push_str(&format!(",{v:.4}"));
        }
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Where the dataset goes: beside the benchmark's executable, in the
/// build directory.
fn dataset_path(seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!("perfbench-knn-{seed}.csv")))
}

/// A `c4cam serve` child process, killed and reaped if dropped while
/// still running.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Start the server and wait until it listens.
    fn start(dataset: &Path) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg("--dataset")
            .arg(dataset)
            .args(["--workload", "knn", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("server output: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not start: {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// Ask the server to stop and wait for it to exit cleanly.
    fn shutdown(mut self) -> Result<(), String> {
        send_shutdown(&self.addr)?;
        // Drain its final report so it never writes to a closed pipe.
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("server output: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Seeded classify requests of 1–4 pool rows.
struct Requests {
    rng: StdRng,
    pool: usize,
    next_id: u64,
}

impl Requests {
    fn new(seed: u64, pool: usize) -> Requests {
        Requests {
            rng: StdRng::seed_from_u64(seed),
            pool,
            next_id: 0,
        }
    }

    fn next_line(&mut self) -> String {
        let n = self.rng.gen_range(1..5usize);
        let rows: Vec<String> = (0..n)
            .map(|_| self.rng.gen_range(0..self.pool).to_string())
            .collect();
        self.next_id += 1;
        format!(
            "{{\"id\":{},\"cmd\":\"classify\",\"rows\":[{}]}}",
            self.next_id,
            rows.join(",")
        )
    }
}

/// A parsed reply next to the request that asked for it.
struct Answer {
    rows: Vec<usize>,
    reply: Option<ClassifyReply>,
}

/// Parse a request and its reply. A refused, failed or unreadable
/// reply has no `reply`.
fn answer(record: &Record) -> Result<Answer, String> {
    let request = Json::parse(&record.line).map_err(|e| e.to_string())?;
    let rows = request
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("request without rows")?
        .iter()
        .map(|r| r.as_u64().map(|r| r as usize).ok_or("bad row"))
        .collect::<Result<Vec<_>, _>>()?;
    let reply = record.reply.as_ref().and_then(|(_, text)| {
        let v = Json::parse(text).ok()?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return None;
        }
        let list = |k: &str| -> Option<Vec<usize>> {
            v.get(k)?
                .as_arr()?
                .iter()
                .map(|x| x.as_u64().map(|x| x as usize))
                .collect()
        };
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(ClassifyReply {
            predictions: list("predictions")?,
            classes: list("classes")?,
            cache_hit: v.get("cache_hit").and_then(Json::as_bool)?,
            batch_rows: num("batch_rows")? as usize,
            batch_requests: num("batch_requests")? as usize,
            sim_latency_ns_per_query: num("sim_latency_ns_per_query")?,
            sim_energy_pj_per_query: num("sim_energy_pj_per_query")?,
            host_us: num("host_us")?,
        })
    });
    Ok(Answer { rows, reply })
}

/// Check every answer against the CPU reference classes of the pool;
/// a refusal or an error counts as a failed operation.
fn check_all(out: &mut Outcome, answers: &[Answer], reference: &[usize]) {
    for a in answers {
        let expected: Option<Vec<usize>> =
            a.rows.iter().map(|&r| reference.get(r).copied()).collect();
        out.check(match (&a.reply, expected) {
            (Some(reply), Some(expected)) => reply.classes == expected,
            _ => false,
        });
    }
}

/// Drive `per_connection` request lists concurrently, one thread per
/// connection (the caller's thread drives the first).
fn drive<T: Send>(
    per_connection: Vec<T>,
    run: impl Fn(T) -> Result<Vec<Record>, String> + Sync,
) -> Result<Vec<Record>, String> {
    let mut jobs = per_connection.into_iter();
    let first = jobs.next().ok_or("no connections")?;
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.map(|job| s.spawn(|| run(job))).collect();
        let mut records = run(first)?;
        for h in handles {
            records.extend(h.join().map_err(|_| "client thread panicked")??);
        }
        Ok(records)
    })
}

/// The session's schedule: `n` requests at `rate` per second from `start`,
/// dealt round-robin to the connections.
fn schedule(
    seed: u64,
    pool: usize,
    n: usize,
    rate: f64,
    conns: usize,
) -> Vec<Vec<(Instant, String)>> {
    let mut requests = Requests::new(seed, pool);
    let start = Instant::now() + Duration::from_millis(20);
    let mut per_connection = vec![Vec::new(); conns];
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        per_connection[i % conns].push((due, requests.next_line()));
    }
    per_connection
}

/// The served dataset: a seeded CSV file, removed again on drop, and
/// the CPU reference class of every query-pool row.
pub struct Served {
    path: PathBuf,
    reference: Vec<usize>,
    seed: u64,
}

impl Served {
    /// Write the dataset for `seed` and compute its reference classes.
    ///
    /// # Errors
    /// The file cannot be written or read back.
    pub fn new(seed: u64) -> Result<Served, String> {
        let mut served = Served {
            path: dataset_path(seed)?,
            reference: Vec::new(),
            seed,
        };
        write_dataset(&served.path, seed)?;
        let dataset = Dataset::load(&served.path, None).map_err(|e| e.to_string())?;
        served.reference = reference_pool_classes(&dataset, &plan_key())?;
        Ok(served)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What the traced pass observed of the served requests.
pub struct Session {
    records: Vec<Record>,
    answers: Vec<Answer>,
    /// Median `BatchRunner::run_rows` time per observed batch size, ms.
    batch_ms: BTreeMap<usize, f64>,
    capacity: usize,
    /// Wall time of the open-loop session, nanoseconds; it keeps to a
    /// fixed schedule, traced or not.
    pub session_ns: f64,
    /// The served plan through the application layers.
    pub app: AppRun,
}

impl Served {
    /// The served path once, call by call: load the dataset, compile
    /// the plan the server would, the plan's layers through
    /// [`run_app`], a server session on an open-loop schedule, then the
    /// session's requests and replies decoded and encoded again and its
    /// batch sizes executed in-process.
    ///
    /// # Errors
    /// A load, compile, transport, server or layer failure.
    pub fn pass(&self, l: &mut Ledger) -> Result<Session, String> {
        let (seed, path) = (self.seed, self.path.as_path());
        let key = plan_key();
        let dataset = l
            .span("datasets.load", |_| Dataset::load(path, None))
            .map_err(|e| e.to_string())?;
        let source = DatasetPlanSource::new(
            dataset.clone(),
            key.clone(),
            MAX_BATCH,
            1,
            Telemetry::default(),
        );
        let runner: Arc<dyn BatchRunner> = l.span("service.compile", |_| source.compile(&key))?;
        let capacity = runner.capacity();
        let workload = DatasetWorkload::new(dataset, DatasetTask::Knn, Some(capacity))
            .map_err(|e| e.to_string())?;
        let spec = build_arch(
            (key.subarray, key.subarray),
            (4, 4, 8),
            Optimization::Base,
            key.bits,
        )
        .map_err(|e| e.to_string())?;
        let app = run_app(l, &workload, false, &spec, &None, 1)?;

        let server = l.span("server.start", |_| Server::start(path))?;
        let pool = runner.pool_size();
        let per_connection = schedule(derive_seed(seed, 300), pool, REQUESTS, RATE, connections());
        let session = Instant::now();
        let records = l.span("client.session", |_| {
            drive(per_connection, |requests| open_loop(&server.addr, requests))
        })?;
        let session_ns = session.elapsed().as_nanos() as f64;
        l.span("server.stop", |_| server.shutdown())?;

        l.span("server.decode", |_| {
            for r in &records {
                std::hint::black_box(parse_request(&r.line).ok());
            }
        });
        let answers = records.iter().map(answer).collect::<Result<Vec<_>, _>>()?;
        let replies: Vec<&ClassifyReply> =
            answers.iter().filter_map(|a| a.reply.as_ref()).collect();
        l.span("server.encode", |_| {
            for (id, r) in replies.iter().enumerate() {
                std::hint::black_box(classify_response(id as u64, r));
            }
        });
        let sizes: std::collections::BTreeSet<usize> =
            replies.iter().map(|r| r.batch_rows).collect();
        let mut batch_ms = BTreeMap::new();
        for size in sizes.into_iter().filter(|&s| (1..=capacity).contains(&s)) {
            let rows: Vec<usize> = (0..size).map(|i| i % pool).collect();
            let times = l.span("service.batch", |_| {
                (0..5)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(runner.run_rows(&rows))
                            .map(|_| t.elapsed().as_secs_f64() * 1e3)
                    })
                    .collect::<Result<Vec<f64>, String>>()
            })?;
            batch_ms.insert(size, median(&times));
        }
        Ok(Session {
            records,
            answers,
            batch_ms,
            capacity,
            session_ns,
            app,
        })
    }

    /// Check a traced and an untraced pass — every served answer, the
    /// served plan against `nearest_rows_cpu`, the agreements
    /// [`run_app`] checks and identical device statistics — and report
    /// the dataset, service, server and client metrics of the traced
    /// pass, whose spans are in `l`.
    pub fn report(&self, out: &mut Outcome, l: &Ledger, s: &Session, untraced: &Session) {
        for pass in [s, untraced] {
            check_all(out, &pass.answers, &self.reference);
            let inputs = &pass.app.inputs;
            out.check(pass.app.predictions == nearest_rows_cpu(&inputs.stored, &inputs.queries));
            for m in &pass.app.mismatches {
                out.problem(format!("served KNN: {m}"));
            }
        }
        if !same_stats(&s.app.execution.stats, &untraced.app.execution.stats, true) {
            out.problem("device stats differ between the traced and untraced passes");
        }

        let ms = |n: &str| l.get(n).total_ns / 1e6;
        out.set("datasets.load_ms", ms("datasets.load"));
        out.set("service.compile_ms", ms("service.compile"));
        let replies = s.answers.iter().filter(|a| a.reply.is_some()).count();
        let decode_us = l.get("server.decode").total_ns / 1e3 / s.records.len() as f64;
        let encode_us = l.get("server.encode").total_ns / 1e3 / replies as f64;
        out.set("server.decode_us", decode_us);
        out.set("server.encode_us", encode_us);

        // Each reply describes the batch it rode in; a batch of k requests
        // is described k times, so it carries weight 1/k.
        let served: Vec<(&Record, &ClassifyReply)> = s
            .records
            .iter()
            .zip(&s.answers)
            .filter_map(|(rec, a)| a.reply.as_ref().map(|r| (rec, r)))
            .collect();
        let batches: f64 = served
            .iter()
            .map(|(_, r)| 1.0 / r.batch_requests.max(1) as f64)
            .sum();
        let weighted = |f: &dyn Fn(&ClassifyReply) -> f64| -> f64 {
            served
                .iter()
                .map(|(_, r)| f(r) / r.batch_requests.max(1) as f64)
                .sum::<f64>()
                / batches
        };
        let batch_ms =
            |r: &ClassifyReply| s.batch_ms.get(&r.batch_rows).copied().unwrap_or(f64::NAN);
        out.set("service.batch_ms", weighted(&|r| batch_ms(r)));
        out.set(
            "server.batch_fill",
            weighted(&|r| r.batch_rows as f64 / s.capacity as f64),
        );
        out.set("server.requests_per_batch", served.len() as f64 / batches);
        out.set(
            "server.cache_hit_rate",
            served.iter().filter(|(_, r)| r.cache_hit).count() as f64 / served.len() as f64,
        );
        out.set(
            "server.rejected_share",
            1.0 - served.len() as f64 / s.records.len() as f64,
        );
        let host: Vec<f64> = served.iter().map(|(_, r)| r.host_us / 1e3).collect();
        out.set("server.host_ms", median(&host));
        let waits: Vec<f64> = served
            .iter()
            .map(|(_, r)| r.host_us / 1e3 - batch_ms(r))
            .collect();
        out.set("server.queue_wait_ms", median(&waits));
        let server_side_ms = (decode_us + encode_us) / 1e3;
        let transport: Vec<f64> = served
            .iter()
            .filter_map(|(rec, r)| {
                let (arrived, _) = rec.reply.as_ref()?;
                let round_trip = arrived.duration_since(rec.sent).as_secs_f64() * 1e3;
                Some(round_trip - r.host_us / 1e3 - server_side_ms)
            })
            .collect();
        out.set("client.transport_ms", median(&transport));
        let late: Vec<f64> = s.records.iter().map(Record::late_ms).collect();
        out.set(
            "client.late_ms",
            percentile(&late, 99.0).unwrap_or(f64::NAN),
        );
    }
}
