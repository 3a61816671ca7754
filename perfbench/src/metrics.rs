//! The metrics the benchmark reports, and the result line.
//!
//! The tables here and `BENCHMARK.json` at the repository root declare
//! the same metrics; a test keeps them in step.

use crate::ledger::{Ledger, Passes};
use crate::stats::geomean;
use crate::trace::{same_stats, AppRun};
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported with tracing off by
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("sim_latency_ns_per_query", "sim-ns"),
    ("sim_energy_pj_per_query", "sim-pJ"),
    ("peak_rss_mb", "MB"),
];

/// Layers of the traced ledger, in the order they are reported.
pub const LAYERS: &[&str] = &[
    "workloads",
    "frontend",
    "core",
    "engine",
    "hal",
    "camsim",
    "datasets",
    "service",
    "server",
    "client",
];

/// Per-layer metrics `(name, unit)`, reported by the traced run of
/// every workload; a layer the workload does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("frontend.parse_us", "us"),
    ("core.place_us", "us"),
    ("core.torch-to-cim_us", "us"),
    ("core.cim-fuse-ops_us", "us"),
    ("core.cam-map_us", "us"),
    ("core.ir_ops", "count"),
    ("engine.tape_compile_us", "us"),
    ("engine.tape_len", "count"),
    ("engine.vm_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.shard_speedup", "ratio"),
    ("hal.compile_us", "us"),
    ("hal.execute_ms", "ms"),
    ("camsim.program_ms", "ms"),
    ("camsim.search_ns", "ns"),
    ("camsim.searches_per_query", "count"),
    ("camsim.writes_per_run", "count"),
    ("camsim.merges_per_query", "count"),
    ("camsim.search_bytes_per_query", "B"),
    ("camsim.search_gbps", "GB/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.popcnt_gops", "G/s"),
    ("datasets.load_ms", "ms"),
    ("service.compile_ms", "ms"),
    ("service.batch_ms", "ms"),
    ("server.decode_us", "us"),
    ("server.encode_us", "us"),
    ("server.host_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.batch_fill", "ratio"),
    ("server.requests_per_batch", "count"),
    ("server.cache_hit_rate", "ratio"),
    ("server.rejected_share", "ratio"),
    ("client.late_ms", "ms"),
    ("client.transport_ms", "ms"),
    ("ledger.workloads_ms", "ms"),
    ("ledger.frontend_ms", "ms"),
    ("ledger.core_ms", "ms"),
    ("ledger.engine_ms", "ms"),
    ("ledger.hal_ms", "ms"),
    ("ledger.camsim_ms", "ms"),
    ("ledger.datasets_ms", "ms"),
    ("ledger.service_ms", "ms"),
    ("ledger.server_ms", "ms"),
    ("ledger.client_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.e2e_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that erred, were refused or gave a wrong answer.
    pub failed: u64,
    /// Checks that are not per operation (stats repeatability, ledger
    /// closure) and failed.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a failed whole-run check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Set metric `name`.
    ///
    /// # Panics
    /// If `name` is not declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared"));
        self.metrics.insert(key, value);
    }

    /// The result line: every metric of the mode's table, per-layer
    /// metrics a workload did not exercise as 0.
    ///
    /// # Errors
    /// An end-to-end metric left unset, a value that is not finite, or
    /// no operation attempted.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match (self.metrics.get(name), traced) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric '{name}' was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric '{name}' is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }

    /// Per-layer metrics of the application layers, from the traced
    /// ledger and the runs it timed. Times are summed over the traced
    /// pass; per-query counts divide by every query the pass ran.
    pub fn set_app_layers(&mut self, l: &Ledger, runs: &[&AppRun]) {
        let ms = |n: &str| l.get(n).total_ns / 1e6;
        let us = |n: &str| l.get(n).total_ns / 1e3;
        self.set("workloads.gen_ms", ms("workloads.gen"));
        self.set("frontend.parse_us", us("frontend.parse"));
        self.set("core.place_us", us("core.place"));
        for pass in ["torch-to-cim", "cim-fuse-ops", "cam-map"] {
            self.set(&format!("core.{pass}_us"), us(&format!("core.{pass}")));
        }
        self.set("engine.tape_compile_us", us("engine.tape_compile"));
        self.set("engine.vm_ms", ms("engine.vm"));
        self.set("engine.self_ms", l.get("engine.vm").self_ns / 1e6);
        let sharded = l.get("hal.execute_mt");
        if sharded.count > 0 {
            self.set(
                "engine.shard_speedup",
                l.get("hal.execute_1t").total_ns / sharded.total_ns,
            );
        }
        self.set("hal.compile_us", us("hal.compile"));
        self.set("hal.execute_ms", ms("hal.execute") + ms("hal.execute_mt"));
        self.set("camsim.program_ms", ms("camsim.program"));

        let sum = |f: &dyn Fn(&AppRun) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
        let queries = sum(&|r| r.predictions.len() as f64);
        let searches = sum(&|r| r.searches as f64);
        let search_ns = l.get("camsim.search").total_ns;
        let searched_bytes = sum(&|r| r.vm_stats.searched_words as f64 * 8.0);
        self.set("core.ir_ops", sum(&|r| r.ir_ops as f64));
        self.set("engine.tape_len", sum(&|r| r.tape_len as f64));
        self.set("camsim.search_ns", search_ns / searches);
        self.set(
            "camsim.searches_per_query",
            sum(&|r| r.vm_stats.search_ops as f64) / queries,
        );
        self.set(
            "camsim.writes_per_run",
            sum(&|r| r.vm_stats.write_ops as f64) / runs.len() as f64,
        );
        self.set(
            "camsim.merges_per_query",
            sum(&|r| r.vm_stats.merge_ops as f64) / queries,
        );
        self.set("camsim.search_bytes_per_query", searched_bytes / queries);
        self.set("camsim.search_gbps", searched_bytes / search_ns);
    }

    /// Check the application runs of a traced and an untraced pass:
    /// each answer against `expected` (one entry per run), the
    /// agreements `run_app` checks, and identical device statistics in
    /// the two passes.
    pub fn check_app_runs(
        &mut self,
        workload: &str,
        traced: &[AppRun],
        untraced: &[AppRun],
        expected: &[Vec<usize>],
    ) {
        for runs in [traced, untraced] {
            for (run, want) in runs.iter().zip(expected) {
                self.check(run.predictions == *want);
                for m in &run.mismatches {
                    self.problem(format!("{workload}: {m}"));
                }
            }
        }
        if traced
            .iter()
            .zip(untraced)
            .any(|(a, b)| !same_stats(&a.execution.stats, &b.execution.stats, true))
        {
            self.problem("device stats differ between the traced and untraced passes");
        }
    }

    /// Close the traced pass's ledger and report its layer self
    /// times, its remainder and the tracing overhead (the traced pass
    /// against the same calls made untraced). `fixed_ns` is the part of
    /// the traced and of the untraced pass that keeps to a fixed
    /// schedule; it is left out of the overhead. A ledger that does not
    /// close fails the run.
    pub fn close_ledger<T>(&mut self, workload: &str, passes: &Passes<T>, fixed_ns: (f64, f64)) {
        let closure = match passes.ledger.close(passes.traced_ns) {
            Ok(c) => c,
            Err(e) => return self.problem(format!("ledger does not close: {e}")),
        };
        eprint!("{}", closure.render(workload));
        for layer in LAYERS {
            self.set(&format!("ledger.{layer}_ms"), closure.layer_ms(layer));
        }
        self.set("unattributed_ms", closure.unattributed_ns / 1e6);
        self.set("trace.e2e_ms", closure.e2e_ns / 1e6);
        let (traced, untraced) = (
            passes.traced_ns - fixed_ns.0,
            passes.untraced_ns - fixed_ns.1,
        );
        self.set("trace.overhead_share", (traced - untraced) / untraced);
    }
}

/// Geometric mean over the apps of a workload, each app contributing
/// one value.
pub fn over_apps(values: impl IntoIterator<Item = f64>) -> f64 {
    geomean(&values.into_iter().collect::<Vec<_>>())
}

/// Peak resident set of a process (`VmHWM`), in MB, read from
/// `/proc/<pid>/status`; `None` where that file does not exist.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_server::json::Json;

    fn names(list: &[Json]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = Json::parse(&text).unwrap();
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(names(e2e), table(END_TO_END));
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(names(layers), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn render_fills_unexercised_layers_and_rejects_missing_end_to_end() {
        let mut o = Outcome::default();
        o.check(true);
        o.set("engine.vm_ms", 1.5);
        let line = o.render(true).unwrap();
        let v = Json::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("engine.vm_ms")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            metrics
                .get("server.decode_us")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(o.render(false).unwrap_err().contains("setup_s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_a_bug() {
        Outcome::default().set("nope_ms", 1.0);
    }
}
