//! One application through the program's layers, call by call.
//!
//! [`run_app`] makes the calls `Experiment::compile` and
//! `CompiledExperiment::run` make (workload generation, placement, the
//! pass pipeline, the backend plan, plan execution), plus two probes
//! the plan hides: `Tape::compile`, and `Tape::run` on a fresh machine
//! wrapped in [`TimedMachine`], which splits the VM's time into CAM
//! programming, searches and the VM's own dispatch. Each call is a
//! [`Ledger`] span named `<layer>.<call>`.

use crate::ledger::Ledger;
use c4cam::arch::tech::{Level, TechnologyModel};
use c4cam::arch::ArchSpec;
use c4cam::camsim::{
    ArrayId, BankId, CamDevice, CamMachine, ExecStats, MatId, SearchResult, SearchSpec, SimError,
    SubarrayId,
};
use c4cam::compiler::mapping::{place, MappingProblem};
use c4cam::compiler::C4camPipeline;
use c4cam::engine::Tape;
use c4cam::hal::{BackendRegistry, ExecOptions, Execution};
use c4cam::runtime::Value;
use c4cam::workloads::{ArgOrder, Workload, WorkloadInputs};
use std::time::Instant;

/// A [`CamMachine`] that times the calls the VM makes into it.
#[derive(Clone)]
pub struct TimedMachine {
    inner: CamMachine,
    /// Nanoseconds in hierarchy allocation and `write_rows`.
    pub program_ns: f64,
    /// Nanoseconds in `search` and `read`.
    pub search_ns: f64,
    /// `search` calls.
    pub searches: u64,
}

impl TimedMachine {
    /// Wrap `inner`.
    pub fn new(inner: CamMachine) -> TimedMachine {
        TimedMachine {
            inner,
            program_ns: 0.0,
            search_ns: 0.0,
            searches: 0,
        }
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

impl CamDevice for TimedMachine {
    fn alloc_bank(&mut self) -> Result<BankId, SimError> {
        let t = Instant::now();
        let r = self.inner.alloc_bank();
        self.program_ns += ns_since(t);
        r
    }

    fn alloc_mat(&mut self, bank: BankId) -> Result<MatId, SimError> {
        let t = Instant::now();
        let r = self.inner.alloc_mat(bank);
        self.program_ns += ns_since(t);
        r
    }

    fn alloc_array(&mut self, mat: MatId) -> Result<ArrayId, SimError> {
        let t = Instant::now();
        let r = self.inner.alloc_array(mat);
        self.program_ns += ns_since(t);
        r
    }

    fn alloc_subarray(&mut self, array: ArrayId) -> Result<SubarrayId, SimError> {
        let t = Instant::now();
        let r = self.inner.alloc_subarray(array);
        self.program_ns += ns_since(t);
        r
    }

    fn write_rows(
        &mut self,
        id: SubarrayId,
        row_offset: usize,
        data: &[Vec<f32>],
    ) -> Result<(), SimError> {
        let t = Instant::now();
        let r = self.inner.write_rows(id, row_offset, data);
        self.program_ns += ns_since(t);
        r
    }

    fn search(
        &mut self,
        id: SubarrayId,
        query: &[f32],
        spec: SearchSpec,
    ) -> Result<&SearchResult, SimError> {
        let t = Instant::now();
        let r = self.inner.search(id, query, spec);
        self.search_ns += ns_since(t);
        self.searches += 1;
        r
    }

    fn read(&mut self, id: SubarrayId) -> Result<&SearchResult, SimError> {
        let t = Instant::now();
        let r = self.inner.read(id);
        self.search_ns += ns_since(t);
        r
    }

    fn merge(&mut self, level: Level, elems: usize) {
        self.inner.merge(level, elems);
    }

    fn mark_phase(&mut self, name: &str) {
        self.inner.mark_phase(name);
    }

    fn push_parallel(&mut self) {
        self.inner.push_parallel();
    }

    fn push_sequential(&mut self) {
        self.inner.push_sequential();
    }

    fn pop_scope(&mut self) {
        self.inner.pop_scope();
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn absorb_delta(&mut self, delta: &ExecStats) {
        self.inner.absorb_delta(delta);
    }

    fn phases(&self) -> &[(String, ExecStats)] {
        self.inner.phases()
    }
}

/// A fresh machine configured the way the tape backend configures one.
pub fn machine(spec: &ArchSpec, tech: &Option<TechnologyModel>) -> CamMachine {
    match tech {
        Some(t) => CamMachine::with_tech(spec, t.clone()),
        None => CamMachine::new(spec),
    }
}

/// Kernel arguments in the order the workload declares.
pub fn bind_args(inputs: &WorkloadInputs, order: ArgOrder) -> Vec<Value> {
    let (q, s) = (
        Value::Tensor(inputs.queries.clone()),
        Value::Tensor(inputs.stored.clone()),
    );
    match order {
        ArgOrder::QueriesThenStored => vec![q, s],
        ArgOrder::StoredThenQueries => vec![s, q],
    }
}

/// Top-1 stored row per query from a kernel's outputs, read the way
/// `CompiledExperiment::run` reads them.
///
/// # Errors
/// Outputs without an index tensor.
pub fn top1(outputs: &[Value], queries: usize) -> Result<Vec<usize>, String> {
    let indices = outputs
        .get(1)
        .and_then(Value::as_tensor)
        .ok_or("kernel returned no indices")?;
    Ok((0..queries)
        .map(|q| indices.data()[q * indices.len() / queries.max(1)] as usize)
        .collect())
}

/// Whether two runs of one plan report the same device cost: counts
/// exactly, and latency and energy exactly when `exact`, else to a
/// relative 1e-9 (sharded runs fold per-thread costs in another order).
pub fn same_stats(a: &ExecStats, b: &ExecStats, exact: bool) -> bool {
    let close = |x: f64, y: f64| {
        if exact {
            x == y
        } else {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
    };
    a.search_ops == b.search_ops
        && a.searched_words == b.searched_words
        && a.write_ops == b.write_ops
        && a.read_ops == b.read_ops
        && a.merge_ops == b.merge_ops
        && close(a.latency_ns, b.latency_ns)
        && close(a.total_energy_fj(), b.total_energy_fj())
}

/// What one application run produced, for checks and per-layer counts.
pub struct AppRun {
    /// The generated inputs.
    pub inputs: WorkloadInputs,
    /// Top-1 stored row per query from the plan's execution.
    pub predictions: Vec<usize>,
    /// The plan's execution at the requested thread count.
    pub execution: Execution,
    /// Device statistics of the bare-tape probe.
    pub vm_stats: ExecStats,
    /// Operations in the lowered module.
    pub ir_ops: usize,
    /// Instructions in the compiled tape.
    pub tape_len: usize,
    /// Device `search` calls the bare-tape probe made.
    pub searches: u64,
    /// Disagreements between the plan, the single-thread plan and the
    /// bare tape (empty when they agree).
    pub mismatches: Vec<String>,
}

/// Run `workload` once through the layers on `spec`, recording a span
/// per call when `l` is enabled.
///
/// # Errors
/// Any layer's error, tagged with the layer.
pub fn run_app(
    l: &mut Ledger,
    workload: &dyn Workload,
    uses_frontend: bool,
    spec: &ArchSpec,
    tech: &Option<TechnologyModel>,
    threads: usize,
) -> Result<AppRun, String> {
    let module_span = if uses_frontend {
        "frontend.parse"
    } else {
        "workloads.gen"
    };
    let built = l.span(module_span, |_| workload.build_module(spec));
    let inputs = l.span("workloads.gen", |_| workload.inputs(spec));
    let queries = workload.query_count();
    l.span("core.place", |_| {
        place(
            spec,
            &MappingProblem {
                stored_rows: workload.stored_rows(),
                feature_dims: workload.dims(),
                queries,
            },
        )
    })
    .map_err(|e| format!("core.place: {e}"))?;
    let kernel = l
        .span("core.pipeline", |l| {
            let kernel = C4camPipeline::new(spec.clone()).compile(built.module)?;
            for t in &kernel.timings {
                l.child(&format!("core.{}", t.name), t.micros as f64 * 1e3);
            }
            Ok::<_, c4cam::ir::pass::PassError>(kernel)
        })
        .map_err(|e| format!("core.pipeline: {e}"))?;
    let tape = l
        .span("engine.tape_compile", |_| {
            Tape::compile(&kernel.module, built.func)
        })
        .map_err(|e| format!("engine.tape_compile: {e}"))?;
    let backend = BackendRegistry::global()
        .get("tape")
        .map_err(|e| e.message)?;
    let plan = l
        .span("hal.compile", |_| {
            backend.compile_shared(&kernel.module, built.func, spec)
        })
        .map_err(|e| format!("hal.compile: {e}"))?;
    let args = bind_args(&inputs, built.arg_order);
    let opts = ExecOptions {
        threads,
        tech: tech.clone(),
        ..ExecOptions::default()
    };
    // A sharded execution has a span of its own, so the shard speedup
    // compares it only with its own 1-thread rerun.
    let execute_span = if threads > 1 {
        "hal.execute_mt"
    } else {
        "hal.execute"
    };
    let execution = l
        .span(execute_span, |_| plan.execute(&args, &opts))
        .map_err(|e| format!("{execute_span}: {e}"))?;
    let single = if threads > 1 {
        Some(
            l.span("hal.execute_1t", |_| {
                plan.execute(&args, &opts.clone().with_threads(1))
            })
            .map_err(|e| format!("hal.execute_1t: {e}"))?,
        )
    } else {
        None
    };
    let (vm_outputs, vm_stats, searches) = l.span("engine.vm", |l| {
        if l.is_enabled() {
            let mut m = TimedMachine::new(machine(spec, tech));
            let out = tape.run(&mut m, &args);
            l.child("camsim.program", m.program_ns);
            l.child("camsim.search", m.search_ns);
            (out, m.stats(), m.searches)
        } else {
            let mut m = machine(spec, tech);
            let out = tape.run(&mut m, &args);
            (out, m.stats(), 0)
        }
    });
    let vm_outputs = vm_outputs.map_err(|e| format!("engine.vm: {e}"))?;

    let predictions = top1(&execution.outputs, queries)?;
    let mut mismatches = Vec::new();
    if top1(&vm_outputs, queries)? != predictions {
        mismatches.push("bare tape and plan disagree on outputs".to_string());
    }
    let sequential = single.as_ref().unwrap_or(&execution);
    if !same_stats(&vm_stats, &sequential.stats, true) {
        mismatches.push("bare tape and single-thread plan report different stats".to_string());
    }
    if let Some(single) = &single {
        if top1(&single.outputs, queries)? != predictions {
            mismatches.push("1-thread and multi-thread plans disagree on outputs".to_string());
        }
        if !same_stats(&single.stats, &execution.stats, false) {
            mismatches.push("1-thread and multi-thread plans report different stats".to_string());
        }
    }
    Ok(AppRun {
        inputs,
        predictions,
        execution,
        vm_stats,
        ir_ops: kernel.module.walk_all().len(),
        tape_len: tape.len(),
        searches,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::run_passes;
    use c4cam::arch::Optimization;
    use c4cam::driver::paper_arch;
    use c4cam::workloads::HdcWorkload;

    #[test]
    fn a_traced_app_pass_closes_its_ledger_and_matches_the_untraced_pass() {
        let hdc = HdcWorkload {
            classes: 4,
            dims: 256,
            queries: 8,
            flip_rate: 0.1,
            seed: 5,
        };
        let spec = paper_arch(16, Optimization::Base, 1);
        let passes = run_passes(|l| run_app(l, &hdc, false, &spec, &None, 2)).unwrap();
        let c = passes.ledger.close(passes.traced_ns).unwrap();
        let sum = c.layers.values().sum::<f64>() + c.unattributed_ns;
        assert!((sum - c.e2e_ns).abs() <= 1e-9 * c.e2e_ns, "{c:?}");
        for layer in ["workloads", "core", "engine", "hal", "camsim"] {
            assert!(c.layers[layer] > 0.0, "{layer}: {c:?}");
        }
        let (traced, untraced) = (&passes.traced, &passes.untraced);
        assert!(traced.mismatches.is_empty(), "{:?}", traced.mismatches);
        assert_eq!(traced.predictions, untraced.predictions);
        assert!(same_stats(
            &traced.execution.stats,
            &untraced.execution.stats,
            true
        ));
        assert_eq!(traced.searches, traced.vm_stats.search_ops);
    }
}
