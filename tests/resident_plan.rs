//! Resident-setup conformance: a `tape` plan programs the CAM on its
//! first execution, keeps the programmed machine, and serves later
//! executions with the same setup inputs from a copy-on-write fork of
//! it. Every execution — hit or miss, at one or two threads, with
//! faults or shard retries — must report exactly what a fresh run on a
//! new `CamMachine` reports: outputs, `ExecStats` and phases, bit for
//! bit. The fresh run is `Tape::run` at one thread and a fresh sharded
//! run at two (sharding sums energy and latency in shard order, so it
//! matches `Tape::run` exactly in outputs and operation counts and up
//! to float summation order in the totals — which is checked too).

use c4cam::arch::tech::TechnologyModel;
use c4cam::arch::{ArchSpec, Optimization};
use c4cam::camsim::{
    ArrayId, BankId, CamDevice, CamMachine, ExecStats, MatId, SearchResult, SearchSpec, SimError,
    SubarrayId,
};
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::datasets::{Dataset, DatasetTask, DatasetWorkload};
use c4cam::driver::{build_arch, Experiment};
use c4cam::engine::{RetryPolicy, Tape};
use c4cam::hal::{BackendRegistry, ExecOptions, Execution, FaultConfig, ShardChaos, SharedPlan};
use c4cam::ir::Module;
use c4cam::runtime::Value;
use c4cam::telemetry::metrics::MetricsReport;
use c4cam::telemetry::{cat, ArgValue, CollectingRecorder, Event, Telemetry};
use c4cam::tensor::Tensor;
use c4cam::workloads::{ArgOrder, DtreeWorkload, HdcWorkload, KnnWorkload, Workload};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One compiled kernel with its inputs.
struct Case {
    name: String,
    spec: ArchSpec,
    module: Module,
    func: &'static str,
    order: ArgOrder,
    stored: Tensor,
    queries: Tensor,
}

impl Case {
    fn new(workload: &dyn Workload, spec: ArchSpec) -> Case {
        let built = workload.build_module(&spec);
        let inputs = workload.inputs(&spec);
        let module = C4camPipeline::new(spec.clone())
            .compile(built.module)
            .unwrap()
            .module;
        Case {
            name: workload.name().to_string(),
            spec,
            module,
            func: built.func,
            order: built.arg_order,
            stored: inputs.stored,
            queries: inputs.queries,
        }
    }

    fn args(&self, stored: &Tensor, queries: &Tensor) -> Vec<Value> {
        let (s, q) = (
            Value::Tensor(stored.clone()),
            Value::Tensor(queries.clone()),
        );
        match self.order {
            ArgOrder::QueriesThenStored => vec![q, s],
            ArgOrder::StoredThenQueries => vec![s, q],
        }
    }

    fn plan(&self) -> SharedPlan {
        BackendRegistry::global()
            .get("tape")
            .unwrap()
            .compile_shared(&self.module, self.func, &self.spec)
            .unwrap()
    }

    fn tape(&self) -> Tape {
        Tape::compile(&self.module, self.func).unwrap()
    }

    /// The machine a plan builds for `opts`.
    fn machine(&self, opts: &ExecOptions) -> CamMachine {
        let mut m = match &opts.tech {
            Some(tech) => CamMachine::with_tech(&self.spec, tech.clone()),
            None => CamMachine::new(&self.spec),
        };
        m.set_wta_window(opts.wta_window);
        m.set_faults(opts.faults.clone());
        m
    }

    /// The oracle: a run on a new machine — `Tape::run`, or at
    /// `opts.threads > 1` a fresh sharded run, checked against
    /// `Tape::run` in everything but float summation order.
    fn fresh(&self, args: &[Value], opts: &ExecOptions) -> Observed {
        let tape = self.tape();
        let mut m = self.machine(opts);
        let outputs = tape.run(&mut m, args).unwrap();
        let sequential = Observed::new(&outputs, m.stats(), m.phases().to_vec());
        if opts.threads <= 1 {
            return sequential;
        }
        let mut m = self.machine(opts);
        let outputs = tape.run_batched(&mut m, args, opts.threads).unwrap();
        let sharded = Observed::new(&outputs, m.stats(), m.phases().to_vec());
        assert_eq!(sharded.outputs, sequential.outputs, "{}", self.name);
        assert_eq!(sharded.phases, sequential.phases, "{}", self.name);
        let (a, b) = (&sharded.stats, &sequential.stats);
        assert_eq!(
            (a.search_ops, a.searched_words, a.write_ops, a.read_ops),
            (b.search_ops, b.searched_words, b.write_ops, b.read_ops),
            "{}",
            self.name
        );
        assert_eq!(
            (a.merge_ops, a.fault_cells, a.fault_transients),
            (b.merge_ops, b.fault_cells, b.fault_transients),
            "{}",
            self.name
        );
        assert!((a.latency_ns - b.latency_ns).abs() <= 1e-9 * b.latency_ns);
        assert!((a.total_energy_fj() - b.total_energy_fj()).abs() <= 1e-9 * b.total_energy_fj());
        sharded
    }
}

/// Everything a run reports, with outputs as exact bit patterns.
#[derive(Debug, PartialEq)]
struct Observed {
    outputs: Vec<(Vec<usize>, Vec<u32>)>,
    stats: ExecStats,
    phases: Vec<(String, ExecStats)>,
}

impl Observed {
    fn new(outputs: &[Value], stats: ExecStats, phases: Vec<(String, ExecStats)>) -> Observed {
        let outputs = outputs
            .iter()
            .map(|v| {
                let t = v.snapshot_tensor().expect("tensor output");
                (
                    t.shape().to_vec(),
                    t.data().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect();
        Observed {
            outputs,
            stats,
            phases,
        }
    }

    fn of(execution: &Execution) -> Observed {
        Observed::new(
            &execution.outputs,
            execution.stats.clone(),
            execution.phases.clone(),
        )
    }
}

fn small_spec(bits: u32) -> ArchSpec {
    build_arch((32, 32), (2, 2, 4), Optimization::Base, bits).unwrap()
}

fn mini_mnist(task: DatasetTask) -> DatasetWorkload {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/mini-mnist");
    let dataset = Dataset::load(&fixture, None).expect("committed fixture");
    DatasetWorkload::new(dataset, task, Some(6)).unwrap()
}

/// hdc, knn, dtree and mini-MNIST, each with several queries so the
/// query loop shards at two threads.
fn cases() -> Vec<Case> {
    vec![
        Case::new(
            &HdcWorkload {
                classes: 5,
                dims: 96,
                queries: 6,
                flip_rate: 0.1,
                seed: 7,
            },
            small_spec(1),
        ),
        Case::new(
            &KnnWorkload {
                patterns: 40,
                dims: 64,
                queries: 5,
                k: 3,
                noise: 0.2,
                seed: 11,
            },
            small_spec(2),
        ),
        Case::new(&DtreeWorkload::new(10, 4, 4, 6, 2024), small_spec(2)),
        Case::new(&mini_mnist(DatasetTask::Hdc), small_spec(1)),
    ]
}

/// Execute `plan` and report whether it ran from the resident setup
/// (the `backend:tape` span carries `setup = "resident"` only then).
fn execute(plan: &SharedPlan, args: &[Value], opts: &ExecOptions) -> (Observed, bool) {
    let recorder = Arc::new(CollectingRecorder::new());
    let opts = opts
        .clone()
        .with_telemetry(Telemetry::new(Arc::clone(&recorder) as _));
    let execution = plan.execute(args, &opts).unwrap();
    let resident = recorder
        .events()
        .iter()
        .filter_map(Event::as_span)
        .filter(|s| s.cat == cat::BACKEND && s.name == "backend:tape")
        .any(|s| {
            s.args
                .iter()
                .any(|(k, v)| *k == "setup" && *v == ArgValue::Str("resident".to_string()))
        });
    (Observed::of(&execution), resident)
}

/// A copy of `t` with every element changed (same shape, new buffer).
fn perturbed(t: &Tensor) -> Tensor {
    let data = t.data().iter().map(|&x| 1.0 - x.min(1.0)).collect();
    Tensor::from_vec(t.shape().to_vec(), data).unwrap()
}

/// `t` with its rows in reverse order.
fn reversed_rows(t: &Tensor) -> Tensor {
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    let data = (0..rows)
        .rev()
        .flat_map(|r| t.data()[r * cols..(r + 1) * cols].to_vec())
        .collect();
    Tensor::from_vec(t.shape().to_vec(), data).unwrap()
}

#[test]
fn repeated_runs_match_a_fresh_run_at_one_and_two_threads() {
    for case in cases() {
        let args = case.args(&case.stored, &case.queries);
        for threads in [1, 2] {
            let opts = ExecOptions::sequential().with_threads(threads);
            let expected = case.fresh(&args, &opts);
            let plan = case.plan();
            for run in 0..3 {
                let (observed, resident) = execute(&plan, &args, &opts);
                assert_eq!(observed, expected, "{} run {run} at {threads}t", case.name);
                assert_eq!(resident, run > 0, "{} run {run} at {threads}t", case.name);
            }
        }
    }
}

#[test]
fn a_new_stored_set_misses_and_new_queries_hit() {
    for case in cases() {
        let plan = case.plan();
        let opts = ExecOptions::sequential().with_threads(2);
        let base = case.args(&case.stored, &case.queries);
        let (_, resident) = execute(&plan, &base, &opts);
        assert!(!resident, "{}: the first run programs", case.name);

        // (a) The stored set changes, same shape: programming reruns.
        // Equal contents in a new buffer miss too — identity is the key.
        let copy = Tensor::from_vec(case.stored.shape().to_vec(), case.stored.data().to_vec());
        for stored in [perturbed(&case.stored), copy.unwrap()] {
            let args = case.args(&stored, &case.queries);
            let (observed, resident) = execute(&plan, &args, &opts);
            assert!(!resident, "{}: a new stored buffer must miss", case.name);
            assert_eq!(observed, case.fresh(&args, &opts), "{}", case.name);
        }

        // (b) Only the queries change, as the served path does: the
        // programmed machine is reused.
        let stored = case.stored.clone();
        let (_, resident) = execute(&plan, &case.args(&stored, &case.queries), &opts);
        assert!(!resident, "{}: back to the original stored set", case.name);
        for queries in [reversed_rows(&case.queries), perturbed(&case.queries)] {
            let args = case.args(&stored, &queries);
            let (observed, resident) = execute(&plan, &args, &opts);
            assert!(resident, "{}: new queries must hit", case.name);
            assert_eq!(observed, case.fresh(&args, &opts), "{}", case.name);
        }
    }
}

#[test]
fn machine_shaping_options_miss() {
    let faults = |seed| FaultConfig::with_rate(0.05, seed);
    let variants: Vec<(&str, ExecOptions)> = vec![
        (
            "tech",
            ExecOptions::sequential().with_tech(TechnologyModel::cmos_tcam_16nm()),
        ),
        ("wta", ExecOptions::sequential().with_wta_window(Some(3))),
        ("faults", ExecOptions::sequential().with_faults(faults(1))),
        (
            "fault seed",
            ExecOptions::sequential().with_faults(faults(2)),
        ),
    ];
    for case in cases() {
        let plan = case.plan();
        let args = case.args(&case.stored, &case.queries);
        execute(&plan, &args, &ExecOptions::sequential());
        for (what, opts) in &variants {
            let (observed, resident) = execute(&plan, &args, opts);
            assert!(!resident, "{}: changing {what} must miss", case.name);
            assert_eq!(observed, case.fresh(&args, opts), "{}: {what}", case.name);
            // ...and the new setup serves the next identical run.
            let (observed, resident) = execute(&plan, &args, opts);
            assert!(resident, "{}: repeating {what} must hit", case.name);
            assert_eq!(observed, case.fresh(&args, opts), "{}: {what}", case.name);
        }
    }
}

#[test]
fn fault_injected_forks_keep_their_own_transient_tallies() {
    // Transient faults count per search in each subarray's fault
    // state; every fork starts from the setup's tallies, so repeated
    // hits report the cold run's fault counters, not a running sum.
    let opts = ExecOptions::sequential().with_faults(FaultConfig::with_rate(0.05, 9));
    for case in cases() {
        let args = case.args(&case.stored, &case.queries);
        for threads in [1, 2] {
            let opts = opts.clone().with_threads(threads);
            let expected = case.fresh(&args, &opts);
            assert!(
                expected.stats.fault_cells > 0,
                "{}: faults landed",
                case.name
            );
            let plan = case.plan();
            for run in 0..3 {
                let (observed, resident) = execute(&plan, &args, &opts);
                assert_eq!(resident, run > 0, "{}", case.name);
                assert_eq!(observed, expected, "{} run {run} at {threads}t", case.name);
            }
        }
    }
}

#[test]
fn shard_retries_on_a_resident_fork_stay_bit_identical() {
    let opts = ExecOptions::sequential()
        .with_threads(2)
        .with_retry(RetryPolicy::default())
        .with_chaos(ShardChaos {
            shard: 0,
            fail_attempts: 1,
        });
    for case in cases() {
        let args = case.args(&case.stored, &case.queries);
        let expected = case.fresh(&args, &opts);
        let plan = case.plan();
        for run in 0..2 {
            let (observed, resident) = execute(&plan, &args, &opts);
            assert_eq!(resident, run > 0, "{}", case.name);
            assert_eq!(observed, expected, "{} run {run}", case.name);
        }
    }
}

/// A [`CamDevice`] that counts host `write_rows` calls.
#[derive(Clone)]
struct Counting {
    inner: CamMachine,
    writes: Arc<AtomicUsize>,
}

impl CamDevice for Counting {
    fn alloc_bank(&mut self) -> Result<BankId, SimError> {
        self.inner.alloc_bank()
    }

    fn alloc_mat(&mut self, bank: BankId) -> Result<MatId, SimError> {
        self.inner.alloc_mat(bank)
    }

    fn alloc_array(&mut self, mat: MatId) -> Result<ArrayId, SimError> {
        self.inner.alloc_array(mat)
    }

    fn alloc_subarray(&mut self, array: ArrayId) -> Result<SubarrayId, SimError> {
        self.inner.alloc_subarray(array)
    }

    fn write_rows(
        &mut self,
        id: SubarrayId,
        row_offset: usize,
        data: &[Vec<f32>],
    ) -> Result<(), SimError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_rows(id, row_offset, data)
    }

    fn search(
        &mut self,
        id: SubarrayId,
        query: &[f32],
        spec: SearchSpec,
    ) -> Result<&SearchResult, SimError> {
        self.inner.search(id, query, spec)
    }

    fn read(&mut self, id: SubarrayId) -> Result<&SearchResult, SimError> {
        self.inner.read(id)
    }

    fn merge(&mut self, level: c4cam::arch::tech::Level, elems: usize) {
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

#[test]
fn a_resident_hit_programs_nothing_on_the_host() {
    let telemetry = Telemetry::default();
    let retry = RetryPolicy::default();
    for case in cases() {
        let tape = case.tape();
        let args = case.args(&case.stored, &case.queries);
        for threads in [1, 2] {
            let expected = case.fresh(&args, &ExecOptions::sequential().with_threads(threads));
            let writes = Arc::new(AtomicUsize::new(0));
            let mut cold = Counting {
                inner: CamMachine::new(&case.spec),
                writes: Arc::clone(&writes),
            };
            let (_, resident) = tape
                .run_keeping_setup(&mut cold, &args, threads, &telemetry, &retry, None)
                .unwrap();
            let resident = resident.expect("the tape has a query loop");
            let programmed = writes.load(Ordering::Relaxed);
            assert!(programmed > 0, "{}: setup programs", case.name);
            assert!(resident.accepts(&args));

            let (outputs, fork) = tape
                .run_resident(&resident, &args, threads, &telemetry, &retry, None)
                .unwrap();
            assert_eq!(
                writes.load(Ordering::Relaxed),
                programmed,
                "{}: a hit must not write rows",
                case.name
            );
            // The device still charged programming on this run.
            assert_eq!(fork.stats().write_ops, expected.stats.write_ops);
            let observed = Observed::new(&outputs, fork.stats(), fork.phases().to_vec());
            assert_eq!(observed, expected, "{} at {threads}t", case.name);
        }
    }
}

#[test]
fn a_resident_setup_rejects_other_setup_inputs() {
    let case = &cases()[1];
    let tape = case.tape();
    let args = case.args(&case.stored, &case.queries);
    let mut machine = CamMachine::new(&case.spec);
    let (_, resident) = tape
        .run_keeping_setup(
            &mut machine,
            &args,
            1,
            &Telemetry::default(),
            &RetryPolicy::default(),
            None,
        )
        .unwrap();
    let resident = resident.unwrap();
    let other = case.args(&perturbed(&case.stored), &case.queries);
    assert!(!resident.accepts(&other));
    let err = tape
        .run_resident(
            &resident,
            &other,
            1,
            &Telemetry::default(),
            &RetryPolicy::default(),
            None,
        )
        .unwrap_err();
    assert!(err.to_string().contains("resident"), "{err}");
}

#[test]
fn metrics_report_counts_resident_hits() {
    let recorder = Arc::new(CollectingRecorder::new());
    let workload = mini_mnist(DatasetTask::Knn);
    let compiled = Experiment::new(&workload)
        .arch(small_spec(1))
        .telemetry(Telemetry::new(Arc::clone(&recorder) as _))
        .compile()
        .unwrap();
    let hits = |events: &[Event]| {
        MetricsReport::from_events(events)
            .counters
            .into_iter()
            .find(|(n, _)| n == "plan.resident_hits")
            .map(|(_, v)| v)
    };
    let first = compiled.run().unwrap();
    assert_eq!(hits(&recorder.events()), None, "a cold run reports no hit");
    let second = compiled.run().unwrap();
    assert_eq!(second.predictions, first.predictions);
    assert_eq!(second.total, first.total);
    assert_eq!(second.setup, first.setup);
    compiled.run().unwrap();
    let events = recorder.events();
    assert_eq!(hits(&events), Some(2.0));
    let report = MetricsReport::from_events(&events).render_full(5);
    assert!(report.contains("plan.resident_hits"), "{report}");
}
