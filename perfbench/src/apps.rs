//! The applications the workloads run, and their CPU reference answers.
//!
//! Every reference is computed on the CPU from the generated inputs,
//! without the compiler, so a wrong device answer cannot also be the
//! expected one.

use c4cam::arch::ArchSpec;
use c4cam::frontend::{parse_torchscript, FrontendConfig};
use c4cam::tensor::Tensor;
use c4cam::workloads::hdc::HdcModel;
use c4cam::workloads::{
    nearest_rows_cpu, ArgOrder, DtreeWorkload, HdcWorkload, KnnWorkload, Workload, WorkloadInputs,
    WorkloadModule,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The TorchScript kernel the frontend compiles: `matmul` + `topk`.
pub const TOPK_SOURCE: &str = include_str!("../../examples/data/knn_topk.py");

/// `examples/data/knn_topk.py` as a workload: every `build_module`
/// goes through the TorchScript frontend. Stored rows are random cell
/// levels and each query is a stored row with a share of its elements
/// re-drawn, so the largest dot product is the source row by a wide
/// margin.
#[derive(Debug, Clone)]
pub struct TopkApp {
    /// Rows of `self.weight`.
    pub stored: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Rows of `input`.
    pub queries: usize,
    /// Share of each query's elements re-drawn.
    pub noise: f64,
    /// Input seed.
    pub seed: u64,
}

impl TopkApp {
    fn config(&self) -> FrontendConfig {
        FrontendConfig::new()
            .input(vec![self.queries as i64, self.dims as i64])
            .parameter("weight", vec![self.stored as i64, self.dims as i64])
    }

    /// Check once, before any timed call, that the source lowers to the
    /// entry point and argument order [`Workload::build_module`]
    /// declares.
    ///
    /// # Errors
    /// A frontend error or an unexpected signature.
    pub fn check_source(&self) -> Result<(), String> {
        let lowered = parse_torchscript(TOPK_SOURCE, &self.config()).map_err(|e| e.to_string())?;
        if lowered.name != "forward" || lowered.arg_order != ["input", "self.weight"] {
            return Err(format!(
                "knn_topk.py lowers to {}({:?}), expected forward(input, self.weight)",
                lowered.name, lowered.arg_order
            ));
        }
        Ok(())
    }
}

impl Workload for TopkApp {
    fn name(&self) -> &'static str {
        "knn_topk"
    }

    fn query_count(&self) -> usize {
        self.queries
    }

    fn stored_rows(&self) -> usize {
        self.stored
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn build_module(&self, _spec: &ArchSpec) -> WorkloadModule {
        let lowered = parse_torchscript(TOPK_SOURCE, &self.config())
            .expect("knn_topk.py lowers (checked by check_source)");
        WorkloadModule {
            module: lowered.module,
            func: "forward",
            arg_order: ArgOrder::QueriesThenStored,
        }
    }

    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        let levels = 1u32 << spec.bits_per_cell;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let stored: Vec<f32> = (0..self.stored * self.dims)
            .map(|_| rng.gen_range(0..levels) as f32)
            .collect();
        let mut queries = Vec::with_capacity(self.queries * self.dims);
        let mut labels = Vec::with_capacity(self.queries);
        for _ in 0..self.queries {
            let row = rng.gen_range(0..self.stored);
            labels.push(row);
            for &v in &stored[row * self.dims..(row + 1) * self.dims] {
                queries.push(if rng.gen_bool(self.noise) {
                    rng.gen_range(0..levels) as f32
                } else {
                    v
                });
            }
        }
        WorkloadInputs {
            stored: Tensor::from_vec(vec![self.stored, self.dims], stored).expect("shape"),
            queries: Tensor::from_vec(vec![self.queries, self.dims], queries).expect("shape"),
            labels,
        }
    }
}

/// `matmul(input, weight^T)` followed by top-1 (largest, lowest index
/// on ties), in f64.
pub fn topk_reference(stored: &Tensor, queries: &Tensor) -> Vec<usize> {
    (0..queries.shape()[0])
        .map(|q| {
            let qr = queries.row(q).expect("query row");
            let mut best = (0usize, f64::NEG_INFINITY);
            for r in 0..stored.shape()[0] {
                let dot: f64 = stored
                    .row(r)
                    .expect("stored row")
                    .iter()
                    .zip(qr)
                    .map(|(&s, &x)| f64::from(s) * f64::from(x))
                    .sum();
                if dot > best.1 {
                    best = (r, dot);
                }
            }
            best.0
        })
        .collect()
}

/// One application of a workload, with the reference that checks it.
#[derive(Debug, Clone)]
pub enum App {
    /// Hyperdimensional classification (TCAM Hamming search).
    Hdc(HdcWorkload),
    /// K-nearest neighbours (MCAM Euclidean search).
    Knn(KnnWorkload),
    /// Decision tree as nearest quantized path (ACAM).
    Dtree(DtreeWorkload),
    /// The TorchScript `matmul` + `topk` kernel.
    Topk(TopkApp),
}

impl App {
    /// The application as `c4cam::driver` sees it.
    pub fn workload(&self) -> &dyn Workload {
        match self {
            App::Hdc(w) => w,
            App::Knn(w) => w,
            App::Dtree(w) => w,
            App::Topk(w) => w,
        }
    }

    /// Whether `build_module` runs the TorchScript frontend.
    pub fn uses_frontend(&self) -> bool {
        matches!(self, App::Topk(_))
    }

    /// The expected top-1 stored row of every query in `inputs`, as
    /// generated for `spec`:
    /// - HDC: `HdcModel::predict_cpu` (nearest prototype by Hamming or
    ///   squared Euclidean distance);
    /// - KNN and decision tree: `nearest_rows_cpu` (nearest stored row
    ///   by squared Euclidean distance). For the tree this is the
    ///   nearest quantized path, which is what the device computes;
    ///   `DecisionTree::classify` on the raw sample is the model's own
    ///   answer and disagrees with it wherever quantization moves a
    ///   sample across a threshold, so it cannot judge the compiler;
    /// - `knn_topk.py`: [`topk_reference`].
    pub fn reference(&self, spec: &ArchSpec, inputs: &WorkloadInputs) -> Vec<usize> {
        match self {
            App::Hdc(w) => HdcModel::random(w.classes, w.dims, spec.bits_per_cell, w.seed)
                .predict_cpu(&inputs.queries),
            App::Knn(_) | App::Dtree(_) => nearest_rows_cpu(&inputs.stored, &inputs.queries),
            App::Topk(_) => topk_reference(&inputs.stored, &inputs.queries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam::arch::Optimization;
    use c4cam::driver::{paper_arch, Experiment};

    #[test]
    fn topk_reference_picks_the_largest_dot_with_lowest_index_on_ties() {
        let stored = Tensor::from_vec(vec![3, 2], vec![1.0, 0.0, 0.0, 2.0, 0.0, 2.0]).unwrap();
        let queries = Tensor::from_vec(vec![2, 2], vec![1.0, 1.0, 3.0, 0.0]).unwrap();
        assert_eq!(topk_reference(&stored, &queries), vec![1, 0]);
    }

    #[test]
    fn every_app_matches_its_reference_on_a_small_arch() {
        let apps = [
            App::Hdc(HdcWorkload {
                classes: 4,
                dims: 256,
                queries: 4,
                flip_rate: 0.1,
                seed: 3,
            }),
            App::Knn(KnnWorkload {
                patterns: 32,
                dims: 64,
                queries: 4,
                k: 1,
                noise: 0.2,
                seed: 3,
            }),
            App::Dtree(DtreeWorkload::new(8, 3, 3, 4, 3)),
            App::Topk(TopkApp {
                stored: 8,
                dims: 64,
                queries: 4,
                noise: 0.1,
                seed: 3,
            }),
        ];
        for app in &apps {
            if let App::Topk(t) = app {
                t.check_source().unwrap();
            }
            for bits in [1, 2] {
                let spec = paper_arch(16, Optimization::Base, bits);
                let out = Experiment::new(app.workload())
                    .arch(spec.clone())
                    .run()
                    .unwrap();
                let inputs = app.workload().inputs(&spec);
                assert_eq!(
                    out.predictions,
                    app.reference(&spec, &inputs),
                    "{} at {bits} bit(s)",
                    app.workload().name()
                );
            }
        }
    }
}
