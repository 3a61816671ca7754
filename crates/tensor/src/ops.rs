//! Tensor operations used by the C4CAM kernels: matmul, transpose,
//! elementwise arithmetic, norms, `topk` and slicing.

use crate::tensor::{Tensor, TensorError};

/// Result of a top-k selection: the selected values and their indices
/// along the reduced dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Selected values, shape `[rows, k]`.
    pub values: Tensor,
    /// Matching indices (as `f32`-stored integers), shape `[rows, k]`.
    pub indices: Tensor,
}

impl Tensor {
    /// Matrix multiplication of rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// # Errors
    /// Fails on rank or inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::new("matmul requires rank-2 tensors"));
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::new(format!(
                "matmul inner dims differ: {k} vs {k2}"
            )));
        }
        let a = self.data();
        let b = rhs.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += av * brow[j];
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    /// Fails if the tensor is not rank 2.
    pub fn transpose2d(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::new("transpose2d requires a rank-2 tensor"));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    /// Fails on shape mismatch.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, |a, b| a - b, "sub")
    }

    /// Elementwise addition.
    ///
    /// # Errors
    /// Fails on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, |a, b| a + b, "add")
    }

    /// Elementwise multiplication.
    ///
    /// # Errors
    /// Fails on shape mismatch.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, |a, b| a * b, "mul")
    }

    /// Elementwise division.
    ///
    /// # Errors
    /// Fails on shape mismatch.
    pub fn div(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, |a, b| a / b, "div")
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        f: impl Fn(f32, f32) -> f32,
        name: &str,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::new(format!(
                "{name}: shape mismatch {:?} vs {:?}",
                self.shape(),
                rhs.shape()
            )));
        }
        let data = self
            .data()
            .iter()
            .zip(rhs.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(self.shape().to_vec(), data)
    }

    /// Scale every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data().iter().map(|&a| a * s).collect();
        Tensor::from_vec(self.shape().to_vec(), data).expect("same shape")
    }

    /// L2 norm of the whole tensor.
    pub fn norm_l2(&self) -> f32 {
        self.data()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Row-wise L2 norms of a rank-2 tensor: `[m,n] -> [m]`.
    ///
    /// # Errors
    /// Fails if the tensor is not rank 2.
    pub fn norm_rows(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::new("norm_rows requires a rank-2 tensor"));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            out.push(
                row.iter()
                    .map(|&x| (x as f64) * (x as f64))
                    .sum::<f64>()
                    .sqrt() as f32,
            );
        }
        Tensor::from_vec(vec![m], out)
    }

    /// `topk` along the last dimension of a rank-2 tensor.
    ///
    /// Returns the `k` largest (`largest = true`) or smallest values per
    /// row together with their column indices, sorted by rank (best
    /// first). Ties resolve to the lower index, matching ATen.
    ///
    /// # Errors
    /// Fails if the tensor is not rank 2 or `k` exceeds the row length.
    pub fn topk(&self, k: usize, largest: bool) -> Result<TopK, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::new("topk requires a rank-2 tensor"));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        if k > n {
            return Err(TensorError::new(format!("k = {k} > row length {n}")));
        }
        let mut values = Vec::with_capacity(m * k);
        let mut indices = Vec::with_capacity(m * k);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let cmp = row[a]
                    .partial_cmp(&row[b])
                    .unwrap_or(std::cmp::Ordering::Equal);
                let cmp = if largest { cmp.reverse() } else { cmp };
                cmp.then(a.cmp(&b))
            });
            for &j in order.iter().take(k) {
                values.push(row[j]);
                indices.push(j as f32);
            }
        }
        Ok(TopK {
            values: Tensor::from_vec(vec![m, k], values)?,
            indices: Tensor::from_vec(vec![m, k], indices)?,
        })
    }

    /// Extract a rectangular slice from a rank-2 tensor
    /// (`tensor.extract_slice` with unit strides).
    ///
    /// # Errors
    /// Fails if the window exceeds the tensor bounds.
    pub fn slice2d(
        &self,
        row_off: usize,
        col_off: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::new("slice2d requires a rank-2 tensor"));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        if row_off + rows > m || col_off + cols > n {
            return Err(TensorError::new(format!(
                "slice [{row_off}+{rows}, {col_off}+{cols}] exceeds shape [{m}, {n}]"
            )));
        }
        let mut out = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            let start = (row_off + i) * n + col_off;
            out.extend_from_slice(&self.data()[start..start + cols]);
        }
        Tensor::from_vec(vec![rows, cols], out)
    }

    /// Write `patch` into a rank-2 tensor at the given offsets
    /// (`tensor.insert_slice` semantics).
    ///
    /// # Errors
    /// Fails if the patch exceeds the tensor bounds.
    pub fn insert2d(
        &mut self,
        patch: &Tensor,
        row_off: usize,
        col_off: usize,
    ) -> Result<(), TensorError> {
        if self.rank() != 2 || patch.rank() != 2 {
            return Err(TensorError::new("insert2d requires rank-2 tensors"));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let (pr, pc) = (patch.shape()[0], patch.shape()[1]);
        if row_off + pr > m || col_off + pc > n {
            return Err(TensorError::new("patch exceeds tensor bounds"));
        }
        let data = self.data_mut();
        for i in 0..pr {
            let dst = (row_off + i) * n + col_off;
            let src = i * pc;
            data[dst..dst + pc].copy_from_slice(&patch.data()[src..src + pc]);
        }
        Ok(())
    }

    /// Squared Euclidean distance between two equal-length vectors.
    ///
    /// # Errors
    /// Fails on length mismatch.
    pub fn squared_distance(a: &[f32], b: &[f32]) -> Result<f64, TensorError> {
        if a.len() != b.len() {
            return Err(TensorError::new("length mismatch"));
        }
        Ok(a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum())
    }

    /// Hamming distance between two equal-length vectors (counts unequal
    /// element pairs).
    ///
    /// # Errors
    /// Fails on length mismatch.
    pub fn hamming_distance(a: &[f32], b: &[f32]) -> Result<usize, TensorError> {
        if a.len() != b.len() {
            return Err(TensorError::new("length mismatch"));
        }
        Ok(a.iter().zip(b).filter(|(&x, &y)| x != y).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = a.transpose2d().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), 6.0);
        assert_eq!(t.transpose2d().unwrap(), a);
    }

    #[test]
    fn elementwise_ops_and_shape_checks() {
        let a = Tensor::from_slice(&[4., 9.]);
        let b = Tensor::from_slice(&[2., 3.]);
        assert_eq!(a.sub(&b).unwrap().data(), &[2., 6.]);
        assert_eq!(a.add(&b).unwrap().data(), &[6., 12.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[8., 27.]);
        assert_eq!(a.div(&b).unwrap().data(), &[2., 3.]);
        assert_eq!(a.scale(0.5).data(), &[2., 4.5]);
        let c = Tensor::from_slice(&[1.]);
        assert!(a.sub(&c).is_err());
    }

    #[test]
    fn norms_match_reference() {
        let a = Tensor::from_vec(vec![2, 2], vec![3., 4., 0., 0.]).unwrap();
        let norms = a.norm_rows().unwrap();
        assert_eq!(norms.data(), &[5., 0.]);
        assert_eq!(Tensor::from_slice(&[3., 4.]).norm_l2(), 5.0);
    }

    #[test]
    fn topk_smallest_and_largest() {
        let a = Tensor::from_vec(vec![2, 4], vec![5., 1., 3., 2., 8., 6., 7., 9.]).unwrap();
        let small = a.topk(2, false).unwrap();
        assert_eq!(small.values.data(), &[1., 2., 6., 7.]);
        assert_eq!(small.indices.data(), &[1., 3., 1., 2.]);
        let large = a.topk(1, true).unwrap();
        assert_eq!(large.values.data(), &[5., 9.]);
        assert_eq!(large.indices.data(), &[0., 3.]);
        assert!(a.topk(5, true).is_err());
    }

    #[test]
    fn topk_ties_prefer_lower_index() {
        let a = Tensor::from_vec(vec![1, 3], vec![2., 2., 2.]).unwrap();
        let k = a.topk(2, false).unwrap();
        assert_eq!(k.indices.data(), &[0., 1.]);
    }

    #[test]
    fn slicing_roundtrips_through_insert() {
        let a = Tensor::from_vec(vec![3, 4], (0..12).map(|x| x as f32).collect()).unwrap();
        let s = a.slice2d(1, 1, 2, 2).unwrap();
        assert_eq!(s.data(), &[5., 6., 9., 10.]);
        let mut b = Tensor::zeros(vec![3, 4]);
        b.insert2d(&s, 1, 1).unwrap();
        assert_eq!(b.get(&[2, 2]).unwrap(), 10.0);
        assert_eq!(b.get(&[0, 0]).unwrap(), 0.0);
        assert!(a.slice2d(2, 3, 2, 2).is_err());
    }

    #[test]
    fn distance_helpers() {
        let a = [1.0f32, 0.0, 1.0];
        let b = [0.0f32, 0.0, 1.0];
        assert_eq!(Tensor::hamming_distance(&a, &b).unwrap(), 1);
        assert_eq!(Tensor::squared_distance(&a, &b).unwrap(), 1.0);
        assert!(Tensor::hamming_distance(&a, &b[..2]).is_err());
    }
}
