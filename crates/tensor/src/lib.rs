//! # c4cam-tensor — minimal dense tensors
//!
//! A small copy-on-write tensor library backing the C4CAM runtime, the
//! host reference executor and the workloads. It deliberately implements
//! only what the paper's kernels need: row-major `f32` tensors with
//! matmul, transpose, elementwise arithmetic, vector norms, `topk` and
//! rectangular slicing (the `tensor.extract_slice` runtime semantics).
//!
//! ## Example
//!
//! ```
//! use c4cam_tensor::Tensor;
//!
//! # fn main() -> Result<(), c4cam_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = a.transpose2d()?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.get(&[0, 0])?, 14.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ops;
mod tensor;

pub use ops::TopK;
pub use tensor::{Tensor, TensorError};
