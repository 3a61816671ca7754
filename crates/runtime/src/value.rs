//! Runtime values flowing through the interpreter.

use c4cam_camsim::{ArrayId, BankId, MatId, SubarrayId};
use c4cam_tensor::Tensor;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A CAM hierarchy handle held at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handle {
    /// Bank handle.
    Bank(BankId),
    /// Mat handle.
    Mat(MatId),
    /// Array handle.
    Array(ArrayId),
    /// Subarray handle.
    Subarray(SubarrayId),
}

/// A runtime value: one SSA value's payload during interpretation.
#[derive(Debug, Clone)]
pub enum Value {
    /// Immutable dense tensor.
    Tensor(Tensor),
    /// Mutable shared buffer (`memref`).
    Buffer(Rc<RefCell<Tensor>>),
    /// `index`-typed integer.
    Index(i64),
    /// Fixed-width integer (`i64`, `i32`, ...).
    Int(i64),
    /// Boolean (`i1`).
    Bool(bool),
    /// Float scalar.
    Float(f64),
    /// CAM hierarchy handle.
    Handle(Handle),
    /// Placeholder for `cim.acquire` device handles on the host path.
    DeviceToken(i64),
}

impl Value {
    /// New zeroed buffer of the given shape.
    pub fn new_buffer(shape: Vec<usize>) -> Value {
        Value::Buffer(Rc::new(RefCell::new(Tensor::zeros(shape))))
    }

    /// Wrap a tensor as a buffer.
    pub fn buffer_from(t: Tensor) -> Value {
        Value::Buffer(Rc::new(RefCell::new(t)))
    }

    /// Borrow as tensor (fails for non-tensor values; buffers are not
    /// implicitly converted — use [`Value::snapshot_tensor`]).
    pub fn as_tensor(&self) -> Option<&Tensor> {
        match self {
            Value::Tensor(t) => Some(t),
            _ => None,
        }
    }

    /// The tensor content of a tensor *or* buffer value, as a
    /// copy-on-write clone: later writes to the buffer do not reach it.
    pub fn snapshot_tensor(&self) -> Option<Tensor> {
        match self {
            Value::Tensor(t) => Some(t.clone()),
            Value::Buffer(b) => Some(b.borrow().clone()),
            _ => None,
        }
    }

    /// Integer payload of `index`/`iN` values.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Index(v) | Value::Int(v) => Some(*v),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Index(v) | Value::Int(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// Buffer payload.
    pub fn as_buffer(&self) -> Option<&Rc<RefCell<Tensor>>> {
        match self {
            Value::Buffer(b) => Some(b),
            _ => None,
        }
    }

    /// Handle payload.
    pub fn as_handle(&self) -> Option<Handle> {
        match self {
            Value::Handle(h) => Some(*h),
            _ => None,
        }
    }

    /// Short tag for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Tensor(_) => "tensor",
            Value::Buffer(_) => "buffer",
            Value::Index(_) => "index",
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Float(_) => "float",
            Value::Handle(_) => "cam-handle",
            Value::DeviceToken(_) => "device-token",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Tensor(t) => write!(f, "tensor{:?}", t.shape()),
            Value::Buffer(b) => write!(f, "buffer{:?}", b.borrow().shape()),
            Value::Index(v) => write!(f, "index {v}"),
            Value::Int(v) => write!(f, "int {v}"),
            Value::Bool(v) => write!(f, "bool {v}"),
            Value::Float(v) => write!(f, "float {v}"),
            Value::Handle(h) => write!(f, "{h:?}"),
            Value::DeviceToken(v) => write!(f, "device#{v}"),
        }
    }
}

impl From<Tensor> for Value {
    fn from(t: Tensor) -> Value {
        Value::Tensor(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_are_type_safe() {
        let t = Value::Tensor(Tensor::zeros(vec![2, 2]));
        assert!(t.as_tensor().is_some());
        assert!(t.as_int().is_none());
        assert_eq!(Value::Index(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Int(0).as_bool(), Some(false));
        assert!(Value::Float(1.0).as_int().is_none());
        assert_eq!(t.kind_name(), "tensor");
    }

    #[test]
    fn buffers_share_mutation() {
        let b = Value::new_buffer(vec![2]);
        let b2 = b.clone();
        if let Value::Buffer(rc) = &b {
            rc.borrow_mut().data_mut()[0] = 5.0;
        }
        assert_eq!(b2.snapshot_tensor().unwrap().data()[0], 5.0);
    }

    #[test]
    fn snapshot_covers_tensors_and_buffers() {
        let t = Value::Tensor(Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(t.snapshot_tensor().unwrap().len(), 2);
        let b = Value::buffer_from(Tensor::from_slice(&[3.0]));
        assert_eq!(b.snapshot_tensor().unwrap().data(), &[3.0]);
        assert!(Value::Index(1).snapshot_tensor().is_none());
    }
}
