//! `Send`-able snapshots of the VM slot file.
//!
//! Runtime [`Value`]s hold buffers as `Rc<RefCell<Tensor>>`, which
//! cannot cross threads. A [`Frozen`] value is the same payload with
//! each buffer's `Rc` dropped: the tensor inside is kept as a
//! copy-on-write clone, so freezing and thawing share element data
//! instead of copying it, and a thawed buffer is copied only when it
//! is first written. Worker shards and resident setups thaw a snapshot
//! into a private slot file (each buffer becomes a fresh `Rc`, and
//! slots that shared a buffer share the fresh one), run, and freeze
//! again for the merge step.

use std::collections::HashMap;
use std::rc::Rc;

use c4cam_runtime::{Handle, Value};
use c4cam_tensor::Tensor;

/// One slot's payload, detached from any shared state.
#[derive(Debug, Clone)]
pub(crate) enum Frozen {
    /// Immutable tensor.
    Tensor(Tensor),
    /// Buffer contents (identity is re-established on thaw).
    Buffer(Tensor),
    /// The same buffer as the earlier slot at this index.
    Alias(usize),
    /// `index` integer.
    Index(i64),
    /// Fixed-width integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Float scalar.
    Float(f64),
    /// CAM hierarchy handle.
    Handle(Handle),
    /// Host-path device token.
    Token(i64),
}

pub(crate) fn freeze(v: &Value) -> Frozen {
    match v {
        Value::Tensor(t) => Frozen::Tensor(t.clone()),
        Value::Buffer(b) => Frozen::Buffer(b.borrow().clone()),
        Value::Index(v) => Frozen::Index(*v),
        Value::Int(v) => Frozen::Int(*v),
        Value::Bool(v) => Frozen::Bool(*v),
        Value::Float(v) => Frozen::Float(*v),
        Value::Handle(h) => Frozen::Handle(*h),
        Value::DeviceToken(t) => Frozen::Token(*t),
    }
}

/// Freeze a whole slot file. A buffer held by several slots is frozen
/// once, at its first slot; the others become [`Frozen::Alias`] so
/// [`thaw_slots`] gives them one shared buffer again.
pub(crate) fn freeze_slots(slots: &[Value]) -> Vec<Frozen> {
    let mut first = HashMap::new();
    slots
        .iter()
        .enumerate()
        .map(|(i, v)| match v {
            Value::Buffer(b) => match first.get(&Rc::as_ptr(b)) {
                Some(&j) => Frozen::Alias(j),
                None => {
                    first.insert(Rc::as_ptr(b), i);
                    freeze(v)
                }
            },
            _ => freeze(v),
        })
        .collect()
}

/// Thaw a snapshot made by [`freeze_slots`] into a private slot file.
pub(crate) fn thaw_slots(frozen: &[Frozen]) -> Vec<Value> {
    let mut slots: Vec<Value> = Vec::with_capacity(frozen.len());
    for f in frozen {
        let v = match f {
            Frozen::Tensor(t) => Value::Tensor(t.clone()),
            Frozen::Buffer(t) => Value::buffer_from(t.clone()),
            Frozen::Alias(j) => slots[*j].clone(),
            Frozen::Index(v) => Value::Index(*v),
            Frozen::Int(v) => Value::Int(*v),
            Frozen::Bool(v) => Value::Bool(*v),
            Frozen::Float(v) => Value::Float(*v),
            Frozen::Handle(h) => Value::Handle(*h),
            Frozen::Token(t) => Value::DeviceToken(*t),
        };
        slots.push(v);
    }
    slots
}

/// Whether `arg` is the value `held` was frozen from: tensors by
/// buffer identity and shape (the snapshot holds the buffer, so its
/// address cannot be reused), scalars by value. Buffers never match —
/// their contents can change behind a shared `Rc`.
pub(crate) fn same_input(held: &Frozen, arg: &Value) -> bool {
    match (held, arg) {
        (Frozen::Tensor(a), Value::Tensor(b)) => a.shares_data(b) && a.shape() == b.shape(),
        (Frozen::Index(a), Value::Index(b))
        | (Frozen::Int(a), Value::Int(b))
        | (Frozen::Token(a), Value::DeviceToken(b)) => a == b,
        (Frozen::Bool(a), Value::Bool(b)) => a == b,
        (Frozen::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        (Frozen::Handle(a), Value::Handle(b)) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer_data(v: &Value) -> Vec<f32> {
        v.snapshot_tensor().unwrap().data().to_vec()
    }

    #[test]
    fn freeze_thaw_round_trips_buffers_without_sharing() {
        let original = Value::buffer_from(Tensor::from_slice(&[1.0, 2.0]));
        let thawed = thaw_slots(&freeze_slots(std::slice::from_ref(&original)));
        if let Value::Buffer(b) = &thawed[0] {
            b.borrow_mut().data_mut()[0] = 9.0;
        }
        // The original buffer is untouched: thaw created a fresh Rc,
        // and the write copied the shared element data first.
        assert_eq!(buffer_data(&original), &[1.0, 2.0]);
        assert_eq!(buffer_data(&thawed[0]), &[9.0, 2.0]);
    }

    #[test]
    fn thaw_shares_element_data_until_written() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        let frozen = freeze_slots(&[Value::Tensor(t.clone()), Value::buffer_from(t.clone())]);
        let thawed = thaw_slots(&frozen);
        assert!(thawed[0].as_tensor().unwrap().shares_data(&t));
        assert!(thawed[1].snapshot_tensor().unwrap().shares_data(&t));
    }

    #[test]
    fn aliased_slots_thaw_to_one_buffer() {
        let shared = Value::buffer_from(Tensor::from_slice(&[0.0]));
        let slots = [shared.clone(), Value::Int(3), shared];
        let frozen = freeze_slots(&slots);
        assert!(matches!(frozen[2], Frozen::Alias(0)));
        let thawed = thaw_slots(&frozen);
        if let Value::Buffer(b) = &thawed[2] {
            b.borrow_mut().data_mut()[0] = 5.0;
        }
        assert_eq!(buffer_data(&thawed[0]), &[5.0], "alias re-linked");
        assert_eq!(buffer_data(&slots[0]), &[0.0], "original untouched");
    }

    #[test]
    fn inputs_match_by_buffer_identity_and_shape() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.0; 4]).unwrap();
        let held = freeze(&Value::Tensor(t.clone()));
        assert!(same_input(&held, &Value::Tensor(t.clone())));
        let equal_copy = Tensor::from_vec(vec![2, 2], vec![1.0; 4]).unwrap();
        assert!(!same_input(&held, &Value::Tensor(equal_copy)));
        let reshaped = t.clone().reshape(vec![4]).unwrap();
        assert!(!same_input(&held, &Value::Tensor(reshaped)));
        assert!(!same_input(&held, &Value::buffer_from(t)));
        assert!(same_input(&Frozen::Index(4), &Value::Index(4)));
        assert!(!same_input(&Frozen::Index(4), &Value::Int(4)));
    }

    #[test]
    fn frozen_values_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Frozen>();
    }
}
