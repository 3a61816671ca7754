//! Type system for the C4CAM IR.
//!
//! Types are interned per-[`Module`](crate::Module): a [`Type`] is a cheap
//! copyable handle into the module's interner, and structurally equal types
//! always compare equal by handle. The set of types mirrors the subset of
//! MLIR that the C4CAM pipeline touches: scalars, `index`, ranked tensors,
//! memrefs, function types, and the CAM handle types introduced by the
//! `cam` dialect (`!cam.bank_id` and friends).

use std::fmt;

/// A handle to an interned type. Only meaningful together with the
/// [`Module`](crate::Module) that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Type(pub(crate) u32);

impl Type {
    /// Raw index of this handle inside its module's interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Level of the CAM hierarchy a handle type refers to.
///
/// The `cam` dialect allocates resources level by level
/// (`cam.alloc_bank` → `cam.alloc_mat` → `cam.alloc_array` →
/// `cam.alloc_subarray`), each returning a value of the matching handle
/// type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CamLevel {
    /// A CAM bank (`!cam.bank_id`).
    Bank,
    /// A mat inside a bank (`!cam.mat_id`).
    Mat,
    /// A CAM array inside a mat (`!cam.array_id`).
    Array,
    /// A subarray inside an array (`!cam.subarray_id`).
    Subarray,
}

impl CamLevel {
    /// All levels, outermost first.
    pub const ALL: [CamLevel; 4] = [
        CamLevel::Bank,
        CamLevel::Mat,
        CamLevel::Array,
        CamLevel::Subarray,
    ];

    /// The textual keyword used in the IR (`bank_id`, `mat_id`, ...).
    pub fn keyword(self) -> &'static str {
        match self {
            CamLevel::Bank => "bank_id",
            CamLevel::Mat => "mat_id",
            CamLevel::Array => "array_id",
            CamLevel::Subarray => "subarray_id",
        }
    }

    /// The next level down the hierarchy, if any.
    pub fn child(self) -> Option<CamLevel> {
        match self {
            CamLevel::Bank => Some(CamLevel::Mat),
            CamLevel::Mat => Some(CamLevel::Array),
            CamLevel::Array => Some(CamLevel::Subarray),
            CamLevel::Subarray => None,
        }
    }
}

impl fmt::Display for CamLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Structural description of a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// Signless integer of the given bit width (`i1`, `i32`, `i64`, ...).
    Integer {
        /// Bit width.
        width: u32,
    },
    /// IEEE float of the given bit width (`f32`, `f64`).
    Float {
        /// Bit width.
        width: u32,
    },
    /// Platform-sized index type (`index`).
    Index,
    /// The empty/unit type (`none`).
    None,
    /// Ranked tensor (`tensor<10x8192xf32>`). A dimension of
    /// [`DYNAMIC_DIM`] denotes a dynamic size (`?`).
    RankedTensor {
        /// Dimension sizes.
        shape: Vec<i64>,
        /// Element type.
        elem: Type,
    },
    /// Buffer type (`memref<10x32xf32>`), produced by bufferization in the
    /// `cim`-to-`cam` lowering.
    MemRef {
        /// Dimension sizes.
        shape: Vec<i64>,
        /// Element type.
        elem: Type,
    },
    /// Function type (`(T...) -> (T...)`).
    Function {
        /// Parameter types.
        inputs: Vec<Type>,
        /// Result types.
        results: Vec<Type>,
    },
    /// CAM hierarchy handle (`!cam.bank_id`, ...).
    CamHandle(CamLevel),
}

/// Sentinel shape entry meaning "dynamic dimension" (printed as `?`).
pub const DYNAMIC_DIM: i64 = i64::MIN;

impl TypeKind {
    /// Whether the type is a shaped type (tensor or memref).
    pub fn is_shaped(&self) -> bool {
        matches!(
            self,
            TypeKind::RankedTensor { .. } | TypeKind::MemRef { .. }
        )
    }

    /// Shape of a shaped type.
    pub fn shape(&self) -> Option<&[i64]> {
        match self {
            TypeKind::RankedTensor { shape, .. } | TypeKind::MemRef { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Element type of a shaped type.
    pub fn elem(&self) -> Option<Type> {
        match self {
            TypeKind::RankedTensor { elem, .. } | TypeKind::MemRef { elem, .. } => Some(*elem),
            _ => None,
        }
    }

    /// Number of elements of a statically shaped type.
    pub fn num_elements(&self) -> Option<i64> {
        let shape = self.shape()?;
        let mut n: i64 = 1;
        for &d in shape {
            if d == DYNAMIC_DIM {
                return None;
            }
            n = n.checked_mul(d)?;
        }
        Some(n)
    }
}

/// Per-module type interner.
#[derive(Debug, Default, Clone)]
pub(crate) struct TypeInterner {
    kinds: Vec<TypeKind>,
    map: std::collections::HashMap<TypeKind, Type>,
}

impl TypeInterner {
    pub(crate) fn intern(&mut self, kind: TypeKind) -> Type {
        if let Some(&t) = self.map.get(&kind) {
            return t;
        }
        let t = Type(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.map.insert(kind, t);
        t
    }

    pub(crate) fn kind(&self, ty: Type) -> &TypeKind {
        &self.kinds[ty.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_structurally_equal_types() {
        let mut i = TypeInterner::default();
        let f32a = i.intern(TypeKind::Float { width: 32 });
        let f32b = i.intern(TypeKind::Float { width: 32 });
        assert_eq!(f32a, f32b);
        let t1 = i.intern(TypeKind::RankedTensor {
            shape: vec![10, 8192],
            elem: f32a,
        });
        let t2 = i.intern(TypeKind::RankedTensor {
            shape: vec![10, 8192],
            elem: f32b,
        });
        assert_eq!(t1, t2);
        assert_ne!(f32a, t1);
        assert_eq!(i.kinds.len(), 2);
    }

    #[test]
    fn num_elements_handles_static_and_dynamic() {
        let mut i = TypeInterner::default();
        let f32t = i.intern(TypeKind::Float { width: 32 });
        let stat = TypeKind::RankedTensor {
            shape: vec![10, 32],
            elem: f32t,
        };
        assert_eq!(stat.num_elements(), Some(320));
        let dynt = TypeKind::RankedTensor {
            shape: vec![10, DYNAMIC_DIM],
            elem: f32t,
        };
        assert_eq!(dynt.num_elements(), None);
        assert!(stat.is_shaped());
        assert_eq!(stat.shape(), Some(&[10i64, 32][..]));
        assert_eq!(stat.elem(), Some(f32t));
    }

    #[test]
    fn cam_level_hierarchy_walks_down() {
        assert_eq!(CamLevel::Bank.child(), Some(CamLevel::Mat));
        assert_eq!(CamLevel::Mat.child(), Some(CamLevel::Array));
        assert_eq!(CamLevel::Array.child(), Some(CamLevel::Subarray));
        assert_eq!(CamLevel::Subarray.child(), None);
        assert_eq!(CamLevel::Bank.to_string(), "bank_id");
    }
}
