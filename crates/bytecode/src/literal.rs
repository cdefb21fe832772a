//! Literal (static) values baked into the repo at offline-compile time.

use crate::ids::{LitArrId, StrId};

/// A compile-time constant value.
///
/// Literals appear as property defaults and as elements of static arrays.
/// They reference strings and arrays by id, so a literal is `Copy` and the
/// repo owns all the actual data — exactly the property that makes the
/// "repo global data" category of the Jump-Start package (paper §IV-B) a
/// simple list of ids to preload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Literal {
    /// The null value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An interned string.
    Str(StrId),
    /// A static array (vec or dict) stored in the repo.
    Arr(LitArrId),
}

/// A static array stored once in the repo and shared by all requests.
#[derive(Clone, Debug, PartialEq)]
pub enum LitArray {
    /// A vector of literals.
    Vec(Vec<Literal>),
    /// A dict of string-keyed literals, in insertion order.
    Dict(Vec<(StrId, Literal)>),
}

impl LitArray {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            LitArray::Vec(v) => v.len(),
            LitArray::Dict(d) => d.len(),
        }
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_literal_is_null() {
        assert_eq!(Literal::default(), Literal::Null);
    }

    #[test]
    fn lit_array_len() {
        let v = LitArray::Vec(vec![Literal::Int(1), Literal::Int(2)]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());

        let d = LitArray::Dict(vec![]);
        assert!(d.is_empty());
    }
}
