//! Program structure: functions, classes and units.

use crate::ids::{ClassId, FuncId, StrId, UnitId};
use crate::instr::Instr;
use crate::literal::Literal;

/// Property visibility. Hacklet only distinguishes public/private; the
/// property-reordering optimization (paper §V-C) must preserve the declared
/// order as *observable* while being free to change the physical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// Accessible from anywhere.
    Public,
    /// Accessible only from methods of the declaring class.
    Private,
}

/// A property declared by a class (not including inherited ones).
#[derive(Clone, Debug, PartialEq)]
pub struct PropDecl {
    /// Property name.
    pub name: StrId,
    /// Default value assigned at object construction.
    pub default: Literal,
    /// Visibility of the property.
    pub visibility: Visibility,
}

/// A function or method: metadata plus its bytecode.
#[derive(Clone, Debug, PartialEq)]
pub struct Func {
    /// Dense id of this function.
    pub id: FuncId,
    /// Name (bare for free functions, `Class::method` for methods).
    pub name: StrId,
    /// The unit this function was compiled from.
    pub unit: UnitId,
    /// Number of parameters (occupying locals `0..params`).
    pub params: u16,
    /// Total number of local slots, including parameters.
    pub locals: u16,
    /// The class this is a method of, if any.
    pub class: Option<ClassId>,
    /// Bytecode; jump targets are indices into this vector.
    pub code: Vec<Instr>,
}

impl Func {
    /// Approximate bytecode footprint in bytes (HHBC averages a few bytes
    /// per instruction; we use a fixed 4).
    pub fn bytecode_bytes(&self) -> usize {
        self.code.len() * 4
    }

    /// Whether this function is a method.
    pub fn is_method(&self) -> bool {
        self.class.is_some()
    }
}

/// A class: name, optional parent, declared properties and methods.
#[derive(Clone, Debug, PartialEq)]
pub struct Class {
    /// Dense id of this class.
    pub id: ClassId,
    /// Class name.
    pub name: StrId,
    /// Parent class, if any. Subclasses inherit properties and methods.
    pub parent: Option<ClassId>,
    /// The unit this class was compiled from.
    pub unit: UnitId,
    /// Properties declared by this class (not inherited), in source order.
    pub props: Vec<PropDecl>,
    /// Methods declared by this class: `(name, func)` in source order.
    pub methods: Vec<(StrId, FuncId)>,
}

/// A compilation unit: one source file's worth of functions and classes.
///
/// Units are loaded lazily at runtime (autoloader); the Jump-Start package
/// records the order in which a warmed server ended up loading them so a
/// consumer can preload them in that order (paper §IV-B, §VII-A).
#[derive(Clone, Debug, PartialEq)]
pub struct Unit {
    /// Dense id of this unit.
    pub id: UnitId,
    /// Source path of the unit.
    pub name: StrId,
    /// Free functions and methods defined in this unit.
    pub funcs: Vec<FuncId>,
    /// Classes defined in this unit.
    pub classes: Vec<ClassId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_func(id: u32, code: Vec<Instr>) -> Func {
        Func {
            id: FuncId::new(id),
            name: StrId::new(0),
            unit: UnitId::new(0),
            params: 0,
            locals: 0,
            class: None,
            code,
        }
    }

    #[test]
    fn bytecode_bytes_scales_with_length() {
        let f = mk_func(0, vec![Instr::Null, Instr::Ret]);
        assert_eq!(f.bytecode_bytes(), 8);
        assert!(!f.is_method());
    }
}
