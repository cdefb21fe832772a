//! Instrumentation hooks.
//!
//! HHVM's profiling translations are JITed code with embedded counters
//! (paper §II-A); in this reproduction the interpreter raises callbacks at
//! the equivalent points and the `jit` crate's profile collector implements
//! [`ExecObserver`] to fill its counter tables. The categories match the
//! package contents of paper §IV-B: block counters and observed types (JIT
//! profile data), call targets (target profiles), property accesses
//! (object-layout profile).

use bytecode::{BlockId, ClassId, FuncId, StrId};

use crate::value::Value;

/// A coarse dynamic type tag for profile purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKind {
    /// Null.
    Null,
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// Float.
    Float,
    /// String.
    Str,
    /// Vec.
    Vec,
    /// Dict.
    Dict,
    /// Object (class id carried separately where it matters).
    Obj,
}

impl ValueKind {
    /// The tag of a runtime value.
    pub fn of(v: &Value) -> ValueKind {
        match v {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
            Value::Vec(_) => ValueKind::Vec,
            Value::Dict(_) => ValueKind::Dict,
            Value::Obj(_) => ValueKind::Obj,
        }
    }

    /// Dense index (for counter arrays).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of distinct kinds.
    pub const COUNT: usize = 8;

    /// All kinds in index order.
    pub const ALL: [ValueKind; ValueKind::COUNT] = [
        ValueKind::Null,
        ValueKind::Bool,
        ValueKind::Int,
        ValueKind::Float,
        ValueKind::Str,
        ValueKind::Vec,
        ValueKind::Dict,
        ValueKind::Obj,
    ];
}

/// Callbacks raised by the interpreter while executing instrumented code.
///
/// All methods have defaults so observers implement only what they need:
/// each is empty except [`ExecObserver::on_bin_types`], which forwards to
/// [`ExecObserver::on_type_observed`]. The interpreter is generic over
/// its observer: [`crate::Vm::call`] runs it with [`NullObserver`], whose
/// empty callbacks compile away, and a concrete observer passed to
/// [`crate::Vm::call_observed`] (`jit::ProfileCollector`, whose callbacks
/// are `#[inline]`) is compiled into the dispatch loop. A `&mut dyn
/// ExecObserver` works too, at the price of a virtual call per event.
///
/// # The `at` argument
///
/// Every callback that takes `at` names a site of the function it also
/// names (`func`, or `caller` in [`ExecObserver::on_call`]): the
/// interpreter always passes the index of the reporting instruction in
/// that function's `code`, so `at < code.len()`. Parameter types are not
/// reported through `at`; they arrive as the `args` of
/// [`ExecObserver::on_func_enter`], and a profile that stores them next
/// to instruction sites files them under the marker `u32::MAX`
/// (`jit::PARAM_SITE`). An observer called directly, not by the
/// interpreter, may see any `at`: it must not assume the bound holds.
pub trait ExecObserver {
    /// A function body was entered with the given arguments. Fires before
    /// any other event of the frame.
    fn on_func_enter(&mut self, _func: FuncId, _args: &[Value]) {}

    /// A bytecode basic block of `func` was entered.
    fn on_block(&mut self, _func: FuncId, _block: BlockId) {}

    /// The conditional branch at instruction `at` of `func` (a `JmpZ` or
    /// `JmpNZ`) resolved to `taken`.
    fn on_branch(&mut self, _func: FuncId, _at: u32, _taken: bool) {}

    /// The call at instruction `at` of `caller` dispatched to `callee`;
    /// `callee`'s [`ExecObserver::on_func_enter`] follows.
    fn on_call(&mut self, _caller: FuncId, _at: u32, _callee: FuncId) {}

    /// A property was read or written on an instance of `class`, at
    /// instruction `at` of `func`.
    fn on_prop_access(
        &mut self,
        _func: FuncId,
        _at: u32,
        _class: ClassId,
        _prop: StrId,
        _write: bool,
    ) {
    }

    /// A value's type was observed at a profiling point: operand `slot`
    /// (0 = left, 1 = right) of the binary op at instruction `at` of `func`.
    fn on_type_observed(&mut self, _func: FuncId, _at: u32, _slot: u8, _kind: ValueKind) {}

    /// The operand types of the binary op at instruction `at` of `func`:
    /// `a` the left operand (slot 0), `b` the right (slot 1). The
    /// interpreter reports a binary op's operands only through this
    /// callback. The default forwards it as two
    /// [`ExecObserver::on_type_observed`] calls, slot 0 then slot 1, so an
    /// observer that implements only those sees every binary op; one that
    /// counts both slots of a site together overrides this to find the
    /// site once.
    fn on_bin_types(&mut self, func: FuncId, at: u32, a: ValueKind, b: ValueKind) {
        self.on_type_observed(func, at, 0, a);
        self.on_type_observed(func, at, 1, b);
    }

    /// A function returned normally.
    fn on_func_exit(&mut self, _func: FuncId) {}
}

/// An observer that records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_kind_of_covers_all_variants() {
        assert_eq!(ValueKind::of(&Value::Null), ValueKind::Null);
        assert_eq!(ValueKind::of(&Value::Int(1)), ValueKind::Int);
        assert_eq!(ValueKind::of(&Value::str("x")), ValueKind::Str);
        assert_eq!(ValueKind::of(&Value::vec(vec![])), ValueKind::Vec);
    }

    #[test]
    fn kind_indices_are_dense() {
        for (i, k) in ValueKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn null_observer_is_usable_as_dyn() {
        let mut obs = NullObserver;
        let o: &mut dyn ExecObserver = &mut obs;
        o.on_block(FuncId::new(0), BlockId(0));
        o.on_branch(FuncId::new(0), 1, true);
    }
}
