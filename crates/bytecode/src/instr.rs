//! The untyped, stack-based instruction set.
//!
//! Like HHBC, the bytecode is *untyped*: `Bin(Add)` must handle ints,
//! floats and (for `Concat`) strings at runtime. The profile-guided JIT's
//! job (paper §II-A) is to observe the types that actually flow through each
//! instruction and specialize.

use crate::ids::{ClassId, FuncId, LitArrId, Local, StrId};

/// Binary operators for [`Instr::Bin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Numeric addition (int overflow wraps to float, like PHP).
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division; produces a float unless evenly divisible ints.
    Div,
    /// Integer modulus.
    Mod,
    /// String concatenation (coerces scalars to strings).
    Concat,
    /// Loose equality.
    Eq,
    /// Loose inequality.
    Neq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Bitwise and (ints only).
    BitAnd,
    /// Bitwise or (ints only).
    BitOr,
    /// Bitwise xor (ints only).
    BitXor,
    /// Arithmetic shift left (ints only).
    Shl,
    /// Arithmetic shift right (ints only).
    Shr,
}

impl BinOp {
    /// Mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::Concat => "concat",
            BinOp::Eq => "eq",
            BinOp::Neq => "neq",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::BitAnd => "bitand",
            BinOp::BitOr => "bitor",
            BinOp::BitXor => "bitxor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

/// Unary operators for [`Instr::Un`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation (truthiness-based).
    Not,
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement (ints only).
    BitNot,
}

impl UnOp {
    /// Mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::BitNot => "bitnot",
        }
    }
}

/// Built-in functions provided by the runtime (HHVM "extensions").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `print(x)` — append the string form of `x` to request output; returns null.
    Print,
    /// `strlen(s)` — length of a string in bytes.
    Strlen,
    /// `count(a)` — number of elements in a vec/dict.
    Count,
    /// `keys(d)` — vec of keys of a dict (or indices of a vec).
    Keys,
    /// `abs(n)` — absolute value.
    Abs,
    /// `min(a, b)` / `max(a, b)`.
    Min,
    /// See [`Builtin::Min`].
    Max,
    /// `to_str(x)` — string coercion.
    ToStr,
    /// `to_int(x)` — int coercion.
    ToInt,
    /// `is_int(x)` / `is_str(x)` / `is_null(x)` type predicates.
    IsInt,
    /// See [`Builtin::IsInt`].
    IsStr,
    /// See [`Builtin::IsInt`].
    IsNull,
    /// `substr(s, start, len)`.
    Substr,
    /// `push(v, x)` — append to a vec, returns the vec.
    Push,
    /// `idx_or(c, k, d)` — indexing with a default instead of an error.
    IdxOr,
    /// `class_name(o)` — name of an object's class.
    ClassName,
    /// `hash(x)` — deterministic integer hash of a scalar.
    HashVal,
}

impl Builtin {
    /// All builtins, for table construction.
    pub const ALL: [Builtin; 17] = [
        Builtin::Print,
        Builtin::Strlen,
        Builtin::Count,
        Builtin::Keys,
        Builtin::Abs,
        Builtin::Min,
        Builtin::Max,
        Builtin::ToStr,
        Builtin::ToInt,
        Builtin::IsInt,
        Builtin::IsStr,
        Builtin::IsNull,
        Builtin::Substr,
        Builtin::Push,
        Builtin::IdxOr,
        Builtin::ClassName,
        Builtin::HashVal,
    ];

    /// Source-level name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Print => "print",
            Builtin::Strlen => "strlen",
            Builtin::Count => "count",
            Builtin::Keys => "keys",
            Builtin::Abs => "abs",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::ToStr => "to_str",
            Builtin::ToInt => "to_int",
            Builtin::IsInt => "is_int",
            Builtin::IsStr => "is_str",
            Builtin::IsNull => "is_null",
            Builtin::Substr => "substr",
            Builtin::Push => "push",
            Builtin::IdxOr => "idx_or",
            Builtin::ClassName => "class_name",
            Builtin::HashVal => "hash",
        }
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Print
            | Builtin::Strlen
            | Builtin::Count
            | Builtin::Keys
            | Builtin::Abs
            | Builtin::ToStr
            | Builtin::ToInt
            | Builtin::IsInt
            | Builtin::IsStr
            | Builtin::IsNull
            | Builtin::ClassName
            | Builtin::HashVal => 1,
            Builtin::Min | Builtin::Max | Builtin::Push => 2,
            Builtin::Substr | Builtin::IdxOr => 3,
        }
    }

    /// Looks a builtin up by its source-level name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        Builtin::ALL.iter().copied().find(|b| b.name() == name)
    }
}

/// One bytecode instruction.
///
/// Jump targets are absolute instruction indices within the owning
/// function's code vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// Push null.
    Null,
    /// Push boolean true.
    True,
    /// Push boolean false.
    False,
    /// Push an integer constant.
    Int(i64),
    /// Push a float constant.
    Double(f64),
    /// Push an interned string.
    Str(StrId),
    /// Push a literal (static) array from the repo.
    LitArr(LitArrId),

    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,

    /// Push local `n`.
    GetL(Local),
    /// Pop into local `n`.
    SetL(Local),
    /// Push local `n` and increment/decrement the local by the immediate
    /// (fused `$i++` pattern; pushes the *old* value).
    IncL(Local, i32),

    /// Pop two operands, apply a binary operator, push the result.
    Bin(BinOp),
    /// Pop one operand, apply a unary operator, push the result.
    Un(UnOp),

    /// Unconditional jump.
    Jmp(u32),
    /// Pop; jump if falsy.
    JmpZ(u32),
    /// Pop; jump if truthy.
    JmpNZ(u32),

    /// Call a statically-resolved function; `argc` arguments are on the
    /// stack (last argument on top). Pushes the return value.
    Call { func: FuncId, argc: u8 },
    /// Call a method by name on a receiver; stack is `recv, args...`.
    /// Resolution is dynamic, per the receiver's class (paper: dispatch
    /// sites profiled via call-target profiles, §IV-B category 2).
    CallMethod { name: StrId, argc: u8 },
    /// Call a runtime builtin.
    CallBuiltin { builtin: Builtin, argc: u8 },
    /// Return the top of stack to the caller.
    Ret,

    /// Allocate a new object of a class; pushes it. Property slots are
    /// initialized from declared defaults. Triggers lazy unit load.
    NewObj(ClassId),
    /// Pop a receiver, push the value of its property `name`.
    GetProp(StrId),
    /// Stack is `recv, value`; pops both, stores into property `name`.
    SetProp(StrId),
    /// Push the current `$this`.
    This,

    /// Pop `n` elements, push a new vec of them (first-pushed first).
    NewVec(u16),
    /// Pop `2n` elements (`k1, v1, ... kn, vn`), push a new dict.
    NewDict(u16),
    /// Stack is `container, key`; pops both, pushes `container[key]`.
    Idx,
    /// Stack is `container, key, value`; stores, pushes the container.
    SetIdx,
}

impl Instr {
    /// Returns the jump target if this is a branch instruction.
    pub fn jump_target(&self) -> Option<u32> {
        match *self {
            Instr::Jmp(t) | Instr::JmpZ(t) | Instr::JmpNZ(t) => Some(t),
            _ => None,
        }
    }

    /// Whether control cannot fall through past this instruction.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Instr::Jmp(_) | Instr::Ret)
    }

    /// Whether this instruction ends a basic block (any control transfer).
    pub fn ends_block(&self) -> bool {
        matches!(
            self,
            Instr::Jmp(_) | Instr::JmpZ(_) | Instr::JmpNZ(_) | Instr::Ret
        )
    }

    /// Net change in operand-stack depth caused by this instruction.
    pub fn stack_delta(&self) -> i32 {
        match *self {
            Instr::Null
            | Instr::True
            | Instr::False
            | Instr::Int(_)
            | Instr::Double(_)
            | Instr::Str(_)
            | Instr::LitArr(_)
            | Instr::GetL(_)
            | Instr::IncL(_, _)
            | Instr::Dup
            | Instr::This
            | Instr::NewObj(_) => 1,
            Instr::Pop
            | Instr::SetL(_)
            | Instr::Bin(_)
            | Instr::JmpZ(_)
            | Instr::JmpNZ(_)
            | Instr::Idx => -1,
            Instr::Un(_) | Instr::Jmp(_) | Instr::GetProp(_) => 0,
            Instr::Ret => -1,
            Instr::SetProp(_) => -2,
            Instr::SetIdx => -2,
            Instr::Call { argc, .. } => 1 - argc as i32,
            Instr::CallMethod { argc, .. } => -(argc as i32),
            Instr::CallBuiltin { argc, .. } => 1 - argc as i32,
            Instr::NewVec(n) => 1 - n as i32,
            Instr::NewDict(n) => 1 - 2 * n as i32,
        }
    }

    /// Number of operands this instruction pops from the stack.
    pub fn pops(&self) -> u32 {
        match *self {
            Instr::Null
            | Instr::True
            | Instr::False
            | Instr::Int(_)
            | Instr::Double(_)
            | Instr::Str(_)
            | Instr::LitArr(_)
            | Instr::GetL(_)
            | Instr::IncL(_, _)
            | Instr::This
            | Instr::NewObj(_)
            | Instr::Jmp(_) => 0,
            Instr::Pop
            | Instr::Dup
            | Instr::SetL(_)
            | Instr::Un(_)
            | Instr::JmpZ(_)
            | Instr::JmpNZ(_)
            | Instr::Ret
            | Instr::GetProp(_) => 1,
            Instr::Bin(_) | Instr::SetProp(_) | Instr::Idx => 2,
            Instr::SetIdx => 3,
            Instr::Call { argc, .. } => argc as u32,
            Instr::CallMethod { argc, .. } => 1 + argc as u32,
            Instr::CallBuiltin { argc, .. } => argc as u32,
            Instr::NewVec(n) => n as u32,
            Instr::NewDict(n) => 2 * n as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_delta_matches_pops_for_pushing_instrs() {
        // Every instruction's delta must equal pushes - pops; spot-check the
        // ones with immediates.
        assert_eq!(Instr::NewVec(3).stack_delta(), -2);
        assert_eq!(Instr::NewVec(3).pops(), 3);
        assert_eq!(Instr::NewDict(2).stack_delta(), -3);
        assert_eq!(
            Instr::Call {
                func: crate::FuncId::new(0),
                argc: 2
            }
            .stack_delta(),
            -1
        );
        assert_eq!(
            Instr::CallMethod {
                name: crate::StrId::new(0),
                argc: 2
            }
            .stack_delta(),
            -2
        );
    }

    #[test]
    fn jump_target_only_on_branches() {
        assert_eq!(Instr::Jmp(7).jump_target(), Some(7));
        assert_eq!(Instr::JmpZ(3).jump_target(), Some(3));
        assert_eq!(Instr::Ret.jump_target(), None);
        assert_eq!(Instr::Pop.jump_target(), None);
    }

    #[test]
    fn terminal_and_block_end_classification() {
        assert!(Instr::Ret.is_terminal());
        assert!(Instr::Jmp(0).is_terminal());
        assert!(!Instr::JmpZ(0).is_terminal());
        assert!(Instr::JmpZ(0).ends_block());
        assert!(!Instr::Dup.ends_block());
    }

    #[test]
    fn builtin_lookup_by_name() {
        for b in Builtin::ALL {
            assert_eq!(Builtin::by_name(b.name()), Some(b));
            assert!(b.arity() >= 1 && b.arity() <= 3);
        }
        assert_eq!(Builtin::by_name("no_such_builtin"), None);
    }
}
