//! Prepared function bodies: the form the interpreter runs.
//!
//! [`bytecode::Instr`] stays the verified wire form. On a function's first
//! call the [`crate::Vm`] lowers its code once into a [`Body`], a vector of
//! [`Op`]s in which
//!
//! * every block start is an [`Op::Block`] carrying its [`BlockId`], so no
//!   instruction looks a block start up;
//! * every jump names the op it lands on, always an [`Op::Block`];
//! * a binary op absorbs the `GetL` / `Int` pushes of its operands that
//!   come right before it and a `SetL`, `JmpZ` or `JmpNZ` that consumes its
//!   result right after it, as one [`Op::Bin`] group. A group never spans a
//!   block start: only its first instruction may be one, and the
//!   [`Op::Block`] before the group reports it;
//! * a group whose result is the stack top the next group pops hands it
//!   over without a push ([`Tail::Acc`], [`Src::Acc`]);
//! * a group that reads a local or a handed-over int and an immediate,
//!   with an op that cannot fail on ints, has its operand shape, tail and
//!   length resolved into an op of its own ([`Op::BinLIAcc`] and its
//!   siblings), and the commonest runs of such groups are one op each: a
//!   local pushed for the group that consumes the next group's result
//!   ([`Op::BinLLI`]), and a group whose result an immediate group
//!   consumes ([`Op::BinLIAI`]). `Int v; SetL l` is [`Op::SetLInt`].
//!
//! A group keeps the instruction index of its binary op (`at`), so every
//! observer callback and error names the instruction the wire form would:
//! the pushes are `at - k`, the tail is `at + 1`. How a group is charged
//! fuel is the interpreter's rule ([`crate::Vm`]): all at once when the
//! fuel left covers it and both operands are ints, else instruction by
//! instruction.

use bytecode::{BinOp, BlockId, FuncId, Instr, Local, Repo};

/// A binary op's operand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Src {
    /// Already on the operand stack.
    Stack,
    /// A local, read where it lies (an absorbed `GetL`).
    Local(Local),
    /// An integer immediate (an absorbed `Int`).
    Int(i32),
    /// The stack top, handed over by the op before, which ends in
    /// [`Tail::Acc`], without a push.
    Acc,
}

/// What a binary op does with its result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Tail {
    /// Pushes it.
    Push,
    /// Pushes it, or, when it is an int, hands it to the next op, a
    /// binary op that reads it as [`Src::Acc`].
    Acc,
    /// Stores it in a local (an absorbed `SetL`).
    SetL(Local),
    /// Branches on it (an absorbed `JmpZ` when `on_zero`, else `JmpNZ`) to
    /// op `target`.
    Branch { target: u32, on_zero: bool },
}

impl Tail {
    /// Whether the tail is an instruction of its own (a `SetL`, `JmpZ` or
    /// `JmpNZ`), with fuel to charge.
    pub(crate) fn is_instr(self) -> bool {
        matches!(self, Tail::SetL(_) | Tail::Branch { .. })
    }
}

/// One step of a prepared body.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Op {
    /// A basic block starts: raises `on_block` once fuel is left for its
    /// first instruction, and charges nothing itself. A jump or branch
    /// that lands on it does the same itself and runs on from the op
    /// after it.
    Block(BlockId),
    /// `GetL`.
    PushL(Local),
    /// `Int`.
    PushInt(i64),
    /// `SetL`.
    SetL(Local),
    /// `Int v; SetL l`: local `l` set to an immediate.
    SetLInt(Local, i64),
    /// `Jmp` to an op.
    Jmp(u32),
    /// A `JmpZ` (`on_zero`) or `JmpNZ` at instruction `at`, to op `target`.
    Branch { target: u32, on_zero: bool, at: u32 },
    /// `Bin(op)` at instruction `at` with its absorbed operand pushes and
    /// tail: `len` instructions in all.
    Bin {
        a: Src,
        b: Src,
        op: BinOp,
        tail: Tail,
        at: u32,
        len: u8,
    },
    /// The operand-resolved forms of an [`Op::Bin`] group whose left
    /// operand is a local (`LI`: `GetL l; Int k; Bin op`) or the result
    /// the op before hands over (`AI`: `Int k; Bin op`), whose right one
    /// is an immediate, whose op cannot fail on two ints, and whose tail
    /// hands its result over (`Acc`), stores it in local `dst` (`SetL`)
    /// or branches on it (`Branch`). Operand shape, tail and length are
    /// decided when the body is built, so a dispatch does no more matching
    /// than the op's own; `at` is the op's instruction, as in `Bin`.
    BinLIAcc {
        l: Local,
        k: i32,
        op: BinOp,
        at: u32,
    },
    /// See [`Op::BinLIAcc`].
    BinLISetL {
        l: Local,
        k: i32,
        op: BinOp,
        dst: Local,
        at: u32,
    },
    /// See [`Op::BinLIAcc`].
    BinLIBranch {
        l: Local,
        k: i32,
        op: BinOp,
        target: u32,
        on_zero: bool,
        at: u32,
    },
    /// See [`Op::BinLIAcc`].
    BinAIAcc { k: i32, op: BinOp, at: u32 },
    /// See [`Op::BinLIAcc`].
    BinAISetL {
        k: i32,
        op: BinOp,
        dst: Local,
        at: u32,
    },
    /// See [`Op::BinLIAcc`].
    BinAIBranch {
        k: i32,
        op: BinOp,
        target: u32,
        on_zero: bool,
        at: u32,
    },
    /// `x op2 (l op1 k)`: a `GetL x` pushed for the [`Op::BinLIAcc`]
    /// group `l op1 k` right after it, whose int result the group after
    /// that, `Bin op2` with both operands on the stack and `tail`, reads
    /// as [`Src::Acc`]. `op1` yields an int on any two ints and `op2`
    /// cannot fail on two ints. `at` is `op1`'s instruction, `op2`'s is
    /// `at + 1`; the three ops stand for `5` instructions and the tail's.
    BinLLI {
        x: Local,
        l: Local,
        k: i32,
        op1: BinOp,
        op2: BinOp,
        tail: Tail,
        at: u32,
    },
    /// `(l op1 k1) op2 k2`: an [`Op::BinLIAcc`] group `l op1 k1` whose int
    /// result the group after it, `Int k2; Bin op2` with `tail`, reads
    /// as [`Src::Acc`]. `op1` yields an int on any two ints and `op2`
    /// cannot fail on an int and `k2`. `at` is `op1`'s instruction,
    /// `op2`'s is `at + 2`; the two groups stand for `5` instructions and
    /// the tail's.
    BinLIAI {
        l: Local,
        k1: i32,
        op1: BinOp,
        k2: i32,
        op2: BinOp,
        tail: Tail,
        at: u32,
    },
    /// `Call` at instruction `at`.
    Call { func: FuncId, argc: u8, at: u32 },
    /// `Ret`.
    Ret,
    /// Any other instruction, run from the wire form at `at`.
    Step(u32),
}

impl Op {
    /// The op a jump, or a branch taken, lands on (an instruction index
    /// until lowering resolves it).
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jmp(t)
            | Op::Branch { target: t, .. }
            | Op::BinLIBranch { target: t, .. }
            | Op::BinAIBranch { target: t, .. }
            | Op::Bin {
                tail: Tail::Branch { target: t, .. },
                ..
            }
            | Op::BinLLI {
                tail: Tail::Branch { target: t, .. },
                ..
            }
            | Op::BinLIAI {
                tail: Tail::Branch { target: t, .. },
                ..
            } => Some(t),
            _ => None,
        }
    }
}

/// A function's code lowered for the interpreter.
#[derive(Debug)]
pub(crate) struct Body {
    pub(crate) ops: Vec<Op>,
}

impl Body {
    /// Lowers `func`, fusing every group the rules above allow.
    pub(crate) fn build(repo: &Repo, func: FuncId) -> Body {
        Body::lower(repo, func, true)
    }

    /// Lowers `func` one op per instruction (plus the block starts): the
    /// reference the fused body is tested against.
    #[cfg(test)]
    pub(crate) fn unfused(repo: &Repo, func: FuncId) -> Body {
        Body::lower(repo, func, false)
    }

    fn lower(repo: &Repo, func: FuncId, fuse: bool) -> Body {
        let code = &repo.func(func).code;
        let cfg = &repo.facts(func).cfg;
        let mut block_at = vec![None; code.len()];
        for (b, block) in cfg.blocks().iter().enumerate() {
            block_at[block.start as usize] = Some(BlockId(b as u32));
        }
        // Jump targets are instruction indices until the ops are final.
        let mut ops = Vec::with_capacity(code.len() + cfg.len());
        let mut pc = 0;
        while pc < code.len() {
            if let Some(b) = block_at[pc] {
                ops.push(Op::Block(b));
            }
            let group = if fuse {
                group_at(code, pc, &block_at)
            } else {
                None
            };
            let (op, len) = group.unwrap_or_else(|| (single(code, pc), 1));
            ops.push(op);
            pc += len;
        }
        if fuse {
            hand_over(&mut ops);
            for op in &mut ops {
                *op = resolve(*op);
            }
            ops = fuse_runs(ops);
        }
        // Every target starts a block: its op is that block's.
        let mut op_of_block = vec![u32::MAX; cfg.len()];
        for (i, op) in ops.iter().enumerate() {
            if let Op::Block(b) = op {
                op_of_block[b.index()] = i as u32;
            }
        }
        for op in &mut ops {
            if let Some(t) = op.target_mut() {
                let block = block_at[*t as usize].expect("a jump lands on a block start");
                *t = op_of_block[block.index()];
            }
        }
        debug_assert!(ops.iter().all(|&(mut op)| op
            .target_mut()
            .is_none_or(|t| matches!(ops.get(*t as usize), Some(Op::Block(_))))));
        Body { ops }
    }
}

/// Where a binary op's result is the stack top the next op, a binary op
/// too, reads, has it handed over: the push and the pop become
/// [`Tail::Acc`] and [`Src::Acc`]. The two ops are adjacent, so no block
/// starts between them.
fn hand_over(ops: &mut [Op]) {
    for i in 1..ops.len() {
        let (before, after) = ops.split_at_mut(i);
        let (
            Op::Bin {
                tail: tail @ Tail::Push,
                ..
            },
            Op::Bin { a, b, .. },
        ) = (&mut before[i - 1], &mut after[0])
        else {
            continue;
        };
        // `b` is the top when both operands are on the stack.
        let top = if *b == Src::Stack { b } else { a };
        if *top == Src::Stack {
            *top = Src::Acc;
            *tail = Tail::Acc;
        }
    }
}

/// `op` with its operand shape and tail resolved, when it is a group of
/// a shape [`Op::BinLIAcc`] and its siblings cover.
fn resolve(op: Op) -> Op {
    let Op::Bin {
        a,
        b: Src::Int(k),
        op: bin,
        tail,
        at,
        len,
    } = op
    else {
        return op;
    };
    if !total(bin, Some(k)) {
        return op;
    }
    // The lengths the interpreter charges each form.
    debug_assert!(match a {
        Src::Local(_) => len == 3 + u8::from(tail.is_instr()),
        Src::Acc => len == 2 + u8::from(tail.is_instr()),
        _ => true,
    });
    match (a, tail) {
        (Src::Local(l), Tail::Acc) => Op::BinLIAcc { l, k, op: bin, at },
        (Src::Local(l), Tail::SetL(dst)) => Op::BinLISetL {
            l,
            k,
            op: bin,
            dst,
            at,
        },
        (Src::Local(l), Tail::Branch { target, on_zero }) => Op::BinLIBranch {
            l,
            k,
            op: bin,
            target,
            on_zero,
            at,
        },
        (Src::Acc, Tail::Acc) => Op::BinAIAcc { k, op: bin, at },
        (Src::Acc, Tail::SetL(dst)) => Op::BinAISetL {
            k,
            op: bin,
            dst,
            at,
        },
        (Src::Acc, Tail::Branch { target, on_zero }) => Op::BinAIBranch {
            k,
            op: bin,
            target,
            on_zero,
            at,
        },
        _ => op,
    }
}

/// Fuses each run of adjacent ops that [`Op::BinLLI`], [`Op::BinLIAI`]
/// or [`Op::SetLInt`] covers into one op: no block starts inside the
/// run.
fn fuse_runs(ops: Vec<Op>) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let (op, len) = match ops[i..] {
            [Op::PushL(x), Op::BinLIAcc { l, k, op: op1, at }, Op::Bin {
                a: Src::Stack,
                b: Src::Acc,
                op: op2,
                tail,
                at: at2,
                ..
            }, ..]
                if int_valued(op1, k) && total(op2, None) && at2 == at + 1 =>
            {
                let op = Op::BinLLI {
                    x,
                    l,
                    k,
                    op1,
                    op2,
                    tail,
                    at,
                };
                (op, 3)
            }
            [Op::BinLIAcc {
                l,
                k: k1,
                op: op1,
                at,
            }, second, ..]
                if int_valued(op1, k1) =>
            {
                let (k2, op2, tail, at2) = match second {
                    Op::BinAIAcc { k, op, at } => (k, op, Tail::Acc, at),
                    Op::BinAISetL { k, op, dst, at } => (k, op, Tail::SetL(dst), at),
                    Op::BinAIBranch {
                        k,
                        op,
                        target,
                        on_zero,
                        at,
                    } => (k, op, Tail::Branch { target, on_zero }, at),
                    _ => (0, BinOp::Concat, Tail::Push, 0),
                };
                if total(op2, Some(k2)) && at2 == at + 2 {
                    let op = Op::BinLIAI {
                        l,
                        k1,
                        op1,
                        k2,
                        op2,
                        tail,
                        at,
                    };
                    (op, 2)
                } else {
                    (ops[i], 1)
                }
            }
            [Op::PushInt(v), Op::SetL(l), ..] => (Op::SetLInt(l, v), 2),
            _ => (ops[i], 1),
        };
        out.push(op);
        i += len;
    }
    out
}

/// Whether `op` yields an int on any int and `k`.
fn int_valued(op: BinOp, k: i32) -> bool {
    match op {
        BinOp::Add
        | BinOp::Sub
        | BinOp::Mul
        | BinOp::BitAnd
        | BinOp::BitOr
        | BinOp::BitXor
        | BinOp::Shl
        | BinOp::Shr => true,
        BinOp::Mod => k != 0,
        _ => false,
    }
}

/// Whether `op` cannot fail on two ints, the right one `k` when known.
fn total(op: BinOp, k: Option<i32>) -> bool {
    match op {
        BinOp::Concat => false,
        BinOp::Div | BinOp::Mod => k.is_some_and(|k| k != 0),
        _ => true,
    }
}

/// The op of instruction `pc` alone.
fn single(code: &[Instr], pc: usize) -> Op {
    let at = pc as u32;
    match code[pc] {
        Instr::GetL(l) => Op::PushL(l),
        Instr::Int(v) => Op::PushInt(v),
        Instr::SetL(l) => Op::SetL(l),
        Instr::Jmp(t) => Op::Jmp(t),
        Instr::JmpZ(t) => Op::Branch {
            target: t,
            on_zero: true,
            at,
        },
        Instr::JmpNZ(t) => Op::Branch {
            target: t,
            on_zero: false,
            at,
        },
        Instr::Bin(op) => Op::Bin {
            a: Src::Stack,
            b: Src::Stack,
            op,
            tail: Tail::Push,
            at,
            len: 1,
        },
        Instr::Call { func, argc } => Op::Call { func, argc, at },
        Instr::Ret => Op::Ret,
        _ => Op::Step(at),
    }
}

/// The operand an instruction pushes, if a group can absorb it.
fn src(instr: Instr) -> Option<Src> {
    match instr {
        Instr::GetL(l) => Some(Src::Local(l)),
        Instr::Int(v) => i32::try_from(v).ok().map(Src::Int),
        _ => None,
    }
}

/// The group starting at instruction `pc` and its length in instructions:
/// zero to two operand pushes, a `Bin`, and an optional tail, no
/// instruction after the first starting a block. Of `GetL GetL Int Bin`
/// the first push stays alone and the group starts at the second.
fn group_at(code: &[Instr], pc: usize, block_at: &[Option<BlockId>]) -> Option<(Op, usize)> {
    let inner = |i: usize| i < code.len() && block_at[i].is_none();
    let src_at = |i: usize| code.get(i).copied().and_then(src);
    let bin_at = |i: usize| match code.get(i) {
        Some(&Instr::Bin(op)) => Some(op),
        _ => None,
    };
    let fused_bin = |i: usize| if inner(i) { bin_at(i) } else { None };
    let (a, b, i) = match (src_at(pc), src_at(pc + 1)) {
        (Some(a), Some(b)) if inner(pc + 1) && fused_bin(pc + 2).is_some() => (a, b, pc + 2),
        (Some(b), _) if fused_bin(pc + 1).is_some() => (Src::Stack, b, pc + 1),
        _ => (Src::Stack, Src::Stack, pc),
    };
    let op = bin_at(i)?;
    let tail = match code.get(i + 1) {
        Some(&Instr::SetL(l)) if inner(i + 1) => Tail::SetL(l),
        Some(&Instr::JmpZ(t)) if inner(i + 1) => Tail::Branch {
            target: t,
            on_zero: true,
        },
        Some(&Instr::JmpNZ(t)) if inner(i + 1) => Tail::Branch {
            target: t,
            on_zero: false,
        },
        _ => Tail::Push,
    };
    let len = i - pc + 1 + usize::from(tail != Tail::Push);
    if len == 1 {
        // A lone `Bin`: `single` lowers it the same way.
        return None;
    }
    let op = Op::Bin {
        a,
        b,
        op,
        tail,
        at: i as u32,
        len: len as u8,
    };
    Some((op, len))
}

// The size the dispatch loop strides over.
const _: () = assert!(std::mem::size_of::<Op>() == 32);

#[cfg(test)]
mod tests;
