//! The bytecode interpreter.

use std::rc::Rc;

use bytecode::{BinOp, FuncId, Instr, Repo};

use crate::body::{Body, Op, Src, Tail};
use crate::builtins::call_builtin;
use crate::classes::ClassTable;
use crate::error::VmError;
use crate::loader::Loader;
use crate::observer::{ExecObserver, NullObserver, ValueKind};
use crate::value::{ObjRef, Value};

/// Interpreter configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Maximum instructions per top-level call (runaway-loop guard).
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: u32,
}

impl Default for VmOptions {
    fn default() -> Self {
        Self {
            fuel: 200_000_000,
            max_depth: 512,
        }
    }
}

/// Counters accumulated across calls, used by tests and the fleet
/// calibration pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Bytecode instructions executed.
    pub instrs: u64,
    /// Function calls performed (static + dynamic).
    pub calls: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Property reads.
    pub prop_reads: u64,
    /// Property writes.
    pub prop_writes: u64,
    /// Objects allocated.
    pub allocations: u64,
}

/// The virtual machine: interpreter plus runtime state.
///
/// One `Vm` models one HHVM server process's request-handling state. It is
/// deliberately single-threaded (HHVM request execution is share-nothing);
/// the fleet simulator runs many `Vm`s.
///
/// Every frame's arguments, locals and operands live in one stack the
/// `Vm` owns. A call's arguments are the caller's top operands and become
/// the callee's first locals where they lie; a return truncates the stack
/// to the callee's base. So a call allocates nothing of its own once the
/// stack has grown to the program's deepest frame.
#[derive(Debug)]
pub struct Vm<'r> {
    repo: &'r Repo,
    classes: ClassTable,
    loader: Loader,
    output: String,
    stats: ExecStats,
    options: VmOptions,
    fuel: u64,
    /// Each function's prepared body, built on its first call.
    bodies: Vec<Option<Rc<Body>>>,
    /// The frame stack: every live frame's arguments, then its other
    /// locals, then its operands, one frame after another. A frame is
    /// a base offset into it.
    stack: Vec<Value>,
}

impl<'r> Vm<'r> {
    /// Creates a VM over a deployed repo with default options.
    pub fn new(repo: &'r Repo) -> Self {
        Self::with_options(repo, VmOptions::default())
    }

    /// Creates a VM with explicit options.
    pub fn with_options(repo: &'r Repo, options: VmOptions) -> Self {
        Self {
            repo,
            classes: ClassTable::new(repo),
            loader: Loader::new(repo),
            output: String::new(),
            stats: ExecStats::default(),
            options,
            fuel: 0,
            bodies: vec![None; repo.funcs().len()],
            stack: Vec::new(),
        }
    }

    /// The deployed repo.
    pub fn repo(&self) -> &'r Repo {
        self.repo
    }

    /// The class table (e.g. to install property orders before serving).
    pub fn classes_mut(&mut self) -> &mut ClassTable {
        &mut self.classes
    }

    /// The unit loader (e.g. to preload units from a Jump-Start package).
    pub fn loader(&self) -> &Loader {
        &self.loader
    }

    /// Mutable access to the loader for preloading.
    pub fn loader_mut(&mut self) -> &mut Loader {
        &mut self.loader
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Output produced by `print` so far (cleared by [`Vm::take_output`]).
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Takes and clears the output buffer.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UndefinedFunction`] if no such function, or any
    /// error the callee raises.
    pub fn call_by_name(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError> {
        let func = self
            .repo
            .func_by_name(name)
            .ok_or_else(|| VmError::UndefinedFunction(name.to_owned()))?
            .id;
        self.call(func, args)
    }

    /// Calls a function without instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn call(&mut self, func: FuncId, args: &[Value]) -> Result<Value, VmError> {
        let mut obs = NullObserver;
        self.call_observed(func, args, &mut obs)
    }

    /// Calls a function with instrumentation callbacks (profiling mode).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn call_observed<O: ExecObserver + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        obs: &mut O,
    ) -> Result<Value, VmError> {
        self.fuel = self.options.fuel;
        let entry = self.stack.len();
        self.stack.extend_from_slice(args);
        let result = self.exec(func, args.len(), None, obs, 0);
        // An error leaves the frames it unwound on the stack.
        self.stack.truncate(entry);
        // Each executed instruction spent one unit of fuel.
        self.stats.instrs += self.options.fuel - self.fuel;
        result
    }

    fn body(&mut self, func: FuncId) -> Rc<Body> {
        let repo = self.repo;
        self.bodies[func.index()]
            .get_or_insert_with(|| Rc::new(Body::build(repo, func)))
            .clone()
    }

    /// A VM whose functions run one op per instruction: the reference the
    /// fused bodies are tested against.
    #[cfg(test)]
    pub(crate) fn unfused(repo: &'r Repo, options: VmOptions) -> Self {
        let mut vm = Self::with_options(repo, options);
        for (body, f) in vm.bodies.iter_mut().zip(repo.funcs()) {
            *body = Some(Rc::new(Body::unfused(repo, f.id)));
        }
        vm
    }

    fn autoload_for_func(&mut self, func: FuncId) {
        let unit = self.repo.func(func).unit;
        self.loader.ensure_loaded(self.repo, unit);
    }

    /// Runs `func_id` on the top `argc` slots of the frame stack, which
    /// become its first locals in place. On a normal return the stack is
    /// back to what it was below those arguments; on an error it is left
    /// as it stood, for `call_observed` to truncate.
    ///
    /// Runs the function's prepared [`Body`]. Every op charges one unit
    /// of fuel per instruction it stands for, except a fused binary-op
    /// group or run of groups, which is charged whole when the fuel left
    /// covers it and its operands are ints: then nothing inside it can
    /// fail. Otherwise it runs instruction by instruction, so fuel runs
    /// out, and an error is raised, at the same instruction as in the
    /// wire form. `Int v; SetL l` is charged the same way.
    fn exec<O: ExecObserver + ?Sized>(
        &mut self,
        func_id: FuncId,
        argc: usize,
        this: Option<ObjRef>,
        obs: &mut O,
        depth: u32,
    ) -> Result<Value, VmError> {
        if depth >= self.options.max_depth {
            return Err(VmError::StackOverflow);
        }
        self.autoload_for_func(func_id);
        let func = self.repo.func(func_id);
        debug_assert_eq!(argc, func.params as usize);
        let base = self.stack.len() - argc;
        obs.on_func_enter(func_id, &self.stack[base..]);
        let body = self.body(func_id);
        let ops: &[Op] = &body.ops;
        self.stack.resize(base + func.locals as usize, Value::Null);
        let mut ip: usize = 0;
        // An int result a binary op hands to the next ([`Tail::Acc`]).
        let mut acc: Option<i64> = None;
        // Enters the block whose `Block` op is at `t`: the fuel check of
        // the block's first instruction, `on_block`, and on from the op
        // after it. A jump or branch enters its target this way itself,
        // without a dispatch of the `Block` op; every target is one.
        macro_rules! enter {
            ($t:expr) => {{
                let t = $t;
                ip = t;
                if let Op::Block(b) = ops[t] {
                    if self.fuel == 0 {
                        return Err(VmError::FuelExhausted);
                    }
                    obs.on_block(func_id, b);
                    ip = t + 1;
                }
                continue;
            }};
        }
        // Steps to the op after this one.
        macro_rules! next {
            () => {{
                ip += 1;
                continue;
            }};
        }
        // A binary-op group run one instruction at a time (see
        // `bin_slow`); `handed` is the operand the op before handed over.
        macro_rules! slow {
            ($a:expr, $b:expr, $op:expr, $tail:expr, $at:expr, $handed:expr) => {{
                let landing = self.bin_slow(
                    func_id,
                    base,
                    ($a, $b, $op, $tail, $at),
                    $handed,
                    ip as u32 + 1,
                    &mut acc,
                    obs,
                )?;
                if let Some(t) = landing {
                    enter!(t as usize);
                }
                next!();
            }};
        }
        // An operand-resolved group: the fast path `$fast`, which ends in
        // a step or a jump, on the int left operand `$x` when the fuel left
        // covers the group's `$len` instructions, else the group run one
        // instruction at a time.
        macro_rules! int_group {
            ($x:expr, $len:expr, ($a:expr, $k:expr, $op:expr, $tail:expr, $at:expr, $handed:expr), |$n:ident| $fast:block) => {{
                match $x {
                    Some($n) if self.fuel >= $len => {
                        self.fuel -= $len;
                        obs.on_bin_types(func_id, $at, ValueKind::Int, ValueKind::Int);
                        $fast
                    }
                    _ => slow!($a, Src::Int($k), $op, $tail, $at, $handed),
                }
            }};
        }
        loop {
            // A binary-op group on ints: its result, its tail and the
            // instruction of its op, for the code after the match. Every
            // other op, and a group that cannot run on ints, is done
            // within its arm.
            let (n, tail, at) = match ops[ip] {
                Op::Block(_) => enter!(ip),
                Op::PushL(l) => {
                    self.charge()?;
                    let v = self.stack[base + l as usize].clone();
                    self.stack.push(v);
                    next!();
                }
                Op::PushInt(v) => {
                    self.charge()?;
                    self.stack.push(Value::Int(v));
                    next!();
                }
                Op::SetL(l) => {
                    self.charge()?;
                    let v = self.pop();
                    self.stack[base + l as usize] = v;
                    next!();
                }
                Op::SetLInt(l, v) => {
                    if self.fuel < 2 {
                        // The `Int` alone, or nothing, before fuel runs out.
                        self.charge()?;
                        self.stack.push(Value::Int(v));
                        return Err(VmError::FuelExhausted);
                    }
                    self.fuel -= 2;
                    Num::Int(v).store(&mut self.stack[base + l as usize]);
                    next!();
                }
                Op::Jmp(t) => {
                    self.charge()?;
                    enter!(t as usize);
                }
                Op::Branch {
                    target,
                    on_zero,
                    at,
                } => {
                    self.charge()?;
                    let c = self.pop();
                    if self.branch(func_id, at, c.truthy() != on_zero, obs) {
                        enter!(target as usize);
                    }
                    enter!(ip + 1);
                }
                Op::Bin {
                    a,
                    b,
                    op,
                    tail,
                    at,
                    len,
                } => {
                    // The fast path's result is a `Num`, never a `Value`
                    // that meets the slow path's in memory.
                    let handed = acc.take();
                    match self.fused_int(base, a, b, op, len, handed) {
                        Some(n) => (n, tail, at),
                        None => slow!(a, b, op, tail, at, handed),
                    }
                }
                Op::BinLIAcc { l, k, op, at } => {
                    int_group!(
                        self.int_local(base, l),
                        3,
                        (Src::Local(l), k, op, Tail::Acc, at, None),
                        |n| {
                            match total_int_binop(op, n, i64::from(k)) {
                                Num::Int(i) => acc = Some(i),
                                r => r.push(&mut self.stack),
                            }
                            next!();
                        }
                    )
                }
                Op::BinLISetL { l, k, op, dst, at } => {
                    int_group!(
                        self.int_local(base, l),
                        4,
                        (Src::Local(l), k, op, Tail::SetL(dst), at, None),
                        |n| {
                            total_int_binop(op, n, i64::from(k))
                                .store(&mut self.stack[base + dst as usize]);
                            next!();
                        }
                    )
                }
                Op::BinLIBranch {
                    l,
                    k,
                    op,
                    target,
                    on_zero,
                    at,
                } => {
                    let tail = Tail::Branch { target, on_zero };
                    int_group!(
                        self.int_local(base, l),
                        4,
                        (Src::Local(l), k, op, tail, at, None),
                        |n| {
                            let r = total_int_binop(op, n, i64::from(k));
                            let taken = self.branch(func_id, at + 1, r.truthy() != on_zero, obs);
                            enter!(if taken { target as usize } else { ip + 1 });
                        }
                    )
                }
                Op::BinAIAcc { k, op, at } => {
                    let handed = acc.take();
                    int_group!(handed, 2, (Src::Acc, k, op, Tail::Acc, at, handed), |n| {
                        match total_int_binop(op, n, i64::from(k)) {
                            Num::Int(i) => acc = Some(i),
                            r => r.push(&mut self.stack),
                        }
                        next!();
                    })
                }
                Op::BinAISetL { k, op, dst, at } => {
                    let handed = acc.take();
                    int_group!(
                        handed,
                        3,
                        (Src::Acc, k, op, Tail::SetL(dst), at, handed),
                        |n| {
                            total_int_binop(op, n, i64::from(k))
                                .store(&mut self.stack[base + dst as usize]);
                            next!();
                        }
                    )
                }
                Op::BinAIBranch {
                    k,
                    op,
                    target,
                    on_zero,
                    at,
                } => {
                    let handed = acc.take();
                    let tail = Tail::Branch { target, on_zero };
                    int_group!(handed, 3, (Src::Acc, k, op, tail, at, handed), |n| {
                        let r = total_int_binop(op, n, i64::from(k));
                        let taken = self.branch(func_id, at + 1, r.truthy() != on_zero, obs);
                        enter!(if taken { target as usize } else { ip + 1 });
                    })
                }
                Op::BinLLI {
                    x,
                    l,
                    k,
                    op1,
                    op2,
                    tail,
                    at,
                } => {
                    let len = 5 + u64::from(tail.is_instr());
                    match (self.int_local(base, x), self.int_local(base, l)) {
                        (Some(x), Some(l)) if self.fuel >= len => {
                            self.fuel -= len;
                            obs.on_bin_types(func_id, at, ValueKind::Int, ValueKind::Int);
                            let t = int_valued_binop(op1, l, i64::from(k));
                            // `op2`'s types are reported after the match.
                            (total_int_binop(op2, x, t), tail, at + 1)
                        }
                        _ => {
                            // The three ops one after another.
                            self.charge()?;
                            let v = self.stack[base + x as usize].clone();
                            self.stack.push(v);
                            let first = (Src::Local(l), Src::Int(k), op1, Tail::Acc, at);
                            let fallthrough = ip as u32 + 1;
                            self.bin_slow(func_id, base, first, None, fallthrough, &mut acc, obs)?;
                            let handed = acc.take();
                            slow!(Src::Stack, Src::Acc, op2, tail, at + 1, handed)
                        }
                    }
                }
                Op::BinLIAI {
                    l,
                    k1,
                    op1,
                    k2,
                    op2,
                    tail,
                    at,
                } => {
                    let len = 5 + u64::from(tail.is_instr());
                    match self.int_local(base, l) {
                        Some(l) if self.fuel >= len => {
                            self.fuel -= len;
                            obs.on_bin_types(func_id, at, ValueKind::Int, ValueKind::Int);
                            let t = int_valued_binop(op1, l, i64::from(k1));
                            // `op2`'s types are reported after the match.
                            (total_int_binop(op2, t, i64::from(k2)), tail, at + 2)
                        }
                        _ => {
                            // The two groups one after the other.
                            let first = (Src::Local(l), Src::Int(k1), op1, Tail::Acc, at);
                            let fallthrough = ip as u32 + 1;
                            self.bin_slow(func_id, base, first, None, fallthrough, &mut acc, obs)?;
                            let handed = acc.take();
                            slow!(Src::Acc, Src::Int(k2), op2, tail, at + 2, handed)
                        }
                    }
                }
                Op::Call {
                    func: callee,
                    argc,
                    at,
                } => {
                    self.charge()?;
                    self.stats.calls += 1;
                    obs.on_call(func_id, at, callee);
                    let ret = self.exec(callee, argc as usize, None, obs, depth + 1)?;
                    self.stack.push(ret);
                    next!();
                }
                Op::Ret => {
                    self.charge()?;
                    let v = self.pop();
                    obs.on_func_exit(func_id);
                    self.stack.truncate(base);
                    return Ok(v);
                }
                Op::Step(at) => {
                    self.charge()?;
                    self.step(func_id, base, at, &this, obs, depth)?;
                    next!();
                }
            };
            obs.on_bin_types(func_id, at, ValueKind::Int, ValueKind::Int);
            match tail {
                Tail::Push => n.push(&mut self.stack),
                Tail::Acc => match n {
                    Num::Int(i) => acc = Some(i),
                    n => n.push(&mut self.stack),
                },
                Tail::SetL(l) => n.store(&mut self.stack[base + l as usize]),
                Tail::Branch { target, on_zero } => {
                    let taken = self.branch(func_id, at + 1, n.truthy() != on_zero, obs);
                    enter!(if taken { target as usize } else { ip + 1 });
                }
            }
            next!();
        }
    }

    /// The int in local `l` of the frame at `base`, if it holds one.
    #[inline(always)]
    fn int_local(&self, base: usize, l: bytecode::Local) -> Option<i64> {
        match self.stack[base + l as usize] {
            Value::Int(x) => Some(x),
            _ => None,
        }
    }

    /// Spends one unit of fuel, for one instruction.
    #[inline(always)]
    fn charge(&mut self) -> Result<(), VmError> {
        if self.fuel == 0 {
            return Err(VmError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self) -> Value {
        self.stack
            .pop()
            .expect("verified bytecode cannot underflow")
    }

    /// Counts and reports the conditional branch at `at`; returns `taken`.
    #[inline(always)]
    fn branch<O: ExecObserver + ?Sized>(
        &mut self,
        func: FuncId,
        at: u32,
        taken: bool,
        obs: &mut O,
    ) -> bool {
        self.stats.branches += 1;
        obs.on_branch(func, at, taken);
        taken
    }

    /// The fast path of a binary-op group of `len` instructions: when the
    /// fuel left covers the group and `op` on its two operands is an int
    /// result no error can come of ([`int_binop`]), charges the whole
    /// group, pops its stack operands and returns the result.
    #[inline(always)]
    fn fused_int(
        &mut self,
        base: usize,
        a: Src,
        b: Src,
        op: BinOp,
        len: u8,
        handed: Option<i64>,
    ) -> Option<Num> {
        if self.fuel < u64::from(len) {
            return None;
        }
        let top = self.stack.len();
        let stacked = usize::from(matches!(a, Src::Stack)) + usize::from(matches!(b, Src::Stack));
        // `depth` is how far below the top a stack operand lies.
        let int = |s: Src, depth: usize| match s {
            Src::Acc => handed,
            Src::Int(k) => Some(i64::from(k)),
            Src::Local(l) => match self.stack[base + l as usize] {
                Value::Int(x) => Some(x),
                _ => None,
            },
            Src::Stack => match self.stack[top - depth] {
                Value::Int(x) => Some(x),
                _ => None,
            },
        };
        let n = int_binop(op, int(a, stacked)?, int(b, 1)?)?;
        self.fuel -= u64::from(len);
        for _ in 0..stacked {
            // Just read as an int: nothing to drop.
            std::mem::forget(self.stack.pop());
        }
        Some(n)
    }

    /// A binary-op group run one instruction at a time, as the wire form
    /// runs it: its operand pushes (the handed-over operand, if any, goes
    /// where the wire form has it, on the stack top), the op, and its tail
    /// with the tail's fuel. Returns the op to enter next when the tail is
    /// a branch: its target when taken, else `fallthrough`.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn bin_slow<O: ExecObserver + ?Sized>(
        &mut self,
        func: FuncId,
        base: usize,
        (a, b, op, tail, at): (Src, Src, BinOp, Tail, u32),
        handed: Option<i64>,
        fallthrough: u32,
        acc: &mut Option<i64>,
        obs: &mut O,
    ) -> Result<Option<u32>, VmError> {
        if let Some(x) = handed {
            self.stack.push(Value::Int(x));
        }
        let mut pushed = [None, None];
        for (slot, s) in pushed.iter_mut().zip([a, b]) {
            let v = match s {
                Src::Local(l) => self.stack[base + l as usize].clone(),
                Src::Int(k) => Value::Int(i64::from(k)),
                Src::Stack | Src::Acc => continue,
            };
            self.charge()?;
            *slot = Some(v);
        }
        self.charge()?;
        let [a, b] = pushed;
        let b = b.unwrap_or_else(|| self.pop());
        let a = a.unwrap_or_else(|| self.pop());
        obs.on_bin_types(func, at, ValueKind::of(&a), ValueKind::of(&b));
        let v = self.binop(func, at, op, a, b)?;
        if tail.is_instr() {
            self.charge()?;
        }
        match tail {
            Tail::Push => self.stack.push(v),
            Tail::Acc => match v {
                Value::Int(i) => *acc = Some(i),
                v => self.stack.push(v),
            },
            Tail::SetL(l) => self.stack[base + l as usize] = v,
            Tail::Branch { target, on_zero } => {
                let taken = self.branch(func, at + 1, v.truthy() != on_zero, obs);
                return Ok(Some(if taken { target } else { fallthrough }));
            }
        }
        Ok(None)
    }

    /// Runs the instruction at `at` that has no op of its own.
    #[inline(never)]
    fn step<O: ExecObserver + ?Sized>(
        &mut self,
        func_id: FuncId,
        base: usize,
        at: u32,
        this: &Option<ObjRef>,
        obs: &mut O,
        depth: u32,
    ) -> Result<(), VmError> {
        match self.repo.func(func_id).code[at as usize] {
            Instr::Null => self.stack.push(Value::Null),
            Instr::True => self.stack.push(Value::Bool(true)),
            Instr::False => self.stack.push(Value::Bool(false)),
            Instr::Double(v) => self.stack.push(Value::Float(v)),
            Instr::Str(s) => self.stack.push(Value::str(self.repo.str(s))),
            Instr::LitArr(a) => self
                .stack
                .push(crate::classes::materialize_lit_array(self.repo, a)),
            Instr::Pop => {
                let _ = self.pop();
            }
            Instr::Dup => {
                let v = self.stack.last().expect("verified").clone();
                self.stack.push(v);
            }
            Instr::IncL(l, d) => {
                let slot = base + l as usize;
                match self.stack[slot] {
                    Value::Int(i) => {
                        self.stack[slot] = Value::Int(i.wrapping_add(d as i64));
                        self.stack.push(Value::Int(i));
                    }
                    ref other => {
                        return Err(VmError::TypeError {
                            func: func_id,
                            at,
                            detail: format!("incl on {}", other.type_name()),
                        })
                    }
                }
            }
            Instr::Un(op) => {
                let a = self.pop();
                let v = match (op, &a) {
                    (bytecode::UnOp::Not, _) => Value::Bool(!a.truthy()),
                    (bytecode::UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
                    (bytecode::UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                    (bytecode::UnOp::BitNot, Value::Int(i)) => Value::Int(!i),
                    _ => {
                        return Err(VmError::TypeError {
                            func: func_id,
                            at,
                            detail: format!("{} on {}", op.mnemonic(), a.type_name()),
                        })
                    }
                };
                self.stack.push(v);
            }
            Instr::CallMethod { name, argc } => {
                self.stats.calls += 1;
                // The receiver sits below the arguments; its slot takes
                // the return value.
                let recv_at = self.stack.len() - argc as usize - 1;
                let obj = match std::mem::take(&mut self.stack[recv_at]) {
                    Value::Obj(o) => o,
                    other => {
                        return Err(VmError::NotAnObject {
                            func: func_id,
                            at,
                            found: other.type_name(),
                        })
                    }
                };
                let class = obj.borrow().class;
                let method = self
                    .classes
                    .resolve(self.repo, class)
                    .methods
                    .get(&name)
                    .copied()
                    .ok_or_else(|| VmError::UndefinedMethod {
                        class: self.repo.str(self.repo.class(class).name).to_owned(),
                        method: self.repo.str(name).to_owned(),
                    })?;
                obs.on_call(func_id, at, method);
                let ret = self.exec(method, argc as usize, Some(obj), obs, depth + 1)?;
                self.stack[recv_at] = ret;
            }
            Instr::CallBuiltin { builtin, argc } => {
                let from = self.stack.len() - argc as usize;
                let ret = call_builtin(self.repo, builtin, &self.stack[from..], &mut self.output)
                    .map_err(|e| match e {
                    VmError::TypeError { detail, .. } => VmError::TypeError {
                        func: func_id,
                        at,
                        detail,
                    },
                    other => other,
                })?;
                self.stack.truncate(from);
                self.stack.push(ret);
            }
            Instr::NewObj(class) => {
                self.stats.allocations += 1;
                let unit = self.repo.class(class).unit;
                self.loader.ensure_loaded(self.repo, unit);
                let obj = self.classes.instantiate(self.repo, class);
                self.stack
                    .push(Value::Obj(Rc::new(std::cell::RefCell::new(obj))));
            }
            Instr::GetProp(name) => {
                self.stats.prop_reads += 1;
                let recv = self.pop();
                let obj = as_object(func_id, at, recv)?;
                let class = obj.borrow().class;
                obs.on_prop_access(func_id, at, class, name, false);
                let slot = self.prop_slot(class, name)?;
                let v = obj.borrow().slots[slot].clone();
                self.stack.push(v);
            }
            Instr::SetProp(name) => {
                self.stats.prop_writes += 1;
                let value = self.pop();
                let recv = self.pop();
                let obj = as_object(func_id, at, recv)?;
                let class = obj.borrow().class;
                obs.on_prop_access(func_id, at, class, name, true);
                let slot = self.prop_slot(class, name)?;
                obj.borrow_mut().slots[slot] = value;
            }
            Instr::This => match this {
                Some(o) => self.stack.push(Value::Obj(o.clone())),
                None => return Err(VmError::NoThis { func: func_id }),
            },
            Instr::NewVec(n) => {
                let items = split_args(&mut self.stack, n as usize);
                self.stack.push(Value::vec(items));
            }
            Instr::NewDict(n) => {
                let mut items = split_args(&mut self.stack, 2 * n as usize);
                let mut pairs = Vec::with_capacity(n as usize);
                for chunk in items.chunks_exact_mut(2) {
                    let k = chunk[0].as_dict_key().ok_or_else(|| VmError::TypeError {
                        func: func_id,
                        at,
                        detail: format!("dict key of type {}", chunk[0].type_name()),
                    })?;
                    pairs.push((k, std::mem::take(&mut chunk[1])));
                }
                self.stack.push(Value::dict(pairs));
            }
            Instr::Idx => {
                let key = self.pop();
                let container = self.pop();
                self.stack.push(index_get(func_id, at, &container, &key)?);
            }
            Instr::SetIdx => {
                let value = self.pop();
                let key = self.pop();
                let container = self.pop();
                index_set(func_id, at, &container, &key, value)?;
                self.stack.push(container);
            }
            Instr::Int(_)
            | Instr::GetL(_)
            | Instr::SetL(_)
            | Instr::Bin(_)
            | Instr::Jmp(_)
            | Instr::JmpZ(_)
            | Instr::JmpNZ(_)
            | Instr::Call { .. }
            | Instr::Ret => unreachable!("lowered to an op of its own"),
        }
        Ok(())
    }

    fn prop_slot(
        &mut self,
        class: bytecode::ClassId,
        name: bytecode::StrId,
    ) -> Result<usize, VmError> {
        self.classes
            .resolve(self.repo, class)
            .layout
            .slot_by_name
            .get(&name)
            .copied()
            .ok_or_else(|| VmError::UndefinedProperty {
                class: self.repo.str(self.repo.class(class).name).to_owned(),
                prop: self.repo.str(name).to_owned(),
            })
    }

    fn binop(
        &mut self,
        func: FuncId,
        at: u32,
        op: bytecode::BinOp,
        a: Value,
        b: Value,
    ) -> Result<Value, VmError> {
        use bytecode::BinOp::*;
        let type_err = |detail: String| VmError::TypeError { func, at, detail };
        Ok(match op {
            Add | Sub | Mul => match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => {
                    let (x, y) = (*x, *y);
                    Value::Int(match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        _ => x.wrapping_mul(y),
                    })
                }
                _ => {
                    let (x, y) = numeric_pair(&a, &b).ok_or_else(|| {
                        type_err(format!(
                            "{} on {} and {}",
                            op.mnemonic(),
                            a.type_name(),
                            b.type_name()
                        ))
                    })?;
                    Value::Float(match op {
                        Add => x + y,
                        Sub => x - y,
                        _ => x * y,
                    })
                }
            },
            Div => match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => {
                    if *y == 0 {
                        return Err(VmError::DivisionByZero { func, at });
                    }
                    // `i64::MIN / -1` overflows; like any inexact int
                    // division it yields the float quotient.
                    match (x.checked_rem(*y), x.checked_div(*y)) {
                        (Some(0), Some(q)) => Value::Int(q),
                        _ => Value::Float(*x as f64 / *y as f64),
                    }
                }
                _ => {
                    let (x, y) = numeric_pair(&a, &b).ok_or_else(|| {
                        type_err(format!("div on {} and {}", a.type_name(), b.type_name()))
                    })?;
                    if y == 0.0 {
                        return Err(VmError::DivisionByZero { func, at });
                    }
                    Value::Float(x / y)
                }
            },
            Mod => match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => {
                    if *y == 0 {
                        return Err(VmError::DivisionByZero { func, at });
                    }
                    Value::Int(x.wrapping_rem(*y))
                }
                _ => {
                    return Err(type_err(format!(
                        "mod on {} and {}",
                        a.type_name(),
                        b.type_name()
                    )))
                }
            },
            Concat => {
                let mut s = a.coerce_to_string();
                s.push_str(&b.coerce_to_string());
                Value::str(&s)
            }
            Eq => Value::Bool(a.loose_eq(&b)),
            Neq => Value::Bool(!a.loose_eq(&b)),
            Lt | Le | Gt | Ge => {
                let ord = a.loose_cmp(&b).ok_or_else(|| {
                    type_err(format!(
                        "{} on {} and {}",
                        op.mnemonic(),
                        a.type_name(),
                        b.type_name()
                    ))
                })?;
                Value::Bool(match op {
                    Lt => ord == std::cmp::Ordering::Less,
                    Le => ord != std::cmp::Ordering::Greater,
                    Gt => ord == std::cmp::Ordering::Greater,
                    _ => ord != std::cmp::Ordering::Less,
                })
            }
            BitAnd | BitOr | BitXor | Shl | Shr => match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => Value::Int(match op {
                    BitAnd => x & y,
                    BitOr => x | y,
                    BitXor => x ^ y,
                    Shl => x.wrapping_shl(*y as u32),
                    _ => x.wrapping_shr(*y as u32),
                }),
                _ => {
                    return Err(type_err(format!(
                        "{} on {} and {}",
                        op.mnemonic(),
                        a.type_name(),
                        b.type_name()
                    )))
                }
            },
        })
    }
}

/// `op` on two ints, as [`Vm::binop`] computes it, when that cannot fail
/// and yields no string. `None` sends `concat`, and `div` or `mod` by
/// zero, to `binop`.
#[inline]
fn int_binop(op: BinOp, x: i64, y: i64) -> Option<Num> {
    match op {
        BinOp::Concat => None,
        BinOp::Div | BinOp::Mod if y == 0 => None,
        _ => Some(total_int_binop(op, x, y)),
    }
}

/// [`int_binop`] where it cannot fail: `op` is no `concat`, and no `div`
/// or `mod` by zero.
#[inline(always)]
fn total_int_binop(op: BinOp, x: i64, y: i64) -> Num {
    use bytecode::BinOp::*;
    match op {
        Add => Num::Int(x.wrapping_add(y)),
        Sub => Num::Int(x.wrapping_sub(y)),
        Mul => Num::Int(x.wrapping_mul(y)),
        Lt => Num::Bool(x < y),
        Le => Num::Bool(x <= y),
        Gt => Num::Bool(x > y),
        Ge => Num::Bool(x >= y),
        Eq => Num::Bool(x == y),
        Neq => Num::Bool(x != y),
        Mod => Num::Int(x.wrapping_rem(y)),
        // `i64::MIN / -1` overflows; like any inexact int division it
        // yields the float quotient.
        Div => match (x.checked_rem(y), x.checked_div(y)) {
            (Some(0), Some(q)) => Num::Int(q),
            _ => Num::Float(x as f64 / y as f64),
        },
        BitAnd => Num::Int(x & y),
        BitOr => Num::Int(x | y),
        BitXor => Num::Int(x ^ y),
        Shl => Num::Int(x.wrapping_shl(y as u32)),
        Shr => Num::Int(x.wrapping_shr(y as u32)),
        Concat => unreachable!("never lowered to an int op"),
    }
}

/// [`total_int_binop`] of an op that yields an int on any two ints.
#[inline(always)]
fn int_valued_binop(op: BinOp, x: i64, y: i64) -> i64 {
    match total_int_binop(op, x, y) {
        Num::Int(i) => i,
        _ => unreachable!("{op:?} on ints yields an int"),
    }
}

/// The result of [`int_binop`]: a scalar [`Value`] kept out of memory
/// until the group's tail stores, pushes or tests it.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Bool(bool),
    Float(f64),
}

impl From<Num> for Value {
    #[inline(always)]
    fn from(n: Num) -> Value {
        match n {
            Num::Int(i) => Value::Int(i),
            Num::Bool(b) => Value::Bool(b),
            Num::Float(f) => Value::Float(f),
        }
    }
}

impl Num {
    /// [`Value::truthy`] of the result.
    #[inline(always)]
    fn truthy(self) -> bool {
        match self {
            Num::Int(i) => i != 0,
            Num::Bool(b) => b,
            Num::Float(f) => f != 0.0,
        }
    }

    /// Stores the result in a local slot. An int over an int is written
    /// in place: the old value has no drop to run.
    #[inline(always)]
    fn store(self, slot: &mut Value) {
        match (slot, self) {
            (Value::Int(old), Num::Int(new)) => *old = new,
            (slot, n) => *slot = n.into(),
        }
    }

    /// Pushes the result.
    #[inline(always)]
    fn push(self, stack: &mut Vec<Value>) {
        stack.push(self.into());
    }
}

fn numeric_pair(a: &Value, b: &Value) -> Option<(f64, f64)> {
    Some((a.as_number()?, b.as_number()?))
}

fn as_object(func: FuncId, at: u32, v: Value) -> Result<ObjRef, VmError> {
    match v {
        Value::Obj(o) => Ok(o),
        other => Err(VmError::NotAnObject {
            func,
            at,
            found: other.type_name(),
        }),
    }
}

fn split_args(stack: &mut Vec<Value>, n: usize) -> Vec<Value> {
    let at = stack.len() - n;
    stack.split_off(at)
}

fn index_get(func: FuncId, at: u32, container: &Value, key: &Value) -> Result<Value, VmError> {
    match container {
        Value::Vec(v) => {
            let i = match key {
                Value::Int(i) => *i,
                other => {
                    return Err(VmError::TypeError {
                        func,
                        at,
                        detail: format!("vec index of type {}", other.type_name()),
                    })
                }
            };
            let v = v.borrow();
            if i < 0 || i as usize >= v.len() {
                return Err(VmError::IndexError {
                    detail: format!("vec index {i} out of range"),
                });
            }
            Ok(v[i as usize].clone())
        }
        Value::Dict(d) => {
            let k = key.as_dict_key().ok_or_else(|| VmError::TypeError {
                func,
                at,
                detail: format!("dict key of type {}", key.type_name()),
            })?;
            d.borrow()
                .iter()
                .find(|(dk, _)| *dk == k)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| VmError::IndexError {
                    detail: format!("missing dict key {k}"),
                })
        }
        Value::Str(s) => {
            // A byte index; one that splits a multibyte character names no
            // one-byte string.
            let i = key.coerce_to_int();
            let byte = usize::try_from(i)
                .ok()
                .and_then(|i| s.get(i..i.checked_add(1)?));
            byte.map(Value::str).ok_or_else(|| VmError::IndexError {
                detail: if i < 0 || i as usize >= s.len() {
                    format!("string index {i} out of range")
                } else {
                    format!("string index {i} splits a character")
                },
            })
        }
        other => Err(VmError::TypeError {
            func,
            at,
            detail: format!("index on {}", other.type_name()),
        }),
    }
}

fn index_set(
    func: FuncId,
    at: u32,
    container: &Value,
    key: &Value,
    value: Value,
) -> Result<(), VmError> {
    match container {
        Value::Vec(v) => {
            let i = key.coerce_to_int();
            let mut v = v.borrow_mut();
            if i >= 0 && (i as usize) < v.len() {
                v[i as usize] = value;
                Ok(())
            } else if i as usize == v.len() {
                v.push(value);
                Ok(())
            } else {
                Err(VmError::IndexError {
                    detail: format!("vec store index {i} out of range"),
                })
            }
        }
        Value::Dict(d) => {
            let k = key.as_dict_key().ok_or_else(|| VmError::TypeError {
                func,
                at,
                detail: format!("dict key of type {}", key.type_name()),
            })?;
            let mut d = d.borrow_mut();
            if let Some(slot) = d.iter_mut().find(|(dk, _)| *dk == k) {
                slot.1 = value;
            } else {
                d.push((k, value));
            }
            Ok(())
        }
        other => Err(VmError::TypeError {
            func,
            at,
            detail: format!("index store on {}", other.type_name()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{BlockId, Builtin, FuncBuilder, Literal, RepoBuilder, UnOp, Visibility};

    fn build_repo(f: impl FnOnce(&mut RepoBuilder, bytecode::UnitId)) -> Repo {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("t.hl");
        f(&mut b, u);
        b.finish()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("f", 2);
            f.emit(Instr::GetL(0));
            f.emit(Instr::GetL(1));
            f.emit(Instr::Bin(BinOp::Add));
            f.emit(Instr::Int(10));
            f.emit(Instr::Bin(BinOp::Lt));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(
            vm.call_by_name("f", &[Value::Int(3), Value::Int(4)])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            vm.call_by_name("f", &[Value::Int(7), Value::Int(4)])
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn int_fast_paths_match_binop() {
        use BinOp::*;
        let ops = [
            Add, Sub, Mul, Div, Mod, Concat, Eq, Neq, Lt, Le, Gt, Ge, BitAnd, BitOr, BitXor, Shl,
            Shr,
        ];
        let repo = build_repo(|b, u| {
            for op in ops {
                let mut f = FuncBuilder::new(op.mnemonic(), 2);
                f.emit(Instr::GetL(0));
                f.emit(Instr::GetL(1));
                f.emit(Instr::Bin(op));
                f.emit(Instr::Ret);
                b.define_func(u, f);
            }
        });
        let ints = [i64::MIN, -7, -1, 0, 1, 3, 7, 64, i64::MAX];
        let mut vm = Vm::new(&repo);
        for (k, op) in ops.into_iter().enumerate() {
            let f = FuncId::new(k as u32);
            for x in ints {
                for y in ints {
                    let (a, b) = (Value::Int(x), Value::Int(y));
                    let want = vm.binop(f, 2, op, a.clone(), b.clone());
                    assert_eq!(vm.call(f, &[a, b]), want, "{} {x} {y}", op.mnemonic());
                }
            }
        }
    }

    #[test]
    fn string_index_is_a_byte_or_an_index_error() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("f", 2);
            f.emit(Instr::GetL(0));
            f.emit(Instr::GetL(1));
            f.emit(Instr::Idx);
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        let mut idx = |s: &str, i: i64| vm.call_by_name("f", &[Value::str(s), Value::Int(i)]);
        assert_eq!(idx("é!", 2), Ok(Value::str("!")));
        assert_eq!(idx("ab", 1), Ok(Value::str("b")));
        for (s, i) in [
            ("é!", 0),
            ("é!", 1),
            ("aé", 2),
            ("é!", 3),
            ("é!", -1),
            ("", 0),
        ] {
            assert!(
                matches!(idx(s, i), Err(VmError::IndexError { .. })),
                "{s:?}[{i}]"
            );
        }
    }

    #[test]
    fn int_overflow_wraps() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("f", 1);
            f.emit(Instr::GetL(0));
            f.emit(Instr::Int(1));
            f.emit(Instr::Bin(BinOp::Add));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(
            vm.call_by_name("f", &[Value::Int(i64::MAX)]).unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn division_semantics() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("f", 2);
            f.emit(Instr::GetL(0));
            f.emit(Instr::GetL(1));
            f.emit(Instr::Bin(BinOp::Div));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(
            vm.call_by_name("f", &[6.into(), 3.into()]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            vm.call_by_name("f", &[7.into(), 2.into()]).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            vm.call_by_name("f", &[i64::MIN.into(), (-1).into()])
                .unwrap(),
            Value::Float(-(i64::MIN as f64))
        );
        assert!(matches!(
            vm.call_by_name("f", &[1.into(), 0.into()]),
            Err(VmError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn loops_with_incl() {
        // sum = 0; for (i = 0; i < n; i++) sum += i; return sum
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("sum_to", 1);
            let i = f.new_local();
            let sum = f.new_local();
            let top = f.new_label();
            let out = f.new_label();
            f.emit(Instr::Int(0));
            f.emit(Instr::SetL(i));
            f.emit(Instr::Int(0));
            f.emit(Instr::SetL(sum));
            f.bind(top);
            f.emit(Instr::GetL(i));
            f.emit(Instr::GetL(0));
            f.emit(Instr::Bin(BinOp::Lt));
            f.emit_jmp_z(out);
            f.emit(Instr::GetL(sum));
            f.emit(Instr::GetL(i));
            f.emit(Instr::Bin(BinOp::Add));
            f.emit(Instr::SetL(sum));
            f.emit(Instr::IncL(i, 1));
            f.emit(Instr::Pop);
            f.emit_jmp(top);
            f.bind(out);
            f.emit(Instr::GetL(sum));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(
            vm.call_by_name("sum_to", &[10.into()]).unwrap(),
            Value::Int(45)
        );
        assert!(vm.stats().branches >= 11);
    }

    #[test]
    fn objects_props_and_methods() {
        let repo = build_repo(|b, u| {
            let c = b.declare_class(
                u,
                "Point",
                None,
                vec![
                    ("x".into(), Literal::Int(0), Visibility::Public),
                    ("y".into(), Literal::Int(0), Visibility::Public),
                ],
            );
            // method mag2() { return this.x*this.x + this.y*this.y; }
            let mut m = FuncBuilder::new("Point::mag2", 0);
            let x = b.intern("x");
            let y = b.intern("y");
            m.emit(Instr::This);
            m.emit(Instr::GetProp(x));
            m.emit(Instr::This);
            m.emit(Instr::GetProp(x));
            m.emit(Instr::Bin(BinOp::Mul));
            m.emit(Instr::This);
            m.emit(Instr::GetProp(y));
            m.emit(Instr::This);
            m.emit(Instr::GetProp(y));
            m.emit(Instr::Bin(BinOp::Mul));
            m.emit(Instr::Bin(BinOp::Add));
            m.emit(Instr::Ret);
            b.define_method(u, c, m);
            // function f() { p = new Point; p.x = 3; p.y = 4; return p.mag2(); }
            let mut f = FuncBuilder::new("f", 0);
            let p = f.new_local();
            let mag2 = b.intern("mag2");
            f.emit(Instr::NewObj(c));
            f.emit(Instr::SetL(p));
            f.emit(Instr::GetL(p));
            f.emit(Instr::Int(3));
            f.emit(Instr::SetProp(x));
            f.emit(Instr::GetL(p));
            f.emit(Instr::Int(4));
            f.emit(Instr::SetProp(y));
            f.emit(Instr::GetL(p));
            f.emit(Instr::CallMethod {
                name: mag2,
                argc: 0,
            });
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(vm.call_by_name("f", &[]).unwrap(), Value::Int(25));
        assert_eq!(vm.stats().allocations, 1);
        assert!(vm.stats().prop_reads >= 4);
    }

    #[test]
    fn semantics_invariant_under_prop_reorder() {
        // The same program must produce identical results regardless of the
        // installed physical property order — the core correctness claim of
        // paper §V-C.
        let build = || {
            build_repo(|b, u| {
                let c = b.declare_class(
                    u,
                    "P",
                    None,
                    vec![
                        ("a".into(), Literal::Int(1), Visibility::Public),
                        ("b".into(), Literal::Int(2), Visibility::Public),
                        ("c".into(), Literal::Int(3), Visibility::Public),
                    ],
                );
                let a = b.intern("a");
                let cc = b.intern("c");
                let mut f = FuncBuilder::new("f", 0);
                let p = f.new_local();
                f.emit(Instr::NewObj(c));
                f.emit(Instr::SetL(p));
                f.emit(Instr::GetL(p));
                f.emit(Instr::Int(10));
                f.emit(Instr::SetProp(a));
                f.emit(Instr::GetL(p));
                f.emit(Instr::GetProp(a));
                f.emit(Instr::GetL(p));
                f.emit(Instr::GetProp(cc));
                f.emit(Instr::Bin(BinOp::Add));
                f.emit(Instr::Ret);
                b.define_func(u, f);
            })
        };
        let repo1 = build();
        let mut vm1 = Vm::new(&repo1);
        let r1 = vm1.call_by_name("f", &[]).unwrap();

        let repo2 = build();
        let mut vm2 = Vm::new(&repo2);
        let class = repo2.class_by_name("P").unwrap().id;
        let order = vec![
            repo2.str_id("c").unwrap(),
            repo2.str_id("b").unwrap(),
            repo2.str_id("a").unwrap(),
        ];
        vm2.classes_mut().install_prop_order(class, order);
        let r2 = vm2.call_by_name("f", &[]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, Value::Int(13));
    }

    #[test]
    fn vec_dict_roundtrip() {
        let repo = build_repo(|b, u| {
            let k = b.intern("k");
            let mut f = FuncBuilder::new("f", 0);
            // d = dict["k" => 5]; v = vec[1,2]; v[0] = d["k"]; return v[0] + v[1]
            let d = f.new_local();
            let v = f.new_local();
            f.emit(Instr::Str(k));
            f.emit(Instr::Int(5));
            f.emit(Instr::NewDict(1));
            f.emit(Instr::SetL(d));
            f.emit(Instr::Int(1));
            f.emit(Instr::Int(2));
            f.emit(Instr::NewVec(2));
            f.emit(Instr::SetL(v));
            f.emit(Instr::GetL(v));
            f.emit(Instr::Int(0));
            f.emit(Instr::GetL(d));
            f.emit(Instr::Str(k));
            f.emit(Instr::Idx);
            f.emit(Instr::SetIdx);
            f.emit(Instr::Pop);
            f.emit(Instr::GetL(v));
            f.emit(Instr::Int(0));
            f.emit(Instr::Idx);
            f.emit(Instr::GetL(v));
            f.emit(Instr::Int(1));
            f.emit(Instr::Idx);
            f.emit(Instr::Bin(BinOp::Add));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(vm.call_by_name("f", &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn fuel_guard_stops_infinite_loop() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("spin", 0);
            let top = f.new_label();
            f.bind(top);
            f.emit_jmp(top);
            // Unreachable but keeps the verifier's shape expectations.
            f.emit(Instr::Null);
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::with_options(
            &repo,
            VmOptions {
                fuel: 10_000,
                max_depth: 16,
            },
        );
        assert_eq!(vm.call_by_name("spin", &[]), Err(VmError::FuelExhausted));
    }

    #[test]
    fn recursion_depth_guard() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("rec", 0);
            let id = bytecode::FuncId::new(0);
            f.emit_raw(Instr::Call { func: id, argc: 0 });
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::with_options(
            &repo,
            VmOptions {
                fuel: 1_000_000,
                max_depth: 64,
            },
        );
        assert_eq!(vm.call_by_name("rec", &[]), Err(VmError::StackOverflow));
    }

    // outer(kind, x) = 7 + middle(kind, x); middle(kind, x) = 5 +
    // leaf(kind, x); leaf(0, x) = new C->m(x) + x with m(y) = y * y, and
    // leaf(k, x) for k = 1..=4 fails two frames down, with operands of
    // every frame still on the stack: a type error, a spin that runs out
    // of fuel, an unbounded recursion, a call of an undefined method.
    fn unwinding_repo() -> Repo {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("unwind.hl");
        let c = b.declare_class(u, "C", None, vec![]);
        let (m, nope, s) = (b.intern("m"), b.intern("nope"), b.intern("s"));
        let mut method = FuncBuilder::new("C::m", 1);
        method.emit(Instr::GetL(0));
        method.emit(Instr::GetL(0));
        method.emit(Instr::Bin(BinOp::Mul));
        method.emit(Instr::Ret);
        b.define_method(u, c, method);
        let mut rec = FuncBuilder::new("rec", 0);
        let rec_id = bytecode::FuncId::new(1);
        rec.emit(Instr::Call {
            func: rec_id,
            argc: 0,
        });
        rec.emit(Instr::Ret);
        assert_eq!(b.define_func(u, rec), rec_id);

        let mut leaf = FuncBuilder::new("leaf", 2);
        let [fail, not_type, not_fuel, not_depth, spin] = [(); 5].map(|()| leaf.new_label());
        leaf.emit(Instr::GetL(0));
        leaf.emit_jmp_nz(fail);
        leaf.emit(Instr::NewObj(c));
        leaf.emit(Instr::GetL(1));
        leaf.emit(Instr::CallMethod { name: m, argc: 1 });
        leaf.emit(Instr::GetL(1));
        leaf.emit(Instr::Bin(BinOp::Add));
        leaf.emit(Instr::Ret);
        leaf.bind(fail);
        let case = |leaf: &mut FuncBuilder, k: i64, next: bytecode::Label| {
            leaf.emit(Instr::GetL(0));
            leaf.emit(Instr::Int(k));
            leaf.emit(Instr::Bin(BinOp::Eq));
            leaf.emit_jmp_z(next);
        };
        case(&mut leaf, 1, not_type);
        leaf.emit(Instr::GetL(1));
        leaf.emit(Instr::Str(s));
        leaf.emit(Instr::Bin(BinOp::Sub));
        leaf.emit(Instr::Ret);
        leaf.bind(not_type);
        case(&mut leaf, 2, not_fuel);
        leaf.bind(spin);
        leaf.emit_jmp(spin);
        leaf.bind(not_fuel);
        case(&mut leaf, 3, not_depth);
        leaf.emit(Instr::Call {
            func: rec_id,
            argc: 0,
        });
        leaf.emit(Instr::Ret);
        leaf.bind(not_depth);
        leaf.emit(Instr::NewObj(c));
        leaf.emit(Instr::GetL(1));
        leaf.emit(Instr::CallMethod {
            name: nope,
            argc: 1,
        });
        leaf.emit(Instr::Ret);
        let mut callee = b.define_func(u, leaf);
        for (name, k) in [("middle", 5), ("outer", 7)] {
            let mut f = FuncBuilder::new(name, 2);
            f.emit(Instr::Int(k));
            f.emit(Instr::GetL(0));
            f.emit(Instr::GetL(1));
            f.emit(Instr::Call {
                func: callee,
                argc: 2,
            });
            f.emit(Instr::Bin(BinOp::Add));
            f.emit(Instr::Ret);
            callee = b.define_func(u, f);
        }
        b.finish()
    }

    const UNWIND_OPTIONS: VmOptions = VmOptions {
        fuel: 10_000,
        max_depth: 16,
    };

    fn stats_since(now: ExecStats, then: ExecStats) -> ExecStats {
        ExecStats {
            instrs: now.instrs - then.instrs,
            calls: now.calls - then.calls,
            branches: now.branches - then.branches,
            prop_reads: now.prop_reads - then.prop_reads,
            prop_writes: now.prop_writes - then.prop_writes,
            allocations: now.allocations - then.allocations,
        }
    }

    #[test]
    fn an_error_deep_in_the_frame_stack_leaves_the_vm_as_new() {
        let repo = unwinding_repo();
        let outer = repo.func_by_name("outer").unwrap().id;
        let ok_args = [Value::Int(0), Value::Int(3)];
        let mut fresh = Vm::with_options(&repo, UNWIND_OPTIONS);
        let want = fresh.call(outer, &ok_args);
        assert_eq!(want, Ok(Value::Int(7 + 5 + 3 * 3 + 3)));
        let failures = [
            (1, "TypeError"),
            (2, "FuelExhausted"),
            (3, "StackOverflow"),
            (4, "UndefinedMethod"),
        ];
        for (kind, expected) in failures {
            let mut vm = Vm::with_options(&repo, UNWIND_OPTIONS);
            // Twice: a second failure starts from the state the first left.
            for _ in 0..2 {
                let err = vm
                    .call(outer, &[Value::Int(kind), Value::Int(3)])
                    .unwrap_err();
                assert!(format!("{err:?}").starts_with(expected), "{err:?}");
                assert!(vm.stack.is_empty(), "kind {kind}: frames left behind");
                let before = vm.stats();
                assert_eq!(vm.call(outer, &ok_args), want, "kind {kind}");
                assert_eq!(
                    stats_since(vm.stats(), before),
                    fresh.stats(),
                    "kind {kind}"
                );
                assert!(vm.stack.is_empty());
            }
        }
    }

    #[test]
    fn func_enter_sees_exactly_the_callee_parameters() {
        #[derive(Default)]
        struct Enters(Vec<(FuncId, Vec<Value>)>);
        impl ExecObserver for Enters {
            fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
                self.0.push((func, args.to_vec()));
            }
        }
        let repo = unwinding_repo();
        let id = |name: &str| repo.func_by_name(name).unwrap().id;
        let method = repo.funcs().iter().find(|f| f.class.is_some()).unwrap().id;
        let (zero, three) = (Value::Int(0), Value::Int(3));
        let mut vm = Vm::with_options(&repo, UNWIND_OPTIONS);
        // After a failure, through `&mut dyn`, the events are the same.
        let failed = vm.call(id("outer"), &[Value::Int(4), three.clone()]);
        assert!(failed.is_err());
        let mut enters = Enters::default();
        let dynamic: &mut dyn ExecObserver = &mut enters;
        vm.call_observed(id("outer"), &[zero.clone(), three.clone()], dynamic)
            .unwrap();
        let both = vec![zero.clone(), three.clone()];
        assert_eq!(
            enters.0,
            vec![
                (id("outer"), both.clone()),
                (id("middle"), both.clone()),
                (id("leaf"), both),
                (method, vec![three]),
            ]
        );
        for (f, args) in &enters.0 {
            assert_eq!(args.len(), usize::from(repo.func(*f).params));
        }
    }

    #[test]
    fn observer_sees_blocks_branches_calls() {
        #[derive(Default)]
        struct Rec {
            blocks: u64,
            branches: Vec<bool>,
            calls: Vec<FuncId>,
        }
        impl ExecObserver for Rec {
            fn on_block(&mut self, _f: FuncId, _b: BlockId) {
                self.blocks += 1;
            }
            fn on_branch(&mut self, _f: FuncId, _at: u32, taken: bool) {
                self.branches.push(taken);
            }
            fn on_call(&mut self, _c: FuncId, _at: u32, callee: FuncId) {
                self.calls.push(callee);
            }
        }
        let repo = build_repo(|b, u| {
            let mut g = FuncBuilder::new("g", 0);
            g.emit(Instr::Int(1));
            g.emit(Instr::Ret);
            let gid = b.define_func(u, g);
            let mut f = FuncBuilder::new("f", 1);
            let out = f.new_label();
            f.emit(Instr::GetL(0));
            f.emit_jmp_z(out);
            f.emit(Instr::Call { func: gid, argc: 0 });
            f.emit(Instr::Ret);
            f.bind(out);
            f.emit(Instr::Int(0));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        let f = repo.func_by_name("f").unwrap().id;
        let mut rec = Rec::default();
        vm.call_observed(f, &[Value::Int(1)], &mut rec).unwrap();
        assert!(rec.blocks >= 2);
        assert_eq!(rec.branches, vec![false]);
        assert_eq!(rec.calls.len(), 1);
    }

    #[test]
    fn autoload_logs_units_in_first_use_order() {
        let mut b = RepoBuilder::new();
        let u1 = b.declare_unit("one.hl");
        let u2 = b.declare_unit("two.hl");
        let mut g = FuncBuilder::new("g", 0);
        g.emit(Instr::Int(2));
        g.emit(Instr::Ret);
        let gid = b.define_func(u2, g);
        let mut f = FuncBuilder::new("f", 0);
        f.emit(Instr::Call { func: gid, argc: 0 });
        f.emit(Instr::Ret);
        b.define_func(u1, f);
        let repo = b.finish();
        let mut vm = Vm::new(&repo);
        vm.call_by_name("f", &[]).unwrap();
        assert_eq!(vm.loader().load_order(), vec![u1, u2]);
    }

    #[test]
    fn print_builtin_writes_output() {
        let repo = build_repo(|b, u| {
            let s = b.intern("hi ");
            let mut f = FuncBuilder::new("f", 1);
            f.emit(Instr::Str(s));
            f.emit(Instr::CallBuiltin {
                builtin: Builtin::Print,
                argc: 1,
            });
            f.emit(Instr::Pop);
            f.emit(Instr::GetL(0));
            f.emit(Instr::CallBuiltin {
                builtin: Builtin::Print,
                argc: 1,
            });
            f.emit(Instr::Pop);
            f.emit(Instr::Null);
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        vm.call_by_name("f", &[Value::Int(9)]).unwrap();
        assert_eq!(vm.take_output(), "hi 9");
        assert_eq!(vm.output(), "");
    }

    #[test]
    fn unary_ops() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("f", 1);
            f.emit(Instr::GetL(0));
            f.emit(Instr::Un(UnOp::Neg));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(vm.call_by_name("f", &[5.into()]).unwrap(), Value::Int(-5));
        assert_eq!(
            vm.call_by_name("f", &[Value::Float(2.5)]).unwrap(),
            Value::Float(-2.5)
        );
        assert!(vm.call_by_name("f", &[Value::str("x")]).is_err());
    }

    #[test]
    fn string_concat_coerces() {
        let repo = build_repo(|b, u| {
            let mut f = FuncBuilder::new("f", 2);
            f.emit(Instr::GetL(0));
            f.emit(Instr::GetL(1));
            f.emit(Instr::Bin(BinOp::Concat));
            f.emit(Instr::Ret);
            b.define_func(u, f);
        });
        let mut vm = Vm::new(&repo);
        assert_eq!(
            vm.call_by_name("f", &[Value::str("n="), Value::Int(3)])
                .unwrap(),
            Value::str("n=3")
        );
    }

    #[test]
    fn undefined_method_and_prop_errors() {
        let repo = build_repo(|b, u| {
            let c = b.declare_class(u, "C", None, vec![]);
            let nope = b.intern("nope");
            let mut f = FuncBuilder::new("callm", 0);
            f.emit(Instr::NewObj(c));
            f.emit(Instr::CallMethod {
                name: nope,
                argc: 0,
            });
            f.emit(Instr::Ret);
            b.define_func(u, f);
            let mut g = FuncBuilder::new("getp", 0);
            g.emit(Instr::NewObj(c));
            g.emit(Instr::GetProp(nope));
            g.emit(Instr::Ret);
            b.define_func(u, g);
        });
        let mut vm = Vm::new(&repo);
        assert!(matches!(
            vm.call_by_name("callm", &[]),
            Err(VmError::UndefinedMethod { .. })
        ));
        assert!(matches!(
            vm.call_by_name("getp", &[]),
            Err(VmError::UndefinedProperty { .. })
        ));
    }
}
