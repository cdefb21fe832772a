//! The bytecode interpreter.

use std::rc::Rc;

use bytecode::{BlockId, Cfg, FuncId, Instr, Repo};

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
    block_maps: Vec<Option<Rc<BlockMap>>>,
    /// The frame stack: every live frame's arguments, then its other
    /// locals, then its operands, one frame after another. A frame is
    /// a base offset into it.
    stack: Vec<Value>,
}

/// Per-function map from instruction index to the basic block starting
/// there (if any), used to raise block-entry callbacks.
#[derive(Debug)]
struct BlockMap {
    start_of: Vec<Option<BlockId>>,
}

impl BlockMap {
    fn build(cfg: &Cfg, code_len: usize) -> Self {
        let mut start_of = vec![None; code_len];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            start_of[b.start as usize] = Some(BlockId(bi as u32));
        }
        Self { start_of }
    }
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
            block_maps: vec![None; repo.funcs().len()],
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

    fn block_map(&mut self, func: FuncId) -> Rc<BlockMap> {
        if self.block_maps[func.index()].is_none() {
            let f = self.repo.func(func);
            let cfg = Cfg::build(f);
            self.block_maps[func.index()] = Some(Rc::new(BlockMap::build(&cfg, f.code.len())));
        }
        self.block_maps[func.index()]
            .as_ref()
            .expect("just built")
            .clone()
    }

    fn autoload_for_func(&mut self, func: FuncId) {
        let unit = self.repo.func(func).unit;
        self.loader.ensure_loaded(self.repo, unit);
    }

    /// Runs `func_id` on the top `argc` slots of the frame stack, which
    /// become its first locals in place. On a normal return the stack is
    /// back to what it was below those arguments; on an error it is left
    /// as it stood, for `call_observed` to truncate.
    #[allow(clippy::too_many_lines)]
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
        let bm = self.block_map(func_id);
        self.stack.resize(base + func.locals as usize, Value::Null);
        let mut pc: usize = 0;

        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                self.stack.push(v)
            }};
        }
        macro_rules! pop {
            () => {
                self.stack
                    .pop()
                    .expect("verified bytecode cannot underflow")
            };
        }
        macro_rules! local {
            ($l:expr) => {
                self.stack[base + $l as usize]
            };
        }

        loop {
            if self.fuel == 0 {
                return Err(VmError::FuelExhausted);
            }
            self.fuel -= 1;
            if let Some(b) = bm.start_of[pc] {
                obs.on_block(func_id, b);
            }
            let instr = func.code[pc];
            match instr {
                Instr::Null => push!(Value::Null),
                Instr::True => push!(Value::Bool(true)),
                Instr::False => push!(Value::Bool(false)),
                Instr::Int(v) => push!(Value::Int(v)),
                Instr::Double(v) => push!(Value::Float(v)),
                Instr::Str(s) => push!(Value::str(self.repo.str(s))),
                Instr::LitArr(a) => push!(crate::classes::materialize_lit_array(self.repo, a)),
                Instr::Pop => {
                    let _ = pop!();
                }
                Instr::Dup => push!(self.stack.last().expect("verified").clone()),
                Instr::GetL(l) => push!(local!(l).clone()),
                Instr::SetL(l) => local!(l) = pop!(),
                Instr::IncL(l, d) => match local!(l) {
                    Value::Int(i) => {
                        local!(l) = Value::Int(i.wrapping_add(d as i64));
                        push!(Value::Int(i));
                    }
                    ref other => {
                        return Err(VmError::TypeError {
                            func: func_id,
                            at: pc as u32,
                            detail: format!("incl on {}", other.type_name()),
                        })
                    }
                },
                Instr::Bin(op) => {
                    let [a, b] = &self.stack[self.stack.len() - 2..] else {
                        unreachable!("verified bytecode cannot underflow")
                    };
                    obs.on_type_observed(func_id, pc as u32, 0, ValueKind::of(a));
                    obs.on_type_observed(func_id, pc as u32, 1, ValueKind::of(b));
                    // Two ints: the result overwrites the left operand.
                    let fast = match (a, b) {
                        (&Value::Int(x), &Value::Int(y)) => int_binop(op, x, y),
                        _ => None,
                    };
                    match fast {
                        Some(v) => {
                            self.stack.pop();
                            *self.stack.last_mut().expect("verified") = v;
                        }
                        None => {
                            let b = pop!();
                            let a = pop!();
                            push!(self.binop(func_id, pc as u32, op, a, b)?);
                        }
                    }
                }
                Instr::Un(op) => {
                    let a = pop!();
                    let v = match (op, &a) {
                        (bytecode::UnOp::Not, _) => Value::Bool(!a.truthy()),
                        (bytecode::UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
                        (bytecode::UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                        (bytecode::UnOp::BitNot, Value::Int(i)) => Value::Int(!i),
                        _ => {
                            return Err(VmError::TypeError {
                                func: func_id,
                                at: pc as u32,
                                detail: format!("{} on {}", op.mnemonic(), a.type_name()),
                            })
                        }
                    };
                    push!(v);
                }
                Instr::Jmp(t) => {
                    pc = t as usize;
                    continue;
                }
                Instr::JmpZ(t) => {
                    let c = pop!();
                    self.stats.branches += 1;
                    let taken = !c.truthy();
                    obs.on_branch(func_id, pc as u32, taken);
                    if taken {
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::JmpNZ(t) => {
                    let c = pop!();
                    self.stats.branches += 1;
                    let taken = c.truthy();
                    obs.on_branch(func_id, pc as u32, taken);
                    if taken {
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::Call { func: callee, argc } => {
                    self.stats.calls += 1;
                    obs.on_call(func_id, pc as u32, callee);
                    let ret = self.exec(callee, argc as usize, None, obs, depth + 1)?;
                    push!(ret);
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
                                at: pc as u32,
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
                    obs.on_call(func_id, pc as u32, method);
                    let ret = self.exec(method, argc as usize, Some(obj), obs, depth + 1)?;
                    self.stack[recv_at] = ret;
                }
                Instr::CallBuiltin { builtin, argc } => {
                    let at = self.stack.len() - argc as usize;
                    let ret = call_builtin(self.repo, builtin, &self.stack[at..], &mut self.output)
                        .map_err(|e| match e {
                            VmError::TypeError { detail, .. } => VmError::TypeError {
                                func: func_id,
                                at: pc as u32,
                                detail,
                            },
                            other => other,
                        })?;
                    self.stack.truncate(at);
                    push!(ret);
                }
                Instr::Ret => {
                    let v = pop!();
                    obs.on_func_exit(func_id);
                    self.stack.truncate(base);
                    return Ok(v);
                }
                Instr::NewObj(class) => {
                    self.stats.allocations += 1;
                    let unit = self.repo.class(class).unit;
                    self.loader.ensure_loaded(self.repo, unit);
                    let obj = self.classes.instantiate(self.repo, class);
                    push!(Value::Obj(Rc::new(std::cell::RefCell::new(obj))));
                }
                Instr::GetProp(name) => {
                    self.stats.prop_reads += 1;
                    let recv = pop!();
                    let obj = as_object(func_id, pc as u32, recv)?;
                    let class = obj.borrow().class;
                    obs.on_prop_access(func_id, pc as u32, class, name, false);
                    let slot = self.prop_slot(class, name)?;
                    let v = obj.borrow().slots[slot].clone();
                    push!(v);
                }
                Instr::SetProp(name) => {
                    self.stats.prop_writes += 1;
                    let value = pop!();
                    let recv = pop!();
                    let obj = as_object(func_id, pc as u32, recv)?;
                    let class = obj.borrow().class;
                    obs.on_prop_access(func_id, pc as u32, class, name, true);
                    let slot = self.prop_slot(class, name)?;
                    obj.borrow_mut().slots[slot] = value;
                }
                Instr::This => match &this {
                    Some(o) => push!(Value::Obj(o.clone())),
                    None => return Err(VmError::NoThis { func: func_id }),
                },
                Instr::NewVec(n) => {
                    let items = split_args(&mut self.stack, n as usize);
                    push!(Value::vec(items));
                }
                Instr::NewDict(n) => {
                    let mut items = split_args(&mut self.stack, 2 * n as usize);
                    let mut pairs = Vec::with_capacity(n as usize);
                    for chunk in items.chunks_exact_mut(2) {
                        let k = chunk[0].as_dict_key().ok_or_else(|| VmError::TypeError {
                            func: func_id,
                            at: pc as u32,
                            detail: format!("dict key of type {}", chunk[0].type_name()),
                        })?;
                        pairs.push((k, std::mem::take(&mut chunk[1])));
                    }
                    push!(Value::dict(pairs));
                }
                Instr::Idx => {
                    let key = pop!();
                    let container = pop!();
                    push!(index_get(func_id, pc as u32, &container, &key)?);
                }
                Instr::SetIdx => {
                    let value = pop!();
                    let key = pop!();
                    let container = pop!();
                    index_set(func_id, pc as u32, &container, &key, value)?;
                    push!(container);
                }
            }
            pc += 1;
        }
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

/// `op` on two ints, for the ops whose int case [`Vm::binop`] computes
/// without a branch of its own: wrapping arithmetic and `loose_cmp` /
/// `loose_eq`, which on two ints are the integer comparisons. `None`
/// sends the rest (`div`, `mod`, `concat`, the bit ops) to `binop`.
#[inline]
fn int_binop(op: bytecode::BinOp, x: i64, y: i64) -> Option<Value> {
    use bytecode::BinOp::*;
    Some(match op {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y),
        Eq => Value::Bool(x == y),
        Neq => Value::Bool(x != y),
        _ => return None,
    })
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
            let i = key.coerce_to_int();
            if i < 0 || i as usize >= s.len() {
                return Err(VmError::IndexError {
                    detail: format!("string index {i} out of range"),
                });
            }
            Ok(Value::str(&s[i as usize..i as usize + 1]))
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
    use bytecode::{BinOp, Builtin, FuncBuilder, Literal, RepoBuilder, UnOp, Visibility};

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
