//! The fused bodies against unfused ones: a recording observer must see
//! the same events, in the same order and with the same `at`, and every
//! call must return the same value or error and leave the same
//! [`ExecStats`], whatever the operands and however little fuel is left.

use std::cell::RefCell;
use std::rc::Rc;

use bytecode::{BinOp, BlockId, ClassId, FuncBuilder, FuncId, Instr, Repo, RepoBuilder, StrId};
use workload::{generate, AppParams};

use super::{Body, Op, Src, Tail};
use crate::{ExecObserver, ExecStats, Object, Value, ValueKind, Vm, VmError, VmOptions};

#[derive(Clone, Debug, PartialEq)]
enum Event {
    // Arguments by their `Debug` text: an object made by one VM is not
    // `==` to its twin made by the other.
    Enter(FuncId, Vec<String>),
    Block(FuncId, BlockId),
    Branch(FuncId, u32, bool),
    Call(FuncId, u32, FuncId),
    Prop(FuncId, u32, ClassId, StrId, bool),
    Type(FuncId, u32, u8, ValueKind),
    BinTypes(FuncId, u32, ValueKind, ValueKind),
    Exit(FuncId),
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl ExecObserver for Recorder {
    fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
        let args = args.iter().map(|a| format!("{a:?}")).collect();
        self.0.push(Event::Enter(func, args));
    }

    fn on_block(&mut self, func: FuncId, block: BlockId) {
        self.0.push(Event::Block(func, block));
    }

    fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
        self.0.push(Event::Branch(func, at, taken));
    }

    fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
        self.0.push(Event::Call(caller, at, callee));
    }

    fn on_prop_access(&mut self, func: FuncId, at: u32, class: ClassId, prop: StrId, w: bool) {
        self.0.push(Event::Prop(func, at, class, prop, w));
    }

    fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
        self.0.push(Event::Type(func, at, slot, kind));
    }

    fn on_bin_types(&mut self, func: FuncId, at: u32, a: ValueKind, b: ValueKind) {
        self.0.push(Event::BinTypes(func, at, a, b));
    }

    fn on_func_exit(&mut self, func: FuncId) {
        self.0.push(Event::Exit(func));
    }
}

/// What one call shows: its result (as `Debug` text) or error, its
/// events, the stats it added and the output it printed.
type Seen = (Result<String, VmError>, Vec<Event>, ExecStats, String);

fn observe(vm: &mut Vm<'_>, func: FuncId, args: &[Value]) -> Seen {
    let before = vm.stats();
    let mut rec = Recorder::default();
    let result = vm.call_observed(func, args, &mut rec);
    let after = vm.stats();
    let stats = ExecStats {
        instrs: after.instrs - before.instrs,
        calls: after.calls - before.calls,
        branches: after.branches - before.branches,
        prop_reads: after.prop_reads - before.prop_reads,
        prop_writes: after.prop_writes - before.prop_writes,
        allocations: after.allocations - before.allocations,
    };
    let result = result.map(|v| format!("{v:?}"));
    (result, rec.0, stats, vm.take_output())
}

/// Runs every call on a fused and an unfused VM, in order, and asserts
/// each shows the same; returns what the fused VM saw.
fn differential(repo: &Repo, options: VmOptions, calls: &[(FuncId, Vec<Value>)]) -> Vec<Seen> {
    let mut fused = Vm::with_options(repo, options);
    let mut unfused = Vm::unfused(repo, options);
    calls
        .iter()
        .map(|(func, args)| {
            let seen = observe(&mut fused, *func, args);
            assert_eq!(seen, observe(&mut unfused, *func, args), "{func:?}{args:?}");
            seen
        })
        .collect()
}

fn repo_of(funcs: Vec<FuncBuilder>) -> Repo {
    let mut b = RepoBuilder::new();
    let u = b.declare_unit("t.hl");
    for f in funcs {
        b.define_func(u, f);
    }
    b.finish()
}

const ROOMY: VmOptions = VmOptions {
    fuel: 10_000_000,
    max_depth: 64,
};

#[test]
fn every_endpoint_of_the_generated_apps_runs_as_unfused() {
    for params in [AppParams::tiny(), AppParams::bench()] {
        let app = generate(&params);
        let calls: Vec<_> = app
            .endpoints
            .iter()
            .flat_map(|ep| [0, 1, 7, 500, 999].map(|arg| (ep.func, vec![Value::Int(arg)])))
            .collect();
        let seen = differential(&app.repo, ROOMY, &calls);
        let fused = app
            .repo
            .funcs()
            .iter()
            .flat_map(|f| Body::build(&app.repo, f.id).ops)
            .filter(|op| matches!(op, Op::Bin { len, .. } if *len > 1))
            .count();
        assert!(fused > 100, "seed {}: {fused} fused groups", params.seed);
        assert!(seen.iter().all(|(r, ..)| r.is_ok()));
    }
}

// f(x): 1 + x when x == 0, else 10 + x, through one `GetL 0; Bin Add;
// SetL 1` whose `GetL` both paths reach: the jump lands inside what would
// otherwise be the group `Int 10; GetL 0; Bin Add; SetL 1`.
fn join_inside_a_run() -> FuncBuilder {
    let mut f = FuncBuilder::new("join", 1);
    let sum = f.new_local();
    let join = f.new_label();
    f.emit(Instr::Int(1));
    f.emit(Instr::GetL(0));
    f.emit_jmp_z(join);
    f.emit(Instr::Pop);
    f.emit(Instr::Int(10));
    f.bind(join);
    f.emit(Instr::GetL(0));
    f.emit(Instr::Bin(BinOp::Add));
    f.emit(Instr::SetL(sum));
    f.emit(Instr::GetL(sum));
    f.emit(Instr::Ret);
    f
}

#[test]
fn a_jump_into_a_fusible_run_splits_the_group() {
    let repo = repo_of(vec![join_inside_a_run()]);
    let f = FuncId::new(0);
    let ops = Body::build(&repo, f).ops;
    // The `Int 10` stays alone; the group starts at the jump target.
    let join_block = ops
        .iter()
        .position(|op| *op == Op::PushInt(10))
        .expect("the lone push")
        + 1;
    assert!(matches!(ops[join_block], Op::Block(_)));
    assert_eq!(
        ops[join_block + 1],
        Op::Bin {
            a: Src::Stack,
            b: Src::Local(0),
            op: BinOp::Add,
            tail: Tail::SetL(1),
            at: 6,
            len: 3,
        }
    );
    let seen = differential(
        &repo,
        ROOMY,
        &[(f, vec![Value::Int(0)]), (f, vec![Value::Int(5)])],
    );
    assert_eq!(seen[0].0.as_deref(), Ok("Int(1)"));
    assert_eq!(seen[1].0.as_deref(), Ok("Int(15)"));
}

#[test]
fn a_group_of_two_immediates_needs_no_frame() {
    // `return 2 + 3` with no locals and nothing on the stack below.
    let mut f = FuncBuilder::new("five", 0);
    f.emit(Instr::Int(2));
    f.emit(Instr::Int(3));
    f.emit(Instr::Bin(BinOp::Add));
    f.emit(Instr::Ret);
    let repo = repo_of(vec![f]);
    let seen = differential(&repo, ROOMY, &[(FuncId::new(0), vec![])]);
    assert_eq!(seen[0].0.as_deref(), Ok("Int(5)"));
}

// loop(n): s = 0; i = 0; while (i < n) { s = s + step(i) % 7; i = i + 1 }
// return s, with step(x) = x * 3 + 1: every group shape, a call in the
// loop, and branches both ways.
fn looping() -> Vec<FuncBuilder> {
    let mut step = FuncBuilder::new("step", 1);
    step.emit(Instr::GetL(0));
    step.emit(Instr::Int(3));
    step.emit(Instr::Bin(BinOp::Mul));
    step.emit(Instr::Int(1));
    step.emit(Instr::Bin(BinOp::Add));
    step.emit(Instr::Ret);
    let mut f = FuncBuilder::new("loop", 1);
    let (s, i) = (f.new_local(), f.new_local());
    let (top, out) = (f.new_label(), f.new_label());
    f.emit(Instr::Int(0));
    f.emit(Instr::SetL(s));
    f.emit(Instr::Int(0));
    f.emit(Instr::SetL(i));
    f.bind(top);
    f.emit(Instr::GetL(i));
    f.emit(Instr::GetL(0));
    f.emit(Instr::Bin(BinOp::Lt));
    f.emit_jmp_z(out);
    f.emit(Instr::GetL(s));
    f.emit(Instr::GetL(i));
    f.emit(Instr::Call {
        func: FuncId::new(0),
        argc: 1,
    });
    f.emit(Instr::Int(7));
    f.emit(Instr::Bin(BinOp::Mod));
    f.emit(Instr::Bin(BinOp::Add));
    f.emit(Instr::SetL(s));
    f.emit(Instr::GetL(i));
    f.emit(Instr::Int(1));
    f.emit(Instr::Bin(BinOp::Add));
    f.emit(Instr::SetL(i));
    f.emit_jmp(top);
    f.bind(out);
    f.emit(Instr::GetL(s));
    f.emit(Instr::Ret);
    vec![step, f]
}

#[test]
fn every_fuel_budget_runs_out_at_the_same_instruction() {
    let repo = repo_of(looping());
    let f = FuncId::new(1);
    let args = vec![Value::Int(6)];
    let full = differential(&repo, ROOMY, &[(f, args.clone())]);
    let cost = full[0].2.instrs;
    assert_eq!(full[0].0.as_deref(), Ok("Int(16)"));
    for fuel in 0..=cost + 1 {
        let options = VmOptions {
            fuel,
            max_depth: 16,
        };
        let seen = differential(&repo, options, &[(f, args.clone())]);
        let (result, _, stats, _) = &seen[0];
        assert_eq!(stats.instrs, fuel.min(cost), "fuel {fuel}");
        assert_eq!(
            *result == Err(VmError::FuelExhausted),
            fuel < cost,
            "fuel {fuel}"
        );
    }
}

// sub_mod(a, b): (a - b) % b, each op a fused group: `GetL GetL Sub SetL`,
// then `GetL GetL Mod`.
fn sub_mod() -> FuncBuilder {
    let mut f = FuncBuilder::new("sub_mod", 2);
    let d = f.new_local();
    f.emit(Instr::GetL(0));
    f.emit(Instr::GetL(1));
    f.emit(Instr::Bin(BinOp::Sub));
    f.emit(Instr::SetL(d));
    f.emit(Instr::GetL(d));
    f.emit(Instr::GetL(1));
    f.emit(Instr::Bin(BinOp::Mod));
    f.emit(Instr::Ret);
    f
}

// compare(a, b): 1 when a == b, 2 when a < b, else 3, through fused
// `GetL GetL Eq JmpZ` and `GetL GetL Lt JmpNZ` groups.
fn compare() -> FuncBuilder {
    let mut f = FuncBuilder::new("compare", 2);
    let (differ, less) = (f.new_label(), f.new_label());
    f.emit(Instr::GetL(0));
    f.emit(Instr::GetL(1));
    f.emit(Instr::Bin(BinOp::Eq));
    f.emit_jmp_z(differ);
    f.emit(Instr::Int(1));
    f.emit(Instr::Ret);
    f.bind(differ);
    f.emit(Instr::GetL(0));
    f.emit(Instr::GetL(1));
    f.emit(Instr::Bin(BinOp::Lt));
    f.emit_jmp_nz(less);
    f.emit(Instr::Int(3));
    f.emit(Instr::Ret);
    f.bind(less);
    f.emit(Instr::Int(2));
    f.emit(Instr::Ret);
    f
}

#[test]
fn errors_inside_a_group_name_its_instruction() {
    let repo = repo_of(vec![sub_mod()]);
    let f = FuncId::new(0);
    let seen = differential(
        &repo,
        ROOMY,
        &[
            (f, vec![Value::str("s"), Value::Int(1)]),
            (f, vec![Value::Int(5), Value::Int(0)]),
            (f, vec![Value::Int(9), Value::Int(4)]),
        ],
    );
    assert!(matches!(seen[0].0, Err(VmError::TypeError { func, at: 2, .. }) if func == f));
    assert_eq!(seen[1].0, Err(VmError::DivisionByZero { func: f, at: 6 }));
    assert_eq!(seen[2].0.as_deref(), Ok("Int(1)"));
    // The failed calls charged the instructions up to the failing one.
    assert_eq!([seen[0].2.instrs, seen[1].2.instrs], [3, 7]);
}

#[test]
fn strings_floats_and_objects_take_the_instruction_path() {
    let repo = repo_of(vec![sub_mod(), compare()]);
    let (sub_mod, compare) = (FuncId::new(0), FuncId::new(1));
    let obj = Value::Obj(Rc::new(RefCell::new(Object {
        class: ClassId::new(0),
        slots: Vec::new(),
    })));
    let operands = [
        Value::Float(2.5),
        Value::str("7"),
        Value::str("é"),
        Value::Int(2),
        Value::Bool(true),
        Value::Null,
        obj,
    ];
    let mut calls = Vec::new();
    for f in [sub_mod, compare] {
        for a in &operands {
            for b in &operands {
                calls.push((f, vec![a.clone(), b.clone()]));
            }
        }
    }
    let seen = differential(&repo, ROOMY, &calls);
    assert!(seen
        .iter()
        .any(|(r, ..)| matches!(r, Err(VmError::TypeError { .. }))));
    assert!(seen.iter().any(|(r, ..)| r.as_deref() == Ok("Int(2)")));
    assert!(seen.iter().any(|(_, events, ..)| events
        .iter()
        .any(|e| matches!(e, Event::BinTypes(_, _, ValueKind::Obj, ValueKind::Str)))));
}

#[test]
fn a_dyn_observer_sees_what_a_generic_one_sees() {
    let repo = repo_of(looping());
    let f = FuncId::new(1);
    let mut vm = Vm::new(&repo);
    let mut generic = Recorder::default();
    let want = vm.call_observed(f, &[Value::Int(5)], &mut generic);
    let mut dynamic = Recorder::default();
    let obs: &mut dyn ExecObserver = &mut dynamic;
    assert_eq!(vm.call_observed(f, &[Value::Int(5)], obs), want);
    assert_eq!(dynamic.0, generic.0);
    assert!(generic
        .0
        .iter()
        .any(|e| matches!(e, Event::BinTypes(_, _, ValueKind::Int, ValueKind::Int))));
}

// mix(s, j): while (s < 40) { s = s + j * 3; j = s - (j & 7) } return s,
// through three-operand runs (`GetL; GetL Int Mul; Add` and
// `GetL; GetL Int BitAnd; Sub`), one stored and one handed to a `SetL`,
// inside a loop whose test is an immediate group.
fn three_operand() -> FuncBuilder {
    let mut f = FuncBuilder::new("mix", 2);
    let (top, out) = (f.new_label(), f.new_label());
    f.bind(top);
    f.emit(Instr::GetL(0));
    f.emit(Instr::Int(40));
    f.emit(Instr::Bin(BinOp::Lt));
    f.emit_jmp_z(out);
    f.emit(Instr::GetL(0));
    f.emit(Instr::GetL(1));
    f.emit(Instr::Int(3));
    f.emit(Instr::Bin(BinOp::Mul));
    f.emit(Instr::Bin(BinOp::Add));
    f.emit(Instr::SetL(0));
    f.emit(Instr::GetL(0));
    f.emit(Instr::GetL(1));
    f.emit(Instr::Int(7));
    f.emit(Instr::Bin(BinOp::BitAnd));
    f.emit(Instr::Bin(BinOp::Sub));
    f.emit(Instr::SetL(1));
    f.emit_jmp(top);
    f.bind(out);
    f.emit(Instr::GetL(0));
    f.emit(Instr::Ret);
    f
}

#[test]
fn three_operand_runs_match_unfused_at_every_fuel_budget_and_operand() {
    let repo = repo_of(vec![three_operand()]);
    let f = FuncId::new(0);
    let fused = Body::build(&repo, f).ops;
    assert_eq!(
        fused
            .iter()
            .filter(|op| matches!(op, Op::BinLLI { .. }))
            .count(),
        2
    );
    let args = vec![Value::Int(1), Value::Int(2)];
    let full = differential(&repo, ROOMY, &[(f, args.clone())]);
    let cost = full[0].2.instrs;
    for fuel in 0..=cost + 1 {
        let options = VmOptions {
            fuel,
            max_depth: 16,
        };
        let seen = differential(&repo, options, &[(f, args.clone())]);
        assert_eq!(seen[0].2.instrs, fuel.min(cost), "fuel {fuel}");
    }
    // A float, string or null operand on either side takes the
    // instruction path, with its errors and events.
    let operands = [
        Value::Int(-9),
        Value::Int(i64::MAX),
        Value::Float(2.5),
        Value::str("4"),
        Value::Null,
    ];
    let mut calls = Vec::new();
    for a in &operands {
        for b in &operands {
            calls.push((f, vec![a.clone(), b.clone()]));
        }
    }
    let seen = differential(&repo, ROOMY, &calls);
    assert!(seen.iter().any(|(r, ..)| r.is_ok()));
    assert!(seen.iter().any(|(r, ..)| r.is_err()));
}

// pick(x): t = 0; if (x % 3 == 1) { t = x * 5 - 2 } return t + x, through
// two-group runs (`GetL Int Mod; Int Eq JmpZ` and `GetL Int Mul; Int Sub
// SetL`).
fn two_group() -> FuncBuilder {
    let mut f = FuncBuilder::new("pick", 1);
    let t = f.new_local();
    let out = f.new_label();
    f.emit(Instr::Int(0));
    f.emit(Instr::SetL(t));
    f.emit(Instr::GetL(0));
    f.emit(Instr::Int(3));
    f.emit(Instr::Bin(BinOp::Mod));
    f.emit(Instr::Int(1));
    f.emit(Instr::Bin(BinOp::Eq));
    f.emit_jmp_z(out);
    f.emit(Instr::GetL(0));
    f.emit(Instr::Int(5));
    f.emit(Instr::Bin(BinOp::Mul));
    f.emit(Instr::Int(2));
    f.emit(Instr::Bin(BinOp::Sub));
    f.emit(Instr::SetL(t));
    f.bind(out);
    f.emit(Instr::GetL(t));
    f.emit(Instr::GetL(0));
    f.emit(Instr::Bin(BinOp::Add));
    f.emit(Instr::Ret);
    f
}

#[test]
fn two_group_runs_match_unfused_at_every_fuel_budget_and_operand() {
    let repo = repo_of(vec![two_group()]);
    let f = FuncId::new(0);
    let fused = Body::build(&repo, f).ops;
    assert_eq!(
        fused
            .iter()
            .filter(|op| matches!(op, Op::BinLIAI { .. }))
            .count(),
        2
    );
    for x in [1, 2] {
        let args = vec![Value::Int(x)];
        let full = differential(&repo, ROOMY, &[(f, args.clone())]);
        let cost = full[0].2.instrs;
        for fuel in 0..=cost + 1 {
            let options = VmOptions {
                fuel,
                max_depth: 16,
            };
            let seen = differential(&repo, options, &[(f, args.clone())]);
            assert_eq!(seen[0].2.instrs, fuel.min(cost), "x {x} fuel {fuel}");
        }
    }
    let operands = [
        Value::Int(-8),
        Value::Int(i64::MIN),
        Value::Float(4.0),
        Value::str("7"),
        Value::Bool(true),
        Value::Null,
    ];
    let calls: Vec<_> = operands.iter().map(|a| (f, vec![a.clone()])).collect();
    let seen = differential(&repo, ROOMY, &calls);
    assert!(seen.iter().any(|(r, ..)| r.is_ok()));
    assert!(seen.iter().any(|(r, ..)| r.is_err()));
}
