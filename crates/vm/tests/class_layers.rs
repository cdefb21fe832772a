//! The property layout rule's edge cases (paper §V-C: properties are
//! reordered only within each layer of the class hierarchy), pinned
//! through the table's public surface: the slots and defaults of a fresh
//! object, `slot_by_name`, and method dispatch through the interpreter.

use bytecode::{ClassId, FuncBuilder, Instr, LitArray, Literal, Repo, RepoBuilder, Visibility};
use vm::{ClassTable, Value, Vm};

fn prop(name: &str, default: Literal) -> (String, Literal, Visibility) {
    (name.into(), default, Visibility::Public)
}

/// `Base { a = 1, b = 2 }`, and `Kid extends Base` redeclaring `a` with a
/// string default beside its own `c` (a literal array) and `d`.
fn redeclaring() -> (Repo, ClassId, ClassId) {
    let mut b = RepoBuilder::new();
    let u = b.declare_unit("layers.hl");
    let s = b.intern("kid-a");
    let arr = b.add_lit_array(LitArray::Vec(vec![Literal::Int(7)]));
    b.intern("nowhere");
    let base = b.declare_class(
        u,
        "Base",
        None,
        vec![prop("a", Literal::Int(1)), prop("b", Literal::Int(2))],
    );
    let kid = b.declare_class(
        u,
        "Kid",
        Some(base),
        vec![
            prop("a", Literal::Str(s)),
            prop("c", Literal::Arr(arr)),
            prop("d", Literal::Float(0.5)),
        ],
    );
    (b.finish(), base, kid)
}

fn slots_by_name(repo: &Repo, table: &mut ClassTable, class: ClassId) -> Vec<(String, usize)> {
    let rc = table.resolve(repo, class);
    let mut out: Vec<(String, usize)> = rc
        .layout
        .slot_by_name
        .iter()
        .map(|(&n, &slot)| (repo.str(n).to_owned(), slot))
        .collect();
    out.sort();
    out
}

fn named(pairs: &[(&str, usize)]) -> Vec<(String, usize)> {
    pairs.iter().map(|&(n, s)| (n.to_owned(), s)).collect()
}

#[test]
fn a_redeclared_property_gets_a_slot_in_each_layer_and_the_derived_default() {
    let (repo, base, kid) = redeclaring();
    let mut table = ClassTable::new(&repo);
    // The base layer keeps both of its slots; the redeclaring layer adds a
    // third slot named `a`, which the name resolves to. Every slot named
    // `a` starts with the most derived default.
    let kid_a = Value::str("kid-a");
    let c = Value::vec(vec![Value::Int(7)]);
    let obj = table.instantiate(&repo, kid);
    assert_eq!(
        obj.slots,
        vec![kid_a.clone(), Value::Int(2), kid_a, c, Value::Float(0.5)]
    );
    assert_eq!(
        slots_by_name(&repo, &mut table, kid),
        named(&[("a", 2), ("b", 1), ("c", 3), ("d", 4)])
    );
    // The base class is untouched by its subclass.
    let obj = table.instantiate(&repo, base);
    assert_eq!(obj.slots, vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(
        slots_by_name(&repo, &mut table, base),
        named(&[("a", 0), ("b", 1)])
    );
}

#[test]
fn a_redeclared_property_is_reordered_within_its_own_layer() {
    let (repo, _, kid) = redeclaring();
    let mut table = ClassTable::new(&repo);
    let [a, d] = ["a", "d"].map(|n| repo.str_id(n).unwrap());
    table.install_prop_orders([(kid, vec![d, a])]);
    let kid_a = Value::str("kid-a");
    let obj = table.instantiate(&repo, kid);
    assert_eq!(
        obj.slots,
        vec![
            kid_a.clone(),
            Value::Int(2),
            Value::Float(0.5),
            kid_a,
            Value::vec(vec![Value::Int(7)]),
        ]
    );
    assert_eq!(
        slots_by_name(&repo, &mut table, kid),
        named(&[("a", 3), ("b", 1), ("c", 4), ("d", 2)])
    );
}

#[test]
fn an_order_naming_inherited_or_unknown_properties_drops_those_names() {
    let (repo, base, kid) = redeclaring();
    let mut table = ClassTable::new(&repo);
    // `b` is inherited and not redeclared and `nowhere` is no property:
    // the kid's order keeps only `d` and `c` and appends its unlisted `a`,
    // the base's keeps `b` and appends `a`.
    let [b, c, d, nowhere] = ["b", "c", "d", "nowhere"].map(|n| repo.str_id(n).unwrap());
    table.install_prop_order(kid, vec![b, nowhere, d, c]);
    table.install_prop_order(base, vec![nowhere, b]);
    assert_eq!(
        slots_by_name(&repo, &mut table, kid),
        named(&[("a", 4), ("b", 0), ("c", 3), ("d", 2)])
    );
    assert_eq!(
        slots_by_name(&repo, &mut table, base),
        named(&[("a", 1), ("b", 0)])
    );
    let obj = table.instantiate(&repo, base);
    assert_eq!(obj.slots, vec![Value::Int(2), Value::Int(1)]);
    let obj = table.instantiate(&repo, kid);
    let kid_a = Value::str("kid-a");
    assert_eq!(
        obj.slots,
        vec![
            Value::Int(2),
            kid_a.clone(),
            Value::Float(0.5),
            Value::vec(vec![Value::Int(7)]),
            kid_a,
        ]
    );
}

/// `Top` defines `f`, `g` and `h`; `Mid extends Top` overrides `g`;
/// `Low extends Mid` overrides `f`, two layers below its definition.
/// `call_k` calls method `k` on a fresh object of each class in turn and
/// sums the results, weighted by layer.
#[test]
fn a_method_override_two_layers_down_wins_over_every_ancestor() {
    let mut b = RepoBuilder::new();
    let u = b.declare_unit("methods.hl");
    let top = b.declare_class(u, "Top", None, vec![]);
    let mid = b.declare_class(u, "Mid", Some(top), vec![]);
    let low = b.declare_class(u, "Low", Some(mid), vec![]);
    let method = |b: &mut RepoBuilder, class: ClassId, name: &str, ret: i64| {
        let mut m = FuncBuilder::new(name, 0);
        m.emit(Instr::Int(ret));
        m.emit(Instr::Ret);
        b.define_method(u, class, m);
    };
    method(&mut b, top, "Top::f", 1);
    method(&mut b, top, "Top::g", 2);
    method(&mut b, top, "Top::h", 3);
    method(&mut b, mid, "Mid::g", 20);
    method(&mut b, low, "Low::f", 100);
    let names = ["f", "g", "h"].map(|n| b.intern(n));
    for (name, callee) in ["call_f", "call_g", "call_h"].into_iter().zip(names) {
        let mut f = FuncBuilder::new(name, 0);
        for (class, weight) in [(top, 1), (mid, 1_000), (low, 1_000_000)] {
            f.emit(Instr::NewObj(class));
            f.emit(Instr::CallMethod {
                name: callee,
                argc: 0,
            });
            f.emit(Instr::Int(weight));
            f.emit(Instr::Bin(bytecode::BinOp::Mul));
        }
        f.emit(Instr::Bin(bytecode::BinOp::Add));
        f.emit(Instr::Bin(bytecode::BinOp::Add));
        f.emit(Instr::Ret);
        b.define_func(u, f);
    }
    let repo = b.finish();
    let mut vm = Vm::new(&repo);
    let mut call = |name: &str| vm.call_by_name(name, &[]).unwrap();
    // Top, Mid and Low's answers, one per group of three digits.
    assert_eq!(call("call_f"), Value::Int(100_001_001));
    assert_eq!(call("call_g"), Value::Int(20_020_002));
    assert_eq!(call("call_h"), Value::Int(3_003_003));
}
