//! The release index: facts every layer reads off an immutable repo.
//!
//! A repo is built offline and deployed whole (paper §II-A), so what the
//! VM, the profile collector, the JIT, the fleet model, the linter and
//! the stale-profile repair derive from a function's code is the same for
//! the life of the release. The repo derives each function's
//! [`FuncFacts`] and each class's [`ClassFacts`] once, on first read
//! ([`Repo::facts`], [`Repo::class_facts`]), and the whole-repo call graph
//! likewise ([`Repo::call_graph`]).

use std::collections::HashMap;
use std::ops::Range;

use crate::cfg::{fnv_str, Cfg};
use crate::ids::{ClassId, FuncId, StrId};
use crate::literal::Literal;
use crate::repo::Repo;

/// What the release index holds for one function.
#[derive(Debug, PartialEq, Eq)]
pub struct FuncFacts {
    /// The function's control-flow graph.
    pub cfg: Cfg,
    /// Structural hash of every block, by block id: opcodes, immediates
    /// resolved to the content they name, and the successor shape, but no
    /// jump-target index, so an untouched block keeps its hash across
    /// builds (stale-profile repair, paper §VI).
    pub block_hashes: Vec<u64>,
    /// Opcode-only hash of every block, by block id: opcode tags and the
    /// successor shape. The second rung of the stale-matching ladder.
    pub block_opcode_hashes: Vec<u64>,
    /// [`fnv_str`] of the function's name: a build-stable identity.
    pub name_hash: u64,
}

impl FuncFacts {
    pub(crate) fn derive(repo: &Repo, id: FuncId) -> FuncFacts {
        let func = repo.func(id);
        let cfg = Cfg::build(func);
        FuncFacts {
            block_hashes: cfg.block_hashes(func, repo),
            block_opcode_hashes: cfg.block_opcode_hashes(func),
            name_hash: fnv_str(repo.str(func.name)),
            cfg,
        }
    }
}

/// One property slot of a class's logical layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PropSlot {
    /// The property's name.
    pub name: StrId,
    /// The class that declares it: the slot's layer.
    pub class: ClassId,
    /// The value an object of the class starts with in this slot: the
    /// default of the most derived declaration of the name, so a
    /// redeclared property starts equal in every layer that declares it.
    pub default: Literal,
}

/// What the release index holds for one class: its layers (paper §V-C:
/// properties are reordered "only within each layer of the class
/// hierarchy"), fixed for the release.
#[derive(Debug, PartialEq)]
pub struct ClassFacts {
    /// The class and its ancestors, the root first.
    pub ancestry: Vec<ClassId>,
    /// Every property slot in logical order: each layer's declared
    /// properties in source order, the root's layer first. A property a
    /// subclass redeclares has a slot in each declaring layer.
    pub slots: Vec<PropSlot>,
    /// The class's own layer, as a range of [`ClassFacts::slots`]: always
    /// the last one.
    pub own: Range<usize>,
    /// The resolved method table, by bare method name: inherited methods
    /// included, overrides applied.
    pub methods: HashMap<StrId, FuncId>,
}

impl ClassFacts {
    /// The slots of the class's own layer.
    pub fn own_slots(&self) -> &[PropSlot] {
        &self.slots[self.own.clone()]
    }

    /// Extends the parent's facts, read from the index, by the class's
    /// own layer.
    pub(crate) fn derive(repo: &Repo, id: ClassId) -> ClassFacts {
        let class = repo.class(id);
        let (mut ancestry, mut slots, mut methods) = match class.parent {
            Some(p) => {
                let parent = repo.class_facts(p);
                (
                    parent.ancestry.clone(),
                    parent.slots.clone(),
                    parent.methods.clone(),
                )
            }
            None => (Vec::new(), Vec::new(), HashMap::new()),
        };
        ancestry.push(id);
        let start = slots.len();
        for p in &class.props {
            for s in slots.iter_mut().filter(|s| s.name == p.name) {
                s.default = p.default;
            }
            slots.push(PropSlot {
                name: p.name,
                class: id,
                default: p.default,
            });
        }
        methods.extend(class.methods.iter().copied());
        ClassFacts {
            ancestry,
            own: start..slots.len(),
            slots,
            methods,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::{BinOp, Builtin, Instr};
    use crate::literal::LitArray;
    use crate::program::Visibility;
    use crate::repo::RepoBuilder;

    /// A repo whose functions hold every instruction and literal kind the
    /// block hashes resolve: strings, literal arrays (nested, dict keys),
    /// static, method and builtin calls, objects and properties.
    fn sample_repo() -> Repo {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("facts.hl");
        let key = b.intern("k");
        let s = b.intern("text");
        let inner = b.add_lit_array(LitArray::Vec(vec![Literal::Float(0.5), Literal::Null]));
        let arr = b.add_lit_array(LitArray::Dict(vec![
            (key, Literal::Arr(inner)),
            (s, Literal::Str(s)),
        ]));
        let c = b.declare_class(u, "C", None, vec![]);
        let mut m = FuncBuilder::new("C::run", 0);
        m.emit(Instr::This);
        m.emit(Instr::GetProp(key));
        m.emit(Instr::Ret);
        b.define_method(u, c, m);

        let mut leaf = FuncBuilder::new("leaf", 1);
        let out = leaf.new_label();
        leaf.emit(Instr::GetL(0));
        leaf.emit_jmp_z(out);
        leaf.emit(Instr::IncL(0, -1));
        leaf.bind(out);
        leaf.emit(Instr::GetL(0));
        leaf.emit(Instr::Ret);
        let leaf = b.define_func(u, leaf);

        let mut main = FuncBuilder::new("main", 0);
        let run = b.intern("run");
        main.emit(Instr::Int(3));
        main.emit(Instr::Call {
            func: leaf,
            argc: 1,
        });
        main.emit(Instr::Double(1.5));
        main.emit(Instr::Bin(BinOp::Add));
        main.emit(Instr::Str(s));
        main.emit(Instr::CallBuiltin {
            builtin: Builtin::Print,
            argc: 1,
        });
        main.emit(Instr::Pop);
        main.emit(Instr::NewObj(c));
        main.emit(Instr::CallMethod { name: run, argc: 0 });
        main.emit(Instr::LitArr(arr));
        main.emit(Instr::Pop);
        main.emit(Instr::Ret);
        b.define_func(u, main);
        b.finish()
    }

    #[test]
    fn facts_equal_a_fresh_derivation() {
        let repo = sample_repo();
        for func in repo.funcs() {
            let cfg = Cfg::build(func);
            let want = FuncFacts {
                block_hashes: cfg.block_hashes(func, &repo),
                block_opcode_hashes: cfg.block_opcode_hashes(func),
                name_hash: fnv_str(repo.str(func.name)),
                cfg,
            };
            assert_eq!(repo.facts(func.id), &want, "{}", repo.str(func.name));
            assert_eq!(want.block_hashes.len(), want.cfg.len());
        }
    }

    #[test]
    fn facts_and_the_call_graph_are_derived_once() {
        let repo = sample_repo();
        let main = repo.func_by_name("main").unwrap().id;
        assert!(std::ptr::eq(repo.facts(main), repo.facts(main)));
        assert!(std::ptr::eq(repo.call_graph(), repo.call_graph()));
    }

    /// `Top { a, b }` with methods `f`, `g`; `Mid extends Top { c }`
    /// overriding `g`; `Low extends Mid { a, d }` redeclaring `a` and
    /// overriding `f`; and a lone `Solo { a, a }` declaring `a` twice.
    fn class_repo() -> Repo {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("classes.hl");
        let s = b.intern("low");
        let prop = |n: &str, d| (n.to_owned(), d, Visibility::Public);
        let top = b.declare_class(
            u,
            "Top",
            None,
            vec![prop("a", Literal::Int(1)), prop("b", Literal::Null)],
        );
        let mid = b.declare_class(u, "Mid", Some(top), vec![prop("c", Literal::Bool(true))]);
        let low = b.declare_class(
            u,
            "Low",
            Some(mid),
            vec![prop("a", Literal::Str(s)), prop("d", Literal::Float(0.5))],
        );
        b.declare_class(
            u,
            "Solo",
            None,
            vec![prop("a", Literal::Int(1)), prop("a", Literal::Int(2))],
        );
        for (class, name) in [
            (top, "Top::f"),
            (top, "Top::g"),
            (mid, "Mid::g"),
            (low, "Low::f"),
        ] {
            let mut m = FuncBuilder::new(name, 0);
            m.emit(Instr::Null);
            m.emit(Instr::Ret);
            b.define_method(u, class, m);
        }
        b.finish()
    }

    /// Derives a class's facts by walking `Class::parent`, `props` and
    /// `methods` by hand.
    fn walk(repo: &Repo, id: ClassId) -> ClassFacts {
        let mut ancestry = vec![id];
        while let Some(p) = repo.class(*ancestry.last().unwrap()).parent {
            ancestry.push(p);
        }
        ancestry.reverse();
        let mut slots = Vec::new();
        let mut defaults = HashMap::new();
        let mut methods = HashMap::new();
        for &c in &ancestry {
            for p in &repo.class(c).props {
                slots.push(PropSlot {
                    name: p.name,
                    class: c,
                    default: p.default,
                });
                defaults.insert(p.name, p.default);
            }
            for &(name, f) in &repo.class(c).methods {
                methods.insert(name, f);
            }
        }
        for s in &mut slots {
            s.default = defaults[&s.name];
        }
        let own = slots.len() - repo.class(id).props.len()..slots.len();
        ClassFacts {
            ancestry,
            slots,
            own,
            methods,
        }
    }

    #[test]
    fn class_facts_equal_a_fresh_derivation() {
        for repo in [sample_repo(), class_repo()] {
            for class in repo.classes() {
                let name = repo.str(class.name);
                assert_eq!(repo.class_facts(class.id), &walk(&repo, class.id), "{name}");
            }
        }
        let repo = class_repo();
        let low = repo.class_by_name("Low").unwrap().id;
        let facts = repo.class_facts(low);
        let name = |s: &PropSlot| repo.str(s.name);
        let names: Vec<&str> = facts.slots.iter().map(name).collect();
        assert_eq!(names, ["a", "b", "c", "a", "d"]);
        let own: Vec<&str> = facts.own_slots().iter().map(name).collect();
        assert_eq!(own, ["a", "d"]);
        // Both slots named `a` start with `Low`'s default.
        let low_a = Literal::Str(repo.str_id("low").unwrap());
        assert_eq!(facts.slots[0].default, low_a);
        assert_eq!(facts.slots[3].default, low_a);
    }

    #[test]
    fn methods_inherit_and_override() {
        let repo = class_repo();
        // Methods are not registered by name: find them by their full name.
        let id = |n: &str| {
            repo.funcs()
                .iter()
                .find(|f| repo.str(f.name) == n)
                .map(|f| f.id)
        };
        let table = |c: &str| &repo.class_facts(repo.class_by_name(c).unwrap().id).methods;
        let [f, g] = ["f", "g"].map(|n| repo.str_id(n).unwrap());
        assert_eq!(table("Low").get(&f).copied(), id("Low::f"));
        assert_eq!(table("Low").get(&g).copied(), id("Mid::g"));
        assert_eq!(table("Mid").get(&f).copied(), id("Top::f"));
        assert_eq!(table("Top").get(&g).copied(), id("Top::g"));
    }

    #[test]
    fn class_facts_are_derived_once() {
        let repo = class_repo();
        let low = repo.class_by_name("Low").unwrap().id;
        assert!(std::ptr::eq(repo.class_facts(low), repo.class_facts(low)));
    }
}
