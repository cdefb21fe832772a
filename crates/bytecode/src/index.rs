//! The release index: facts every layer reads off an immutable repo.
//!
//! A repo is built offline and deployed whole (paper §II-A), so what the
//! VM, the profile collector, the JIT, the fleet model, the linter and
//! the stale-profile repair derive from a function's code is the same for
//! the life of the release. The repo derives each function's
//! [`FuncFacts`] once, on first read ([`Repo::facts`]), and the whole-repo
//! call graph likewise ([`Repo::call_graph`]).

use crate::cfg::{fnv_str, Cfg};
use crate::ids::FuncId;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::{BinOp, Builtin, Instr};
    use crate::literal::{LitArray, Literal};
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
}
