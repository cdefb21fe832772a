//! The whole-repo static call graph: which repo functions each call
//! instruction can dispatch to.
//!
//! Static calls name their callee directly; method calls can reach any
//! function registered as an implementation of that method name on some
//! class (dynamic dispatch — the profile's call-target counters pick among
//! these); builtin calls never reach repo functions. The profile linter
//! uses the graph's over-approximation to reject call arcs no site can
//! produce. A repo builds its graph once, on first read
//! ([`Repo::call_graph`]).

use std::collections::HashMap;

use crate::ids::{FuncId, StrId};
use crate::instr::Instr;
use crate::repo::Repo;

/// Possible targets of every call instruction in a repo.
#[derive(Debug)]
pub struct CallGraph {
    /// Method name → every function registered under it on some class.
    method_impls: HashMap<StrId, Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the graph from the class tables.
    pub(crate) fn build(repo: &Repo) -> CallGraph {
        let mut method_impls: HashMap<StrId, Vec<FuncId>> = HashMap::new();
        for class in repo.classes() {
            for &(name, fid) in &class.methods {
                let impls = method_impls.entry(name).or_default();
                if !impls.contains(&fid) {
                    impls.push(fid);
                }
            }
        }
        CallGraph { method_impls }
    }

    /// Every repo function `instr` can dispatch to: the callee of a static
    /// call, every implementation of a method call's name, and none for
    /// anything else, builtin calls included.
    pub fn targets<'a>(&'a self, instr: &'a Instr) -> &'a [FuncId] {
        match instr {
            Instr::Call { func, .. } => std::slice::from_ref(func),
            Instr::CallMethod { name, .. } => {
                self.method_impls.get(name).map_or(&[], Vec::as_slice)
            }
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::instr::Builtin;
    use crate::repo::RepoBuilder;

    /// helper() and two classes both declaring method "run"; main calls
    /// helper statically and "run" dynamically.
    fn sample_repo() -> Repo {
        let mut b = RepoBuilder::new();
        let unit = b.declare_unit("u.hack");
        let run = b.intern("run");

        let mut helper = FuncBuilder::new("helper", 0);
        helper.emit(Instr::Null);
        helper.emit(Instr::Ret);
        let helper = b.define_func(unit, helper);

        let a = b.declare_class(unit, "A", None, vec![]);
        let mut a_run = FuncBuilder::new("A::run", 0);
        a_run.emit(Instr::Null);
        a_run.emit(Instr::Ret);
        let a_run = b.define_method(unit, a, a_run);

        let c = b.declare_class(unit, "C", None, vec![]);
        let mut c_run = FuncBuilder::new("C::run", 0);
        c_run.emit(Instr::Null);
        c_run.emit(Instr::Ret);
        let c_run = b.define_method(unit, c, c_run);

        let mut main = FuncBuilder::new("main", 0);
        main.emit(Instr::Call {
            func: helper,
            argc: 0,
        }); // 0
        main.emit(Instr::Pop); // 1
        main.emit(Instr::NewObj(a)); // 2
        main.emit(Instr::CallMethod { name: run, argc: 0 }); // 3
        main.emit(Instr::Pop); // 4
        main.emit(Instr::Null); // 5
        main.emit(Instr::CallBuiltin {
            builtin: Builtin::Print,
            argc: 1,
        }); // 6
        main.emit(Instr::Ret); // 7
        b.define_func(unit, main);

        let repo = b.finish();
        // Sanity: ids are stable for the assertions below.
        assert_eq!(helper.index(), 0);
        assert_eq!(a_run.index(), 1);
        assert_eq!(c_run.index(), 2);
        repo
    }

    /// The targets of `main`'s instruction `at`.
    fn targets_at(repo: &Repo, at: usize) -> &[FuncId] {
        let main = repo.func_by_name("main").unwrap();
        repo.call_graph().targets(&main.code[at])
    }

    #[test]
    fn static_sites_have_one_target() {
        let repo = sample_repo();
        assert_eq!(targets_at(&repo, 0), [FuncId::new(0)]);
    }

    #[test]
    fn method_sites_reach_every_implementation() {
        let repo = sample_repo();
        let targets = targets_at(&repo, 3);
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&FuncId::new(1)));
        assert!(targets.contains(&FuncId::new(2)));
        // helper is not a "run" implementation.
        assert!(!targets.contains(&FuncId::new(0)));
    }

    #[test]
    fn builtin_sites_and_non_calls_have_no_targets() {
        let repo = sample_repo();
        assert!(targets_at(&repo, 6).is_empty());
        assert!(targets_at(&repo, 1).is_empty(), "Pop is not a call");
    }
}
