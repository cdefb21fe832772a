//! The whole-repo static call graph.
//!
//! Sites come in three kinds mirroring the call instructions: static
//! calls name their callee directly; method calls can reach any function
//! registered as an implementation of that method name on some class
//! (dynamic dispatch — the profile's call-target counters pick among
//! these); builtin calls never reach repo functions. The linter uses the
//! graph's over-approximation to reject call arcs no site can produce.

use std::collections::HashMap;

use bytecode::{Builtin, FuncId, Instr, Repo, StrId};

/// What a call site can dispatch to, statically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallSiteKind {
    /// `Call`: exactly one callee.
    Static(FuncId),
    /// `CallMethod`: any implementation of the method name.
    Method(StrId),
    /// `CallBuiltin`: never a repo function.
    Builtin(Builtin),
}

/// One call instruction in a function's code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Instruction index of the call.
    pub at: u32,
    /// Static dispatch information.
    pub kind: CallSiteKind,
}

/// Call sites and possible targets for every function in a repo.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Call sites in code order, indexed by `FuncId`.
    sites: Vec<Vec<CallSite>>,
    /// Method name → every function registered under it on some class.
    method_impls: HashMap<StrId, Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the graph by scanning every function and class table.
    pub fn build(repo: &Repo) -> CallGraph {
        let mut method_impls: HashMap<StrId, Vec<FuncId>> = HashMap::new();
        for class in repo.classes() {
            for &(name, fid) in &class.methods {
                let impls = method_impls.entry(name).or_default();
                if !impls.contains(&fid) {
                    impls.push(fid);
                }
            }
        }
        let sites = repo
            .funcs()
            .iter()
            .map(|func| {
                let calls = func.code.iter().enumerate().filter_map(|(i, instr)| {
                    let kind = match *instr {
                        Instr::Call { func: callee, .. } => CallSiteKind::Static(callee),
                        Instr::CallMethod { name, .. } => CallSiteKind::Method(name),
                        Instr::CallBuiltin { builtin, .. } => CallSiteKind::Builtin(builtin),
                        _ => return None,
                    };
                    Some(CallSite { at: i as u32, kind })
                });
                calls.collect()
            })
            .collect();
        CallGraph {
            sites,
            method_impls,
        }
    }

    /// The call sites of a function, in code order; empty for a function
    /// the repo does not have.
    pub fn sites(&self, func: FuncId) -> &[CallSite] {
        self.sites.get(func.index()).map_or(&[], Vec::as_slice)
    }

    /// The site at an exact instruction index, if that instruction calls.
    pub fn site_at(&self, func: FuncId, at: u32) -> Option<CallSite> {
        self.sites(func).iter().copied().find(|s| s.at == at)
    }

    /// Every repo function the site at `(func, at)` can dispatch to.
    /// Empty for builtins and non-call instructions.
    pub fn possible_targets(&self, func: FuncId, at: u32) -> Vec<FuncId> {
        match self.site_at(func, at).map(|s| s.kind) {
            Some(CallSiteKind::Static(callee)) => vec![callee],
            Some(CallSiteKind::Method(name)) => {
                self.method_impls.get(&name).cloned().unwrap_or_default()
            }
            Some(CallSiteKind::Builtin(_)) | None => Vec::new(),
        }
    }

    /// Whether the site at `(func, at)` can dispatch to `callee`.
    pub fn can_call(&self, func: FuncId, at: u32, callee: FuncId) -> bool {
        match self.site_at(func, at).map(|s| s.kind) {
            Some(CallSiteKind::Static(c)) => c == callee,
            Some(CallSiteKind::Method(name)) => self
                .method_impls
                .get(&name)
                .is_some_and(|v| v.contains(&callee)),
            Some(CallSiteKind::Builtin(_)) | None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{FuncBuilder, RepoBuilder};

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

    #[test]
    fn static_sites_have_one_target() {
        let repo = sample_repo();
        let g = CallGraph::build(&repo);
        let main = repo.func_by_name("main").unwrap().id;
        assert_eq!(g.possible_targets(main, 0), vec![FuncId::new(0)]);
        assert!(g.can_call(main, 0, FuncId::new(0)));
        assert!(!g.can_call(main, 0, FuncId::new(1)));
    }

    #[test]
    fn method_sites_reach_every_implementation() {
        let repo = sample_repo();
        let g = CallGraph::build(&repo);
        let main = repo.func_by_name("main").unwrap().id;
        let targets = g.possible_targets(main, 3);
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&FuncId::new(1)));
        assert!(targets.contains(&FuncId::new(2)));
        // helper is not a "run" implementation.
        assert!(!g.can_call(main, 3, FuncId::new(0)));
    }

    #[test]
    fn builtin_sites_and_non_calls_have_no_targets() {
        let repo = sample_repo();
        let g = CallGraph::build(&repo);
        let main = repo.func_by_name("main").unwrap().id;
        assert!(g.possible_targets(main, 6).is_empty());
        assert!(g.possible_targets(main, 1).is_empty(), "Pop is not a call");
        assert!(!g.can_call(main, 1, FuncId::new(0)));
    }
}
