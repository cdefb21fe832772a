//! The profile linter: static checks of a profile package against a repo.
//!
//! The paper's reliability pipeline (§VI) catches bad packages with a
//! validation compile and smoke boots — a full consumer boot just to find
//! out the data is garbage. The linter answers a cheaper question first:
//! *can this profile possibly have been collected from this repo?* It
//! cross-checks every id against the repo tables, every record's name
//! hash against the function at its id, every counter against
//! the profile point that claims to have produced it, block counters
//! against Kirchhoff flow conservation and call arcs against the static
//! call graph.
//!
//! Every finding is an error: the profile cannot describe this repo, and
//! consuming it risks crashes or nonsense layout decisions. The seeder
//! rejects a package with any; the consumer repairs it ([`crate::stale`])
//! and lints again. The lint is the consumer's only admission check, for
//! a sealed package and a chunked one alike.

use std::collections::HashSet;

use bytecode::{Cfg, ClassId, FuncId, Instr, Repo, StrId, UnitId};
use jit::{CtxProfile, FuncProfile, TierProfile, PARAM_SITE};

use crate::callgraph::CallGraph;
use crate::flow::flow_violations;
use crate::reach::reachable_blocks;

/// Which check produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// An id (function, class, string, unit) is out of range for the repo.
    DanglingId,
    /// A function record's name hash names a different function than the
    /// repo's at that id: the record was collected for another function.
    MisnamedRecord,
    /// Block counters don't match the function's current CFG shape/hashes.
    StaleCounts,
    /// Profile data attached to an instruction that can't produce it
    /// (branch counters on a non-branch, call targets on a non-call, ...).
    PhantomSite,
    /// A recorded call arc no static call site can produce.
    ImpossibleCallArc,
    /// Block counters violate flow conservation (Kirchhoff's law).
    FlowConservation,
    /// A counter claims an unreachable block executed.
    UnreachableCounter,
    /// A malformed order list (duplicates, non-own-layer properties).
    BadOrder,
}

impl Rule {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DanglingId => "dangling-id",
            Rule::MisnamedRecord => "misnamed-record",
            Rule::StaleCounts => "stale-counts",
            Rule::PhantomSite => "phantom-site",
            Rule::ImpossibleCallArc => "impossible-call-arc",
            Rule::FlowConservation => "flow-conservation",
            Rule::UnreachableCounter => "unreachable-counter",
            Rule::BadOrder => "bad-order",
        }
    }
}

/// One finding; every finding is an error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub rule: Rule,
    /// The function the finding is about, when there is one.
    pub func: Option<FuncId>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[{}]", self.rule.name())?;
        if let Some(func) = self.func {
            write!(f, " func#{}", func.index())?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Former lint switches. Neither field has any effect: [`lint_profile`]
/// always runs every check, flow conservation included.
#[derive(Clone, Copy, Debug)]
pub struct LintOptions {
    /// No effect; flow conservation is always checked.
    pub flow_conservation: bool,
    /// No effect; no check reads it.
    pub type_feasibility: bool,
}

/// Borrowed view of the profile parts of a package. The linter doesn't
/// depend on the package container type so `core` can lint both packages
/// and raw collector output.
#[derive(Clone, Copy, Debug)]
pub struct ProfileView<'a> {
    /// Tier-1 profile.
    pub tier: &'a TierProfile,
    /// Context-sensitive profile.
    pub ctx: &'a CtxProfile,
    /// Unit preload order.
    pub unit_order: &'a [UnitId],
    /// Physical property orders per class.
    pub prop_orders: &'a [(ClassId, Vec<StrId>)],
    /// Optimized-compile function order.
    pub func_order: &'a [FuncId],
}

/// Everything the linter found.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by rule, then function, then message.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }
}

/// Whether `order` is a valid physical order for `class`'s own property
/// layer: every name is one of the class's own declared properties and no
/// name repeats. (Missing names are fine — the VM appends them in
/// declared order.)
pub fn is_own_layer_order(repo: &Repo, class: ClassId, order: &[StrId]) -> bool {
    let own: HashSet<StrId> = repo.class(class).props.iter().map(|p| p.name).collect();
    let mut seen = HashSet::new();
    order.iter().all(|s| own.contains(s) && seen.insert(*s))
}

struct Linter<'a> {
    repo: &'a Repo,
    graph: CallGraph,
    out: Vec<Diagnostic>,
}

impl Linter<'_> {
    fn error(&mut self, rule: Rule, func: Option<FuncId>, message: String) {
        self.out.push(Diagnostic {
            rule,
            func,
            message,
        });
    }

    fn func_ok(&self, f: FuncId) -> bool {
        f.index() < self.repo.funcs().len()
    }

    fn class_ok(&self, c: ClassId) -> bool {
        c.index() < self.repo.classes().len()
    }

    fn is_call_instr(&self, f: FuncId, at: u32) -> bool {
        let code = &self.repo.func(f).code;
        matches!(
            code.get(at as usize),
            Some(Instr::Call { .. } | Instr::CallMethod { .. })
        )
    }

    /// True when the stored counters can't belong to the function's
    /// current CFG (length or structural-hash mismatch).
    fn func_is_stale(&self, fid: FuncId, fp: &FuncProfile, cfg: &Cfg) -> bool {
        if fp.block_counts.len() != cfg.len() {
            return true;
        }
        if !fp.block_hashes.is_empty() {
            let current = cfg.block_hashes(self.repo.func(fid), self.repo);
            if fp.block_hashes != current {
                return true;
            }
        }
        false
    }

    fn lint_func_profile(&mut self, ctx: &CtxProfile, fid: FuncId, fp: &FuncProfile) {
        if !self.func_ok(fid) {
            self.error(
                Rule::DanglingId,
                Some(fid),
                format!(
                    "profile for function #{} but repo has {}",
                    fid.index(),
                    self.repo.funcs().len()
                ),
            );
            return;
        }
        let func = self.repo.func(fid);
        // Legacy records carry no name hash (0) and keep id-as-is identity.
        let name_hash = bytecode::fnv_str(self.repo.str(func.name));
        if fp.name_hash != 0 && fp.name_hash != name_hash {
            self.error(
                Rule::MisnamedRecord,
                Some(fid),
                format!(
                    "record's name hash {:#x} is not that of function #{} ({name_hash:#x})",
                    fp.name_hash,
                    fid.index(),
                ),
            );
            return;
        }
        let cfg = Cfg::build(func);

        let stale = self.func_is_stale(fid, fp, &cfg);
        if stale {
            self.error(
                Rule::StaleCounts,
                Some(fid),
                format!(
                    "block counters ({} blocks) don't match the current CFG ({} blocks{})",
                    fp.block_counts.len(),
                    cfg.len(),
                    if fp.block_counts.len() == cfg.len() {
                        ", hashes differ"
                    } else {
                        ""
                    },
                ),
            );
        }

        // Call-target profiles: real call sites, possible callees. A
        // phantom site is reported once per callee; the report dedups it.
        for &((site, callee), _) in fp.call_targets() {
            if !self.is_call_instr(fid, site) {
                self.error(
                    Rule::PhantomSite,
                    Some(fid),
                    format!("call-target profile at instr {site}, which is not a call"),
                );
            } else if !self.func_ok(callee) {
                self.error(
                    Rule::DanglingId,
                    Some(fid),
                    format!(
                        "call site {site} records dangling callee #{}",
                        callee.index()
                    ),
                );
            } else if !self.graph.can_call(fid, site, callee) {
                self.error(
                    Rule::ImpossibleCallArc,
                    Some(fid),
                    format!(
                        "call site {site} records callee #{} that the site cannot dispatch to",
                        callee.index()
                    ),
                );
            }
        }

        // Type observations: parameter slots or binary-operator operands.
        for &((at, slot), _) in fp.types() {
            if at == PARAM_SITE {
                if slot as u16 >= func.params || slot >= 8 {
                    self.error(
                        Rule::PhantomSite,
                        Some(fid),
                        format!(
                            "type profile for parameter {slot} of a {}-param function",
                            func.params
                        ),
                    );
                }
                continue;
            }
            let is_bin = matches!(func.code.get(at as usize), Some(Instr::Bin(_)));
            if !is_bin || slot > 1 {
                self.error(
                    Rule::PhantomSite,
                    Some(fid),
                    format!("type profile at (instr {at}, slot {slot}), which is not a binary-op operand"),
                );
            }
        }

        // Property-access profiles: real property instructions, live classes.
        for &((site, class), _) in fp.prop_classes() {
            let is_prop = matches!(
                func.code.get(site as usize),
                Some(Instr::GetProp(_) | Instr::SetProp(_))
            );
            if !is_prop {
                self.error(
                    Rule::PhantomSite,
                    Some(fid),
                    format!("property profile at instr {site}, which is not a property access"),
                );
            }
            if !self.class_ok(class) {
                self.error(
                    Rule::DanglingId,
                    Some(fid),
                    format!(
                        "property site {site} records dangling class #{}",
                        class.index()
                    ),
                );
            }
        }

        // Counters on provably dead blocks, and flow conservation.
        if !stale {
            let reachable = reachable_blocks(&cfg);
            for (b, (&count, &r)) in fp.block_counts.iter().zip(&reachable).enumerate() {
                if count > 0 && !r {
                    self.error(
                        Rule::UnreachableCounter,
                        Some(fid),
                        format!("block {b} is unreachable but counted {count} executions"),
                    );
                }
            }
            for message in flow_violations(fid, &cfg, fp, ctx) {
                self.error(Rule::FlowConservation, Some(fid), message);
            }
        }
    }

    fn lint_ctx(&mut self, ctx: &CtxProfile) {
        for &((fid, at, ictx), _) in ctx.branches() {
            if !self.func_ok(fid) {
                self.error(
                    Rule::DanglingId,
                    Some(fid),
                    format!("branch counters for dangling function #{}", fid.index()),
                );
                continue;
            }
            let code = &self.repo.func(fid).code;
            if !matches!(
                code.get(at as usize),
                Some(Instr::JmpZ(_) | Instr::JmpNZ(_))
            ) {
                self.error(
                    Rule::PhantomSite,
                    Some(fid),
                    format!("branch counters at instr {at}, which is not a conditional branch"),
                );
            }
            self.lint_inline_ctx(ictx);
        }
        for &((callee, ictx), _) in ctx.entries() {
            if !self.func_ok(callee) {
                self.error(
                    Rule::DanglingId,
                    Some(callee),
                    format!("entry counters for dangling function #{}", callee.index()),
                );
                continue;
            }
            if self.lint_inline_ctx(ictx) {
                if let Some((caller, site)) = ictx {
                    if !self.graph.can_call(caller, site, callee) {
                        self.error(
                            Rule::ImpossibleCallArc,
                            Some(callee),
                            format!(
                                "entry arc from (func#{}, instr {site}) which cannot dispatch to func#{}",
                                caller.index(),
                                callee.index()
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Checks an inline-context key; returns whether it was structurally
    /// valid (so arc checks can build on it).
    fn lint_inline_ctx(&mut self, ictx: jit::InlineCtx) -> bool {
        let Some((caller, site)) = ictx else {
            return true;
        };
        if !self.func_ok(caller) {
            self.error(
                Rule::DanglingId,
                Some(caller),
                format!("inline context names dangling caller #{}", caller.index()),
            );
            return false;
        }
        if !self.is_call_instr(caller, site) {
            self.error(
                Rule::PhantomSite,
                Some(caller),
                format!(
                    "inline context site (func#{}, instr {site}) is not a call",
                    caller.index()
                ),
            );
            return false;
        }
        true
    }

    fn lint_orders(&mut self, view: &ProfileView<'_>) {
        let mut seen_units = HashSet::new();
        for &u in view.unit_order {
            if u.index() >= self.repo.units().len() {
                self.error(
                    Rule::DanglingId,
                    None,
                    format!("unit order names dangling unit #{}", u.index()),
                );
            } else if !seen_units.insert(u) {
                self.error(
                    Rule::BadOrder,
                    None,
                    format!("unit order repeats unit #{}", u.index()),
                );
            }
        }
        let mut seen_funcs = HashSet::new();
        for &f in view.func_order {
            if !self.func_ok(f) {
                self.error(
                    Rule::DanglingId,
                    Some(f),
                    format!("function order names dangling function #{}", f.index()),
                );
            } else if !seen_funcs.insert(f) {
                self.error(
                    Rule::BadOrder,
                    Some(f),
                    format!("function order repeats function #{}", f.index()),
                );
            }
        }
        let mut seen_classes = HashSet::new();
        for (class, order) in view.prop_orders {
            if !self.class_ok(*class) {
                self.error(
                    Rule::DanglingId,
                    None,
                    format!("property order for dangling class #{}", class.index()),
                );
                continue;
            }
            if !seen_classes.insert(*class) {
                self.error(
                    Rule::BadOrder,
                    None,
                    format!("duplicate property order for class #{}", class.index()),
                );
            }
            if !is_own_layer_order(self.repo, *class, order) {
                self.error(
                    Rule::BadOrder,
                    None,
                    format!(
                        "property order for class #{} is not a permutation of its own properties",
                        class.index()
                    ),
                );
            }
        }
    }
}

/// [`lint_profile`]; `opts` has no effect.
pub fn lint_profile_with(repo: &Repo, view: &ProfileView<'_>, _opts: &LintOptions) -> LintReport {
    lint_profile(repo, view)
}

/// Lints a profile against a repo.
///
/// The repo is assumed to pass [`bytecode::verify_repo`]; the linter
/// checks the *profile*, not the code.
pub fn lint_profile(repo: &Repo, view: &ProfileView<'_>) -> LintReport {
    let mut l = Linter {
        repo,
        graph: CallGraph::build(repo),
        out: Vec::new(),
    };

    for (&fid, fp) in &view.tier.funcs {
        l.lint_func_profile(view.ctx, fid, fp);
    }
    l.lint_ctx(view.ctx);
    l.lint_orders(view);

    let mut diagnostics = l.out;
    diagnostics.sort_by(|a, b| {
        (a.rule, a.func.map(|f| f.index()), &a.message).cmp(&(
            b.rule,
            b.func.map(|f| f.index()),
            &b.message,
        ))
    });
    diagnostics.dedup();
    LintReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{BinOp, FuncBuilder, RepoBuilder};
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    /// f(n) loops calling g(i % 2); g branches on its argument.
    fn sample_repo() -> Repo {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("p.hl");
        let mut g = FuncBuilder::new("g", 1);
        let zero = g.new_label();
        g.emit(Instr::GetL(0));
        g.emit_jmp_z(zero);
        g.emit(Instr::Int(1));
        g.emit(Instr::Ret);
        g.bind(zero);
        g.emit(Instr::Int(0));
        g.emit(Instr::Ret);
        let gid = b.define_func(u, g);
        let mut f = FuncBuilder::new("f", 1);
        let i = f.new_local();
        let top = f.new_label();
        let out = f.new_label();
        f.emit(Instr::Int(0));
        f.emit(Instr::SetL(i));
        f.bind(top);
        f.emit(Instr::GetL(i));
        f.emit(Instr::GetL(0));
        f.emit(Instr::Bin(BinOp::Lt));
        f.emit_jmp_z(out);
        f.emit(Instr::GetL(i));
        f.emit(Instr::Int(2));
        f.emit(Instr::Bin(BinOp::Mod));
        f.emit_raw(Instr::Call { func: gid, argc: 1 });
        f.emit(Instr::Pop);
        f.emit(Instr::IncL(i, 1));
        f.emit(Instr::Pop);
        f.emit_jmp(top);
        f.bind(out);
        f.emit(Instr::Null);
        f.emit(Instr::Ret);
        b.define_func(u, f);
        b.finish()
    }

    fn collect(repo: &Repo, n: i64) -> (TierProfile, CtxProfile) {
        let f = repo.func_by_name("f").unwrap().id;
        let mut vm = Vm::new(repo);
        let mut col = ProfileCollector::new(repo);
        vm.call_observed(f, &[Value::Int(n)], &mut col).unwrap();
        col.end_request();
        col.finish()
    }

    fn view<'a>(tier: &'a TierProfile, ctx: &'a CtxProfile) -> ProfileView<'a> {
        ProfileView {
            tier,
            ctx,
            unit_order: &[],
            prop_orders: &[],
            func_order: &[],
        }
    }

    #[test]
    fn fresh_profile_lints_clean() {
        let repo = sample_repo();
        let (tier, ctx) = collect(&repo, 10);
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(
            report.is_clean(),
            "fresh profile flagged: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn dangling_func_id_is_an_error() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let fp = tier.funcs.values().next().unwrap().clone();
        tier.funcs.insert(FuncId::new(999), fp);
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report.errors().any(|d| d.rule == Rule::DanglingId));
    }

    #[test]
    fn dangling_callee_is_an_error() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        let site = fp.call_targets()[0].0 .0;
        fp.record_call(site, FuncId::new(777), 3);
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report
            .errors()
            .any(|d| d.rule == Rule::DanglingId && d.func == Some(f)));
    }

    #[test]
    fn impossible_call_arc_is_an_error() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        let site = fp.call_targets()[0].0 .0;
        // f itself is a real function, but the site statically calls g.
        fp.record_call(site, f, 3);
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report.errors().any(|d| d.rule == Rule::ImpossibleCallArc));
    }

    #[test]
    fn a_record_naming_another_function_is_an_error() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let (f, g) = (
            repo.func_by_name("f").unwrap().id,
            repo.func_by_name("g").unwrap().id,
        );
        // g's record under f's id: the collector named it g.
        let record = tier.funcs[&g].clone();
        tier.funcs.insert(f, record);
        let report = lint_profile(&repo, &view(&tier, &ctx));
        let rules: Vec<(Rule, Option<FuncId>)> =
            report.errors().map(|d| (d.rule, d.func)).collect();
        assert_eq!(
            rules,
            [(Rule::MisnamedRecord, Some(f))],
            "one finding, no cascade"
        );
        // A legacy record carries no name hash and keeps id-as-is identity.
        let (mut tier, ctx) = collect(&repo, 10);
        tier.funcs.get_mut(&f).unwrap().name_hash = 0;
        assert!(lint_profile(&repo, &view(&tier, &ctx)).is_clean());
    }

    #[test]
    fn flow_conservation_violation_is_an_error() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        // Perturb one interior block counter.
        let hot = fp
            .block_counts
            .iter()
            .position(|&c| c > 1)
            .expect("loop body executed");
        fp.block_counts[hot] += 5;
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(
            report.errors().any(|d| d.rule == Rule::FlowConservation),
            "got: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn options_do_not_change_the_report() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        tier.funcs.get_mut(&f).unwrap().block_counts[1] += 1;
        let v = view(&tier, &ctx);
        let report = lint_profile(&repo, &v).diagnostics;
        assert!(report.iter().any(|d| d.rule == Rule::FlowConservation));
        for (flow_conservation, type_feasibility) in [(false, false), (true, true)] {
            let opts = LintOptions {
                flow_conservation,
                type_feasibility,
            };
            assert_eq!(lint_profile_with(&repo, &v, &opts).diagnostics, report);
        }
    }

    #[test]
    fn stale_counter_shape_is_an_error() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        fp.block_counts.truncate(fp.block_counts.len() - 1);
        fp.block_hashes.truncate(fp.block_hashes.len() - 1);
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report
            .errors()
            .any(|d| d.rule == Rule::StaleCounts && d.func == Some(f)));
    }

    #[test]
    fn stale_hashes_detected_even_with_matching_length() {
        let repo = sample_repo();
        let (mut tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        fp.block_hashes[0] ^= 0xdead_beef;
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report
            .errors()
            .any(|d| d.rule == Rule::StaleCounts && d.func == Some(f)));
    }

    #[test]
    fn phantom_branch_site_is_an_error() {
        let repo = sample_repo();
        let (tier, mut ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        // Instr 0 of f is Int(0), not a conditional branch.
        ctx.record_branch(
            None,
            f,
            0,
            &jit::BranchCount {
                taken: 1,
                not_taken: 1,
            },
        );
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report.errors().any(|d| d.rule == Rule::PhantomSite));
    }

    #[test]
    fn bad_orders_are_flagged() {
        let repo = sample_repo();
        let (tier, ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let report = lint_profile(
            &repo,
            &ProfileView {
                tier: &tier,
                ctx: &ctx,
                unit_order: &[UnitId::new(0), UnitId::new(0), UnitId::new(9)],
                prop_orders: &[],
                func_order: &[f, f],
            },
        );
        assert!(report.errors().any(|d| d.rule == Rule::BadOrder));
        assert!(report.errors().any(|d| d.rule == Rule::DanglingId));
        assert!(report.error_count() >= 3);
    }

    #[test]
    fn unreachable_counter_is_an_error() {
        // Function with a dead block; hand-build a profile claiming it ran.
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("d.hl");
        let mut f = FuncBuilder::new("dead", 0);
        let end = f.new_label();
        f.emit(Instr::Null);
        f.emit_jmp(end);
        f.emit(Instr::Int(1)); // dead block
        f.emit(Instr::Pop);
        f.bind(end);
        f.emit(Instr::Ret);
        let fid = b.define_func(u, f);
        let repo = b.finish();
        let cfg = Cfg::build(repo.func(fid));
        let mut fp = FuncProfile::default();
        fp.enter_count = 1;
        fp.block_counts = vec![0; cfg.len()];
        fp.block_hashes = cfg.block_hashes(repo.func(fid), &repo);
        fp.block_counts[0] = 1;
        fp.block_counts[1] = 7; // the dead block
        fp.block_counts[cfg.len() - 1] = 1;
        let mut tier = TierProfile::default();
        tier.funcs.insert(fid, fp);
        let ctx = CtxProfile::default();
        let report = lint_profile(&repo, &view(&tier, &ctx));
        assert!(report.errors().any(|d| d.rule == Rule::UnreachableCounter));
    }

    #[test]
    fn diagnostics_render_and_sort() {
        let repo = sample_repo();
        let (mut tier, mut ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        fp.block_counts[1] += 1;
        let site = fp.call_targets()[0].0 .0;
        fp.record_call(site, f, 3);
        ctx.record_branch(None, FuncId::new(500), 0, &Default::default());
        let report = lint_profile(
            &repo,
            &ProfileView {
                tier: &tier,
                ctx: &ctx,
                unit_order: &[UnitId::new(0), UnitId::new(0)],
                prop_orders: &[],
                func_order: &[],
            },
        );
        // The exact lines, in (rule, func, message) order: the validator
        // and the consumer ship the count and the first line.
        let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            rendered,
            [
                "error[dangling-id] func#500: branch counters for dangling function #500",
                "error[impossible-call-arc] func#1: call site 9 records callee #1 that the site cannot dispatch to",
                "error[flow-conservation] func#1: block 1 executed 12 times but flow in is 11",
                "error[flow-conservation] func#1: branch at instr 5 recorded 11 outcomes but its block executed 12 times",
                "error[bad-order]: unit order repeats unit #0",
            ]
        );
        assert_eq!(report.error_count(), rendered.len());
        assert_eq!(report.errors().count(), rendered.len());
    }
}
