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
//! rejects a package with any; the consumer admits a package in stages,
//! [`lint_shared`] over the ctx and orders and [`lint_records`] over each
//! stage's records, and repairs ([`crate::stale`], [`prune_orders`]) and
//! relints only what they flag, for a sealed package and a chunked one
//! alike.
//!
//! Each rule the repair also enforces is one check here, written once:
//! the site rules (call targets, type observations, receiver classes, ctx
//! branch and entry counters), the block-counter shape and the order-list
//! rules. A check reports each failure it finds and returns whether the
//! entry is admissible; the lint formats the failures into diagnostics,
//! and the repair drops every entry a check rejects without formatting
//! anything. A repaired profile never trips these rules by construction.

use std::collections::HashSet;
use std::fmt::Arguments;

use bytecode::{ClassId, FuncId, Instr, Repo, StrId, UnitId};
use jit::{CtxProfile, FuncProfile, InlineCtx, TierProfile, PARAM_SITE};

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
    let own = repo.class_facts(class).own_slots();
    let mut seen = HashSet::new();
    order
        .iter()
        .all(|n| own.iter().any(|s| s.name == *n) && seen.insert(*n))
}

/// Where a check reports each failure it finds: the lint formats it into
/// a [`Diagnostic`], the repair passes [`ignore`].
pub(crate) type Flag<'f> = dyn FnMut(Rule, Option<FuncId>, Arguments<'_>) + 'f;

/// The [`Flag`] of a caller that only wants the verdict.
pub(crate) fn ignore(_: Rule, _: Option<FuncId>, _: Arguments<'_>) {}

/// Whether `f` names a function of `repo`.
pub(crate) fn func_ok(repo: &Repo, f: FuncId) -> bool {
    f.index() < repo.funcs().len()
}

/// Whether stored block counters fit a function's current CFG, given its
/// `current` block hashes: one counter per block and, when the record
/// carries hashes, the current ones.
pub(crate) fn counters_fit(fp: &FuncProfile, current: &[u64]) -> bool {
    fp.block_counts.len() == current.len()
        && (fp.block_hashes.is_empty() || fp.block_hashes == current)
}

// The site rules: which instruction-indexed entries a function's code
// and the repo's static call graph admit.

fn instr(repo: &Repo, f: FuncId, at: u32) -> Option<&Instr> {
    repo.func(f).code.get(at as usize)
}

fn is_call(repo: &Repo, f: FuncId, at: u32) -> bool {
    matches!(
        instr(repo, f, at),
        Some(Instr::Call { .. } | Instr::CallMethod { .. })
    )
}

/// Whether the instruction at `(f, at)` can dispatch to `callee`.
fn can_call(repo: &Repo, f: FuncId, at: u32, callee: FuncId) -> bool {
    instr(repo, f, at).is_some_and(|i| repo.call_graph().targets(i).contains(&callee))
}

/// A call target: at a call instruction, to a callee that exists and that
/// the site can dispatch to.
pub(crate) fn call_target(
    repo: &Repo,
    fid: FuncId,
    site: u32,
    callee: FuncId,
    flag: &mut Flag<'_>,
) -> bool {
    let idx = callee.index();
    if !is_call(repo, fid, site) {
        let m = format_args!("call-target profile at instr {site}, which is not a call");
        flag(Rule::PhantomSite, Some(fid), m);
    } else if !func_ok(repo, callee) {
        let m = format_args!("call site {site} records dangling callee #{idx}");
        flag(Rule::DanglingId, Some(fid), m);
    } else if !can_call(repo, fid, site, callee) {
        let m =
            format_args!("call site {site} records callee #{idx} that the site cannot dispatch to");
        flag(Rule::ImpossibleCallArc, Some(fid), m);
    } else {
        return true;
    }
    false
}

/// A type observation: at a parameter slot (below the function's parameter
/// count, and below 8) or at operand 0 or 1 of a binary op.
pub(crate) fn type_site(repo: &Repo, fid: FuncId, at: u32, slot: u8, flag: &mut Flag<'_>) -> bool {
    let params = repo.func(fid).params;
    if at == PARAM_SITE {
        if (slot as u16) < params && slot < 8 {
            return true;
        }
        let m = format_args!("type profile for parameter {slot} of a {params}-param function");
        flag(Rule::PhantomSite, Some(fid), m);
    } else {
        if slot <= 1 && matches!(instr(repo, fid, at), Some(Instr::Bin(_))) {
            return true;
        }
        let m = format_args!(
            "type profile at (instr {at}, slot {slot}), which is not a binary-op operand"
        );
        flag(Rule::PhantomSite, Some(fid), m);
    }
    false
}

/// A receiver class: at a `GetProp`/`SetProp`, naming a class that exists.
/// Each failure is reported.
pub(crate) fn prop_class(
    repo: &Repo,
    fid: FuncId,
    site: u32,
    class: ClassId,
    flag: &mut Flag<'_>,
) -> bool {
    let at_prop = matches!(
        instr(repo, fid, site),
        Some(Instr::GetProp(_) | Instr::SetProp(_))
    );
    if !at_prop {
        let m = format_args!("property profile at instr {site}, which is not a property access");
        flag(Rule::PhantomSite, Some(fid), m);
    }
    let class_ok = class.index() < repo.classes().len();
    if !class_ok {
        let m = format_args!(
            "property site {site} records dangling class #{}",
            class.index()
        );
        flag(Rule::DanglingId, Some(fid), m);
    }
    at_prop && class_ok
}

/// A ctx branch counter: at a conditional jump of a function that exists,
/// under an inline context that is a real call site.
pub(crate) fn ctx_branch(
    repo: &Repo,
    fid: FuncId,
    at: u32,
    ictx: InlineCtx,
    flag: &mut Flag<'_>,
) -> bool {
    if !func_ok(repo, fid) {
        let m = format_args!("branch counters for dangling function #{}", fid.index());
        flag(Rule::DanglingId, Some(fid), m);
        return false;
    }
    let at_branch = matches!(instr(repo, fid, at), Some(Instr::JmpZ(_) | Instr::JmpNZ(_)));
    if !at_branch {
        let m = format_args!("branch counters at instr {at}, which is not a conditional branch");
        flag(Rule::PhantomSite, Some(fid), m);
    }
    inline_ctx(repo, ictx, flag) && at_branch
}

/// A ctx entry counter: into a function that exists, from an inline context
/// that is a real call site able to dispatch to it.
pub(crate) fn ctx_entry(repo: &Repo, callee: FuncId, ictx: InlineCtx, flag: &mut Flag<'_>) -> bool {
    if !func_ok(repo, callee) {
        let m = format_args!("entry counters for dangling function #{}", callee.index());
        flag(Rule::DanglingId, Some(callee), m);
        return false;
    }
    if !inline_ctx(repo, ictx, flag) {
        return false;
    }
    match ictx {
        Some((caller, site)) if !can_call(repo, caller, site, callee) => {
            let m = format_args!(
                "entry arc from (func#{}, instr {site}) which cannot dispatch to func#{}",
                caller.index(),
                callee.index()
            );
            flag(Rule::ImpossibleCallArc, Some(callee), m);
            false
        }
        _ => true,
    }
}

/// An inline-context key: none, or a call instruction of a function that
/// exists.
fn inline_ctx(repo: &Repo, ictx: InlineCtx, flag: &mut Flag<'_>) -> bool {
    let Some((caller, site)) = ictx else {
        return true;
    };
    if !func_ok(repo, caller) {
        let m = format_args!("inline context names dangling caller #{}", caller.index());
        flag(Rule::DanglingId, Some(caller), m);
    } else if !is_call(repo, caller, site) {
        let m = format_args!(
            "inline context site (func#{}, instr {site}) is not a call",
            caller.index()
        );
        flag(Rule::PhantomSite, Some(caller), m);
    } else {
        return true;
    }
    false
}

/// The order-list rules, applied to each list in order: an entry is
/// admissible when its id is in range and no earlier admissible entry
/// named the same unit, function or class; a property order must also
/// permute (a subset of) its class's own layer.
#[derive(Default)]
struct Orders {
    units: HashSet<UnitId>,
    funcs: HashSet<FuncId>,
    classes: HashSet<ClassId>,
}

impl Orders {
    fn unit(&mut self, repo: &Repo, u: UnitId, flag: &mut Flag<'_>) -> bool {
        let idx = u.index();
        if idx >= repo.units().len() {
            let m = format_args!("unit order names dangling unit #{idx}");
            flag(Rule::DanglingId, None, m);
        } else if !self.units.insert(u) {
            let m = format_args!("unit order repeats unit #{idx}");
            flag(Rule::BadOrder, None, m);
        } else {
            return true;
        }
        false
    }

    fn func(&mut self, repo: &Repo, f: FuncId, flag: &mut Flag<'_>) -> bool {
        let idx = f.index();
        if !func_ok(repo, f) {
            let m = format_args!("function order names dangling function #{idx}");
            flag(Rule::DanglingId, Some(f), m);
        } else if !self.funcs.insert(f) {
            let m = format_args!("function order repeats function #{idx}");
            flag(Rule::BadOrder, Some(f), m);
        } else {
            return true;
        }
        false
    }

    fn prop_order(
        &mut self,
        repo: &Repo,
        class: ClassId,
        order: &[StrId],
        flag: &mut Flag<'_>,
    ) -> bool {
        let idx = class.index();
        if idx >= repo.classes().len() {
            let m = format_args!("property order for dangling class #{idx}");
            flag(Rule::DanglingId, None, m);
            return false;
        }
        let own = is_own_layer_order(repo, class, order);
        if !own {
            let m = format_args!(
                "property order for class #{idx} is not a permutation of its own properties"
            );
            flag(Rule::BadOrder, None, m);
        }
        if self.classes.contains(&class) {
            let m = format_args!("duplicate property order for class #{idx}");
            flag(Rule::BadOrder, None, m);
            return false;
        }
        own && self.classes.insert(class)
    }
}

/// Drops every order-list entry the lint flags, keeping the rest in
/// order: dangling and repeated units and functions, property orders for
/// a dangling class, ones that do not permute the class's own layer, and
/// any after the first admissible order for a class.
pub fn prune_orders(
    repo: &Repo,
    unit_order: &mut Vec<UnitId>,
    func_order: &mut Vec<FuncId>,
    prop_orders: &mut Vec<(ClassId, Vec<StrId>)>,
) {
    let mut o = Orders::default();
    unit_order.retain(|&u| o.unit(repo, u, &mut ignore));
    func_order.retain(|&f| o.func(repo, f, &mut ignore));
    prop_orders.retain(|(class, order)| o.prop_order(repo, *class, order, &mut ignore));
}

fn lint_func_profile(
    repo: &Repo,
    ctx: &CtxProfile,
    fid: FuncId,
    fp: &FuncProfile,
    flag: &mut Flag<'_>,
) {
    if !func_ok(repo, fid) {
        let m = format_args!(
            "profile for function #{} but repo has {}",
            fid.index(),
            repo.funcs().len()
        );
        flag(Rule::DanglingId, Some(fid), m);
        return;
    }
    let facts = repo.facts(fid);
    // Legacy records carry no name hash (0) and keep id-as-is identity.
    let name_hash = facts.name_hash;
    if fp.name_hash != 0 && fp.name_hash != name_hash {
        let m = format_args!(
            "record's name hash {:#x} is not that of function #{} ({name_hash:#x})",
            fp.name_hash,
            fid.index(),
        );
        flag(Rule::MisnamedRecord, Some(fid), m);
        return;
    }
    let cfg = &facts.cfg;

    let fits = counters_fit(fp, &facts.block_hashes);
    if !fits {
        let (have, want) = (fp.block_counts.len(), cfg.len());
        let hashes = if have == want { ", hashes differ" } else { "" };
        let m = format_args!(
            "block counters ({have} blocks) don't match the current CFG ({want} blocks{hashes})"
        );
        flag(Rule::StaleCounts, Some(fid), m);
    }

    // A phantom call site is reported once per callee; the report dedups it.
    for &((site, callee), _) in fp.call_targets() {
        call_target(repo, fid, site, callee, flag);
    }
    for &((at, slot), _) in fp.types() {
        type_site(repo, fid, at, slot, flag);
    }
    for &((site, class), _) in fp.prop_classes() {
        prop_class(repo, fid, site, class, flag);
    }

    // Counters on provably dead blocks, and flow conservation.
    if fits {
        let reachable = reachable_blocks(cfg);
        for (b, (&count, &r)) in fp.block_counts.iter().zip(&reachable).enumerate() {
            if count > 0 && !r {
                let m = format_args!("block {b} is unreachable but counted {count} executions");
                flag(Rule::UnreachableCounter, Some(fid), m);
            }
        }
        for message in flow_violations(fid, cfg, fp, ctx) {
            flag(Rule::FlowConservation, Some(fid), format_args!("{message}"));
        }
    }
}

/// [`lint_profile`]; `opts` has no effect.
pub fn lint_profile_with(repo: &Repo, view: &ProfileView<'_>, _opts: &LintOptions) -> LintReport {
    lint_profile(repo, view)
}

/// Lints a profile against a repo: [`lint_records`] over its records and
/// [`lint_shared`] over the rest, in one report.
///
/// The repo is assumed to pass [`bytecode::verify_repo`]; the linter
/// checks the *profile*, not the code.
pub fn lint_profile(repo: &Repo, view: &ProfileView<'_>) -> LintReport {
    let mut diagnostics = lint_records(repo, &view.tier.funcs, view.ctx).diagnostics;
    let shared = lint_shared(repo, view, |f| view.tier.funcs.contains_key(&f));
    diagnostics.extend(shared.diagnostics);
    sorted(diagnostics)
}

/// Lints function records, each with its own ctx branch counters: a boot
/// stage's share of [`lint_profile`].
pub fn lint_records<'a>(
    repo: &Repo,
    records: impl IntoIterator<Item = (&'a FuncId, &'a FuncProfile)>,
    ctx: &CtxProfile,
) -> LintReport {
    linted(|flag| {
        for (&fid, fp) in records {
            lint_func_profile(repo, ctx, fid, fp, flag);
            for &((_, at, ictx), _) in ctx.branches_of(fid) {
                ctx_branch(repo, fid, at, ictx, flag);
            }
        }
    })
}

/// Lints what no record owns: the ctx branch counters of functions that
/// `claimed` says have no record, every ctx entry counter and the order
/// lists. `view.tier` is not read.
pub fn lint_shared(
    repo: &Repo,
    view: &ProfileView<'_>,
    claimed: impl Fn(FuncId) -> bool,
) -> LintReport {
    linted(|flag| {
        let runs = view.ctx.branches().chunk_by(|a, b| a.0 .0 == b.0 .0);
        for &((fid, at, ictx), _) in runs.filter(|run| !claimed(run[0].0 .0)).flatten() {
            ctx_branch(repo, fid, at, ictx, flag);
        }
        for &((callee, ictx), _) in view.ctx.entries() {
            ctx_entry(repo, callee, ictx, flag);
        }
        let mut orders = Orders::default();
        for &u in view.unit_order {
            orders.unit(repo, u, flag);
        }
        for &f in view.func_order {
            orders.func(repo, f, flag);
        }
        for (class, order) in view.prop_orders {
            orders.prop_order(repo, *class, order, flag);
        }
    })
}

/// Runs `check` with a [`Flag`] that renders each failure into a report.
fn linted(check: impl FnOnce(&mut Flag<'_>)) -> LintReport {
    let mut diagnostics = Vec::new();
    check(&mut |rule, func, message| {
        diagnostics.push(Diagnostic {
            rule,
            func,
            message: message.to_string(),
        })
    });
    sorted(diagnostics)
}

/// Findings sorted by rule, then function, then message, without repeats.
fn sorted(mut diagnostics: Vec<Diagnostic>) -> LintReport {
    diagnostics.sort_by(|a, b| (a.rule, a.func, &a.message).cmp(&(b.rule, b.func, &b.message)));
    diagnostics.dedup();
    LintReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{BinOp, FuncBuilder, Literal, RepoBuilder, Visibility};
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
    fn the_first_admissible_property_order_is_the_class_order() {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("k.hl");
        let prop = |n: &str| (n.to_string(), Literal::Null, Visibility::Public);
        let k = b.declare_class(u, "K", None, vec![prop("a"), prop("b")]);
        let repo = b.finish();
        let name = |s: &str| repo.str_id(s).unwrap();
        let (tier, ctx) = (TierProfile::default(), CtxProfile::default());
        // The class's own name is no property: the first order is
        // inadmissible, so the second is K's order and the third repeats it.
        let mut prop_orders = vec![
            (k, vec![name("K")]),
            (k, vec![name("b"), name("a")]),
            (k, vec![name("a")]),
        ];
        let lint = |prop_orders: &[(ClassId, Vec<StrId>)]| -> Vec<String> {
            let v = ProfileView {
                prop_orders,
                ..view(&tier, &ctx)
            };
            lint_profile(&repo, &v)
                .errors()
                .map(|d| d.to_string())
                .collect()
        };
        let not_own = "error[bad-order]: property order for class #0 is not a permutation of its own properties";
        let repeat = "error[bad-order]: duplicate property order for class #0";
        assert_eq!(lint(&prop_orders[..2]), [not_own]);
        assert_eq!(lint(&prop_orders), [repeat, not_own]);
        prune_orders(&repo, &mut Vec::new(), &mut Vec::new(), &mut prop_orders);
        assert_eq!(prop_orders, [(k, vec![name("b"), name("a")])]);
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
        let facts = repo.facts(fid);
        let mut fp = FuncProfile::default();
        fp.enter_count = 1;
        fp.block_counts = vec![0; facts.cfg.len()];
        fp.block_hashes = facts.block_hashes.clone();
        fp.block_counts[0] = 1;
        fp.block_counts[1] = 7; // the dead block
        fp.block_counts[facts.cfg.len() - 1] = 1;
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
