//! The seeder workflow: turning collected profiles into a package
//! (Fig. 3b's "serialize profile data" step, plus the §V intermediate
//! results that are computed seeder-side).

use std::collections::HashMap;

use bytecode::{ClassId, Instr, Repo, StrId, UnitId};
use jit::{CtxProfile, JitEngine, JitOptions, TierProfile};
use layout::{reorder_props_by_hotness, PropAccess};

use crate::config::{FuncSort, JumpStartOptions, PropReorder};
use crate::package::{Coverage, PackageMeta, PreloadLists, ProfilePackage};
use crate::pipeline::TemplateCache;

/// Everything a seeder has gathered by the time it serializes.
#[derive(Debug)]
pub struct SeederInputs<'a> {
    /// The deployed repo.
    pub repo: &'a Repo,
    /// Tier-1 profile (Fig. 3b "collect profile data").
    pub tier: TierProfile,
    /// Instrumented-optimized-code profile (Fig. 3b "collect profile data
    /// for optimized code").
    pub ctx: CtxProfile,
    /// Unit load order observed while serving.
    pub unit_order: Vec<UnitId>,
    /// Requests observed.
    pub requests: u64,
    /// Region of this seeder.
    pub region: u32,
    /// Semantic bucket of this seeder.
    pub bucket: u32,
    /// Seeder identity.
    pub seeder_id: u64,
    /// Simulated wall clock (ms).
    pub now_ms: u64,
}

/// Builds the profile-data package, computing the seeder-side intermediate
/// results: per-class property orders (§V-C) and the function-sorting
/// order (§V-B, §IV-B category 4).
pub fn build_package(
    inputs: SeederInputs<'_>,
    opts: &JumpStartOptions,
    jit_opts: &JitOptions,
) -> ProfilePackage {
    let repo = inputs.repo;
    let _build_span = telemetry::span!("seeder-build", "seeder" => inputs.seeder_id);
    let props_span = telemetry::span!("prop-orders");
    let prop_orders = match opts.prop_reorder {
        PropReorder::Off => Vec::new(),
        PropReorder::Hotness => prop_orders_by_hotness(repo, &inputs.tier),
    };
    drop(props_span);

    let order_span = telemetry::span!("func-order");
    let candidates = inputs.tier.functions_by_heat();
    let func_order = match opts.func_sort {
        FuncSort::SourceOrder => candidates,
        FuncSort::C3TierOnly => {
            // Pre-Jump-Start HHVM: C3 over the tier-1 call graph, which
            // still contains every arc that inlining will remove (§V-B).
            let engine = JitEngine::new(repo, *jit_opts);
            engine.tier_graph_order(&candidates, &inputs.tier)
        }
        FuncSort::C3InliningAware => {
            c3_from_optimized_code(repo, &candidates, &inputs.tier, &inputs.ctx, jit_opts)
        }
    };
    drop(order_span);

    // Preload list: the observed load order, stably re-sorted hottest unit
    // first. Loading hot metadata first packs it into few pages, which is
    // the §VII-A data-locality benefit of the preload lists.
    let preload_span = telemetry::span!("preload-order");
    let mut unit_heat: HashMap<UnitId, u64> = HashMap::new();
    for (f, p) in &inputs.tier.funcs {
        if f.index() < repo.funcs().len() {
            *unit_heat.entry(repo.func(*f).unit).or_insert(0) += p.block_counts.iter().sum::<u64>();
        }
    }
    let mut unit_order = inputs.unit_order;
    unit_order.sort_by_key(|u| std::cmp::Reverse(unit_heat.get(u).copied().unwrap_or(0)));
    drop(preload_span);

    let coverage = Coverage {
        funcs_profiled: inputs.tier.profiled_count() as u64,
        counter_mass: inputs.tier.total_counter_mass(),
        requests: inputs.requests,
    };
    ProfilePackage {
        meta: PackageMeta {
            region: inputs.region,
            bucket: inputs.bucket,
            seeder_id: inputs.seeder_id,
            created_ms: inputs.now_ms,
            coverage,
            poison: Default::default(),
        },
        preload: PreloadLists { unit_order },
        tier: inputs.tier,
        ctx: inputs.ctx,
        prop_orders,
        func_order,
    }
}

/// Builds the §V-B *accurate* call graph by instrumenting the optimized
/// code itself: the seeder translates each hot function exactly as the
/// consumer will, then records the call arcs that actually remain after
/// inlining, weighted by the (context-sensitive) block counts. The C3
/// order computed from this graph matches the code the fleet will run.
///
/// Like the consumer, it translates through a [`TemplateCache`], so each
/// inlined callee is lowered once and spliced at every site. The cache is
/// an exact memo: the units, and so the order, equal those of uncached
/// [`jit::translate_optimized`].
fn c3_from_optimized_code(
    repo: &Repo,
    candidates: &[bytecode::FuncId],
    tier: &TierProfile,
    ctx: &CtxProfile,
    jit_opts: &JitOptions,
) -> Vec<bytecode::FuncId> {
    use jit::vasm::VInstr;
    let index_of: HashMap<bytecode::FuncId, usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i))
        .collect();
    let mut nodes = vec![
        layout::FuncNode {
            size: 16,
            weight: 0
        };
        candidates.len()
    ];
    let mut arcs: Vec<layout::CallArc> = Vec::new();
    let templates = TemplateCache::default();
    for (i, &func) in candidates.iter().enumerate() {
        let unit = jit::translate_optimized_with(
            repo,
            func,
            tier,
            ctx,
            jit::WeightSource::Accurate,
            jit_opts.inline,
            &|_, _| None,
            Some(&templates),
        );
        nodes[i] = layout::FuncNode {
            size: unit.code_size().max(16),
            weight: unit.blocks.iter().map(|b| b.est_weight).sum(),
        };
        for block in &unit.blocks {
            for instr in unit.instrs_of(block) {
                match *instr {
                    VInstr::CallStatic { callee } => {
                        if let Some(&j) = index_of.get(&callee) {
                            arcs.push(layout::CallArc {
                                caller: i,
                                callee: j,
                                weight: block.est_weight,
                            });
                        }
                    }
                    VInstr::CallDynamic { owner, site } => {
                        // Distribute the site's weight over its observed
                        // dynamic targets.
                        let targets = tier
                            .funcs
                            .get(&owner)
                            .map_or(&[][..], |p| p.call_targets_at(site));
                        let total: u64 = targets.iter().map(|&(_, c)| c).sum();
                        if total == 0 {
                            continue;
                        }
                        for &((_, callee), c) in targets {
                            if let Some(&j) = index_of.get(&callee) {
                                arcs.push(layout::CallArc {
                                    caller: i,
                                    callee: j,
                                    weight: block.est_weight * c / total,
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    // A standalone translation only runs when something still *calls* it
    // after inlining: scale each function's execution mass by the fraction
    // of its entries that remain as real calls (arcs) or external request
    // entries. Always-inlined helpers drop to ~zero — precisely what the
    // inlining-unaware tier graph gets wrong (§V-B).
    let mut incoming = vec![0u64; candidates.len()];
    for a in &arcs {
        incoming[a.callee] += a.weight;
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        let func = candidates[i];
        let enter = tier.funcs.get(&func).map(|p| p.enter_count).unwrap_or(0);
        if enter == 0 {
            continue;
        }
        let external = ctx.entry_count(None, func);
        // Arc weights carry the translator's 1024x fixed-point scale.
        let remaining_calls = incoming[i] / 1024 + external;
        let fraction = (remaining_calls as f64 / enter as f64).min(1.0);
        node.weight = (node.weight as f64 * fraction) as u64;
    }
    layout::c3_order(&nodes, &arcs, 4096)
        .into_iter()
        .map(|i| candidates[i])
        .collect()
}

/// Sums per-property access counts up the hierarchy: an access reported
/// against a *receiver* class R counts toward the *declaring* layer K for
/// every K in R's ancestry that declares the property.
///
/// The counts come from the per-site records: each receiver-class count
/// at a property site is an access to the property the repo's
/// `GetProp`/`SetProp` at that site names. A record at any other
/// instruction, or on a class past the repo, counts nothing.
fn own_layer_counts(repo: &Repo, tier: &TierProfile) -> HashMap<(ClassId, StrId), u64> {
    let mut out: HashMap<(ClassId, StrId), u64> = HashMap::new();
    for (&f, p) in &tier.funcs {
        let Some(func) = repo.funcs().get(f.index()) else {
            continue;
        };
        for &((at, receiver), count) in p.prop_classes() {
            let Some(Instr::GetProp(prop) | Instr::SetProp(prop)) = func.code.get(at as usize)
            else {
                continue;
            };
            if receiver.index() >= repo.classes().len() {
                continue;
            }
            // One count per declaring layer, however often it declares it.
            let mut last = None;
            for s in &repo.class_facts(receiver).slots {
                if s.name == *prop && last != Some(s.class) {
                    *out.entry((s.class, *prop)).or_insert(0) += count;
                    last = Some(s.class);
                }
            }
        }
    }
    out
}

fn prop_orders_by_hotness(repo: &Repo, tier: &TierProfile) -> Vec<(ClassId, Vec<StrId>)> {
    let counts = own_layer_counts(repo, tier);
    let mut orders = Vec::new();
    for class in repo.classes() {
        if class.props.is_empty() {
            continue;
        }
        let accesses: Vec<PropAccess<StrId>> = class
            .props
            .iter()
            .map(|p| PropAccess {
                prop: p.name,
                count: counts.get(&(class.id, p.name)).copied().unwrap_or(0),
            })
            .collect();
        if accesses.iter().all(|a| a.count == 0) {
            continue; // never touched: keep declared order, ship nothing
        }
        orders.push((class.id, reorder_props_by_hotness(&accesses)));
    }
    orders
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{BlockId, FuncId};
    use jit::ProfileCollector;
    use vm::{ExecObserver, Value, ValueKind, Vm};

    fn collect() -> (Repo, TierProfile, CtxProfile, Vec<UnitId>) {
        let src = r#"
            class Base { public $cold0 = 0; public $hot = 0; }
            class Kid extends Base { public $cold1 = 0; public $warm = 0; }
            function touch($k) {
                $o = new Kid();
                $o->hot = $k;
                $s = $o->hot + $o->hot + $o->warm;
                return $s;
            }
            function main($n) {
                $t = 0;
                for ($i = 0; $i < $n; $i++) { $t += touch($i); }
                return $t;
            }
        "#;
        let repo = hackc::compile_unit("s.hl", src).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..4 {
            vm.call_observed(f, &[Value::Int(25)], &mut col).unwrap();
            col.end_request();
        }
        let order = vm.loader().load_order();
        let (tier, ctx) = col.finish();
        (repo, tier, ctx, order)
    }

    #[test]
    fn package_contains_all_categories() {
        let (repo, tier, ctx, unit_order) = collect();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order: unit_order.clone(),
                requests: 4,
                region: 1,
                bucket: 2,
                seeder_id: 9,
                now_ms: 500,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        // The preload list is a hot-first permutation of the observed order.
        let mut got = pkg.preload.unit_order.clone();
        let mut expect = unit_order.clone();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        assert!(pkg.meta.coverage.funcs_profiled >= 2);
        assert!(!pkg.func_order.is_empty());
        assert!(!pkg.prop_orders.is_empty());
        assert!(pkg.tier.profiled_count() >= 2);
    }

    #[test]
    fn hot_property_is_ordered_first_in_its_layer() {
        let (repo, tier, ctx, unit_order) = collect();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order,
                requests: 4,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        let base = repo.class_by_name("Base").unwrap().id;
        let hot = repo.str_id("hot").unwrap();
        let (_, order) = pkg
            .prop_orders
            .iter()
            .find(|(c, _)| *c == base)
            .expect("Base layer reordered");
        assert_eq!(order[0], hot, "hottest property leads its layer");
    }

    #[test]
    fn prop_reorder_off_ships_no_orders() {
        let (repo, tier, ctx, unit_order) = collect();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order,
                requests: 4,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions {
                prop_reorder: PropReorder::Off,
                ..Default::default()
            },
            &JitOptions::default(),
        );
        assert!(pkg.prop_orders.is_empty());
    }

    #[test]
    fn shipped_orders_are_valid_permutations() {
        let (repo, tier, ctx, unit_order) = collect();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order,
                requests: 4,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        assert!(!pkg.prop_orders.is_empty());
        for (c, order) in &pkg.prop_orders {
            let declared: std::collections::HashSet<StrId> =
                repo.class(*c).props.iter().map(|p| p.name).collect();
            let got: std::collections::HashSet<StrId> = order.iter().copied().collect();
            assert_eq!(declared, got, "order must permute the declared layer");
            assert_eq!(order.len(), declared.len(), "no property listed twice");
        }
    }

    // Forwards every event to a collector and tallies property accesses by
    // (receiver class, property) straight from the interpreter's events.
    struct PropTally<'r> {
        col: ProfileCollector<'r>,
        counts: HashMap<(ClassId, StrId), u64>,
    }

    impl ExecObserver for PropTally<'_> {
        fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
            self.col.on_func_enter(func, args);
        }

        fn on_block(&mut self, func: FuncId, block: BlockId) {
            self.col.on_block(func, block);
        }

        fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
            self.col.on_branch(func, at, taken);
        }

        fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
            self.col.on_call(caller, at, callee);
        }

        fn on_prop_access(&mut self, func: FuncId, at: u32, class: ClassId, prop: StrId, w: bool) {
            *self.counts.entry((class, prop)).or_insert(0) += 1;
            self.col.on_prop_access(func, at, class, prop, w);
        }

        fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
            self.col.on_type_observed(func, at, slot, kind);
        }

        fn on_func_exit(&mut self, func: FuncId) {
            self.col.on_func_exit(func);
        }
    }

    #[test]
    fn own_layer_counts_match_a_tally_of_access_events() {
        let src = r#"
            class Base { public $cold0 = 0; public $hot = 0; }
            class Kid extends Base { public $cold1 = 0; public $warm = 0; }
            function touch($k) {
                $o = new Kid();
                $o->hot = $k;
                return $o->hot + $o->warm;
            }
            function peek($k) {
                $b = new Base();
                $b->cold0 = $k;
                return $b->hot + $b->cold0;
            }
            function main($n) {
                $t = 0;
                for ($i = 0; $i < $n; $i++) { $t += touch($i) + peek($i); }
                return $t;
            }
        "#;
        let repo = hackc::compile_unit("t.hl", src).unwrap();
        let main = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut tally = PropTally {
            col: ProfileCollector::new(&repo),
            counts: HashMap::new(),
        };
        for _ in 0..3 {
            vm.call_observed(main, &[Value::Int(7)], &mut tally)
                .unwrap();
            tally.col.end_request();
        }
        let (tier, _) = tally.col.finish();

        // The tally attributed up each receiver's parent chain, by hand.
        let mut expect: HashMap<(ClassId, StrId), u64> = HashMap::new();
        for (&(receiver, prop), &count) in &tally.counts {
            let mut k = Some(receiver);
            while let Some(c) = k {
                if repo.class(c).props.iter().any(|p| p.name == prop) {
                    *expect.entry((c, prop)).or_insert(0) += count;
                }
                k = repo.class(c).parent;
            }
        }
        let got = own_layer_counts(&repo, &tier);
        assert_eq!(got, expect);

        let base = repo.class_by_name("Base").unwrap().id;
        let kid = repo.class_by_name("Kid").unwrap().id;
        let hot = repo.str_id("hot").unwrap();
        // `hot` read through a `Kid` receiver counts toward `Base`, the
        // layer that declares it, beside the reads through `Base` itself.
        let (via_kid, via_base) = (tally.counts[&(kid, hot)], tally.counts[&(base, hot)]);
        assert!(via_kid > 0 && via_base > 0);
        assert_eq!(got[&(base, hot)], via_kid + via_base);
        assert!(!got.contains_key(&(kid, hot)));
        // ... and is read from two functions.
        let readers = tier
            .funcs
            .iter()
            .filter(|(f, p)| {
                let code = &repo.func(**f).code;
                p.prop_classes()
                    .iter()
                    .any(|&((at, _), _)| code[at as usize] == Instr::GetProp(hot))
            })
            .count();
        assert_eq!(readers, 2);
    }
}
