//! Statistical replay of compiled and interpreted code through the
//! micro-architecture model.
//!
//! The replay walks the *actual emitted blocks at their actual code-cache
//! addresses*, sampling branch outcomes from ground-truth probabilities.
//! Layout decisions therefore change instruction-fetch locality and branch
//! fallthrough behavior exactly the way they would on hardware, which is
//! what produces Figs. 5 and 6. Data accesses (property slots, arrays,
//! repo metadata) go through the D-side model, so property reordering and
//! metadata preload order matter too.
//!
//! The translated-code path runs hundreds of times per request, so it
//! hashes nothing with SipHash: translations and tier profiles are dense
//! per-`FuncId` tables built once in [`Executor::new`], object counters are
//! indexed by class, bind stubs are a sorted vector, and the two
//! address-keyed tables use [`uarch::AddrMap`] / [`uarch::AddrSet`].

use std::collections::HashMap;
use std::rc::Rc;

use bytecode::{Cfg, ClassId, FuncId, Instr, Repo, UnitId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uarch::{AddrMap, AddrSet, CoreModel, CoreParams, MissReport};

use crate::code_cache::{CodeCache, EmittedTranslation, STUB_BYTES};
use crate::profile::{CtxProfile, FuncProfile, TierProfile};
use crate::vasm::{Term, VInstr};

/// Replay tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutorConfig {
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
    /// Cycles per bytecode instruction when interpreting (threaded
    /// interpreters run ~10-20× slower than optimized code).
    pub interp_cpi: u64,
    /// Maximum call depth.
    pub max_depth: u32,
    /// Block-visit budget per top-level call (loop safety net).
    pub max_blocks_per_call: u32,
    /// Live objects kept per class (heap spread).
    pub obj_pool: u64,
    /// Fraction of branch outcomes that are data-dependent noise; the rest
    /// follow the site's deterministic periodic pattern (real loop bounds
    /// and modulo tests are predictable; gshare learns them).
    pub branch_noise: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            interp_cpi: 14,
            max_depth: 48,
            max_blocks_per_call: 100_000,
            obj_pool: 128,
            branch_noise: 0.10,
        }
    }
}

/// Synthesizes data addresses for heap objects, arrays and repo metadata.
#[derive(Debug)]
struct DataSpace {
    /// Objects allocated so far, per class index.
    obj_counter: Vec<u64>,
    obj_pool: u64,
    arr_counter: u64,
    unit_meta_base: Vec<u64>,
    slot_counts: Vec<u16>,
}

const OBJ_BASE: u64 = 0x20_0000_0000;
const ARR_BASE: u64 = 0x30_0000_0000;
const META_BASE: u64 = 0x40_0000_0000;
const HTAB_BASE: u64 = 0x50_0000_0000;

impl DataSpace {
    /// Creates a data space; unit metadata is laid out in repo id order
    /// until [`DataSpace::set_unit_order`] installs a load order.
    fn new(repo: &Repo, obj_pool: u64) -> Self {
        let slot_counts = repo
            .classes()
            .iter()
            .map(|c| {
                repo.ancestry(c.id)
                    .iter()
                    .map(|&a| repo.class(a).props.len())
                    .sum::<usize>() as u16
            })
            .collect();
        let mut ds = Self {
            obj_counter: vec![0; repo.classes().len()],
            obj_pool,
            arr_counter: 0,
            unit_meta_base: vec![0; repo.units().len()],
            slot_counts,
        };
        let order: Vec<UnitId> = repo.units().iter().map(|u| u.id).collect();
        ds.set_unit_order(repo, &order);
        ds
    }

    /// Installs the order units were (pre)loaded in; metadata addresses are
    /// assigned cumulatively in that order, so a hot-first preload packs
    /// hot metadata into few pages (paper §IV-B category 1, §VII-A).
    fn set_unit_order(&mut self, repo: &Repo, order: &[UnitId]) {
        let mut off = 0u64;
        let mut placed = vec![false; self.unit_meta_base.len()];
        for &u in order {
            self.unit_meta_base[u.index()] = META_BASE + off;
            off += vm::unit_bytes(repo, u) as u64;
            placed[u.index()] = true;
        }
        for (i, done) in placed.iter().enumerate() {
            if !done {
                self.unit_meta_base[i] = META_BASE + off;
                off += vm::unit_bytes(repo, repo.units()[i].id) as u64;
            }
        }
    }

    fn obj_stride(&self, class: ClassId) -> u64 {
        // Line-aligned strides: real size-class allocators round objects up
        // to aligned size classes, so one object's tail never shares a
        // line with the next object's header.
        let slots = self.slot_counts.get(class.index()).copied().unwrap_or(4) as u64;
        (16 + slots * 16).next_multiple_of(64)
    }

    fn current_obj(&self, class: ClassId) -> u64 {
        let k = self.obj_counter.get(class.index()).copied().unwrap_or(0) % self.obj_pool;
        OBJ_BASE + class.index() as u64 * 0x10_0000 + k * self.obj_stride(class)
    }

    /// `class` comes from the repo's own `NewObj`, so it is in range.
    fn alloc_obj(&mut self, class: ClassId) -> u64 {
        self.obj_counter[class.index()] += 1;
        self.current_obj(class)
    }

    fn current_arr(&self) -> u64 {
        ARR_BASE + (self.arr_counter % 64) * 4096
    }

    fn alloc_arr(&mut self) -> u64 {
        self.arr_counter += 1;
        self.current_arr()
    }

    fn meta_addr(&self, unit: UnitId, offset: u64) -> u64 {
        self.unit_meta_base[unit.index()] + offset
    }
}

/// Replays calls through translations/interpreter and the core model.
#[derive(Debug)]
pub struct Executor<'a> {
    repo: &'a Repo,
    /// Each function's current translation, by `FuncId` index.
    translations: Vec<Option<&'a EmittedTranslation>>,
    /// Each function's tier-1 profile, by `FuncId` index.
    profiles: Vec<Option<&'a FuncProfile>>,
    truth: &'a CtxProfile,
    /// The simulated core (exposed for custom latency parameters).
    pub core: CoreModel,
    rng: SmallRng,
    data: DataSpace,
    config: ExecutorConfig,
    cfg_cache: HashMap<FuncId, Rc<Cfg>>,
    branch_acc: AddrMap<f64>,
    /// Hot→cold bind stubs already executed and smashed to direct jumps.
    /// Code state, not a counter: survives [`Executor::reset_stats`].
    bound_stubs: AddrSet,
    blocks_left: u32,
}

impl<'a> Executor<'a> {
    /// Creates an executor over emitted code.
    pub fn new(
        repo: &'a Repo,
        cache: &'a CodeCache,
        tier: &'a TierProfile,
        truth: &'a CtxProfile,
        config: ExecutorConfig,
    ) -> Self {
        let mut core = CoreModel::new(CoreParams::default());
        // Packed hot text translates through the 2 MiB I-TLB entries.
        if let Some((start, len)) = cache.huge_text_range() {
            core.map_huge_range(start, len);
        }
        let funcs = repo.funcs().len();
        Self {
            repo,
            translations: by_func(cache.translations(), funcs),
            profiles: by_func(&tier.funcs, funcs),
            truth,
            core,
            rng: SmallRng::seed_from_u64(config.seed),
            data: DataSpace::new(repo, config.obj_pool),
            config,
            cfg_cache: HashMap::new(),
            branch_acc: AddrMap::default(),
            bound_stubs: AddrSet::default(),
            blocks_left: 0,
        }
    }

    fn profile(&self, func: FuncId) -> Option<&'a FuncProfile> {
        self.profiles.get(func.index()).copied().flatten()
    }

    /// Samples a branch outcome at probability `p`: mostly the site's
    /// deterministic periodic pattern (Bresenham accumulator), with a
    /// configurable share of pure noise.
    fn sample_branch(&mut self, site: u64, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if self.rng.gen_bool(self.config.branch_noise.clamp(0.0, 1.0)) {
            return self.rng.gen_bool(p);
        }
        let acc = self.branch_acc.entry(site).or_insert(0.5);
        *acc += p;
        if *acc >= 1.0 {
            *acc -= 1.0;
            true
        } else {
            false
        }
    }

    /// Installs the order units were (pre)loaded in. Unit metadata
    /// addresses are assigned cumulatively in that order, so a hot-first
    /// preload packs hot metadata into few pages (paper §IV-B category 1,
    /// §VII-A); until this is called they follow repo id order.
    pub fn set_unit_order(&mut self, order: &[UnitId]) {
        self.data.set_unit_order(self.repo, order);
    }

    /// Replays one top-level call (one request handler invocation).
    pub fn run_call(&mut self, func: FuncId) {
        self.blocks_left = self.config.max_blocks_per_call;
        self.call(func, 0);
    }

    /// Current metrics snapshot.
    pub fn report(&self) -> MissReport {
        self.core.report()
    }

    /// Clears counters, keeping cache/predictor state (drop warmup noise).
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
    }

    fn call(&mut self, func: FuncId, depth: u32) {
        if depth >= self.config.max_depth || self.blocks_left == 0 {
            return;
        }
        match self.translations.get(func.index()).copied().flatten() {
            Some(t) => self.replay_translation(t, depth),
            None => self.replay_interp(func, depth),
        }
    }

    fn replay_translation(&mut self, t: &'a EmittedTranslation, depth: u32) {
        // Touch this function's runtime metadata (Func*, unit tables) —
        // the accesses whose locality the preload order improves (§VII-A).
        let unit = self.repo.func(t.func).unit;
        let meta = self.data.meta_addr(unit, 64 + (t.func.0 as u64 % 61) * 24);
        self.core.load(meta, 8);

        let mut bi = 0usize;
        loop {
            if self.blocks_left == 0 {
                return;
            }
            self.blocks_left -= 1;
            let block = &t.vasm.blocks[bi];
            let (addr, size) = t.placement[bi];
            self.core.fetch(addr, size);
            // One pass over the body: sum the base cycles (the terminator
            // costs one) and run the instructions that touch the model.
            // Retiring after the calls they make is exact: `retire` only
            // adds to two totals that nothing reads inside a call.
            let mut base = 1;
            for &instr in &block.instrs {
                base += instr.cycles();
                self.exec_instr(instr, depth);
            }
            let n = block.instr_count();
            self.core.retire(n, base);
            let fall_addr = addr + size as u64;
            match block.term {
                Term::Jump(t2) => {
                    // A jump to the physically-next block is free; anything
                    // else redirects the front end.
                    if t.placement[t2].0 != fall_addr {
                        self.core.branch(fall_addr - block.term_size() as u64, true);
                    }
                    // The first transfer through a hot→cold edge executes
                    // its bind stub (emitted ahead of the cold part); the
                    // stub then smashes the branch to jump directly (lazy
                    // jump binding), so steady state pays nothing extra.
                    if let Some(stub) = t.stub(bi, t2) {
                        if self.bound_stubs.insert(stub) {
                            self.core.fetch(stub, STUB_BYTES as u32);
                        }
                    }
                    bi = t2;
                }
                Term::Cond { taken, fall } => {
                    let branch_site = fall_addr - block.term_size() as u64;
                    let go = self.sample_branch(branch_site, block.true_taken_prob);
                    let next = if go { taken } else { fall };
                    // Emitted polarity: the branch is "taken" iff the
                    // successor is not the physically-next block — layout
                    // turns hot edges into fallthroughs.
                    let emitted_taken = t.placement[next].0 != fall_addr;
                    self.core.branch(branch_site, emitted_taken);
                    if let Some(stub) = t.stub(bi, next) {
                        if self.bound_stubs.insert(stub) {
                            self.core.fetch(stub, STUB_BYTES as u32);
                        }
                    }
                    bi = next;
                }
                Term::Ret | Term::Exit => return,
            }
        }
    }

    /// Runs the model side of one instruction: the eight variants below
    /// touch memory or call; every other one only costs base cycles.
    #[inline]
    fn exec_instr(&mut self, instr: VInstr, depth: u32) {
        match instr {
            VInstr::LoadProp { class, slot } | VInstr::StoreProp { class, slot } => {
                let base = self.data.current_obj(class);
                self.core.load(base + 16 + slot as u64 * 16, 8);
            }
            VInstr::GenProp => {
                // Hash-table lookup plus the slot access.
                let h: u64 = self.rng.gen_range(0..4096);
                self.core.load(HTAB_BASE + h * 64, 8);
                let class =
                    ClassId::new(self.rng.gen_range(0..self.repo.classes().len().max(1)) as u32);
                if self.repo.classes().is_empty() {
                    return;
                }
                let slots = self.data.slot_counts[class.index()].max(1) as u64;
                let base = self.data.current_obj(class);
                let slot = self.rng.gen_range(0..slots);
                self.core.load(base + 16 + slot * 16, 8);
            }
            VInstr::NewObjOp { class } => {
                // Request allocators reuse recently-freed, cache-warm
                // memory; only the header line is charged here. Coldness
                // comes from pool rotation (older objects get evicted).
                let base = self.data.alloc_obj(class);
                self.core.store(base, 64);
            }
            VInstr::NewArrOp => {
                let base = self.data.alloc_arr();
                self.core.store(base, 64);
            }
            VInstr::IdxOp => {
                let base = self.data.current_arr();
                let idx: u64 = self.rng.gen_range(0..64);
                self.core.load(base + idx * 16, 8);
            }
            VInstr::CallStatic { callee } => self.call(callee, depth + 1),
            VInstr::CallDynamic { owner, site } => {
                if let Some(target) = self.sample_target(owner, site) {
                    self.core.load(HTAB_BASE + 0x100_0000 + site as u64 * 64, 8);
                    self.call(target, depth + 1);
                }
            }
            _ => {}
        }
    }

    fn sample_target(&mut self, owner: FuncId, site: u32) -> Option<FuncId> {
        let targets = self.profile(owner)?.call_targets_at(site);
        let total: u64 = targets.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return None;
        }
        let mut pick = self.rng.gen_range(0..total);
        for &((_, f), w) in targets {
            if pick < w {
                return Some(f);
            }
            pick -= w;
        }
        None
    }

    fn cfg_of(&mut self, func: FuncId) -> Rc<Cfg> {
        if let Some(c) = self.cfg_cache.get(&func) {
            return c.clone();
        }
        let c = Rc::new(Cfg::build(self.repo.func(func)));
        self.cfg_cache.insert(func, c.clone());
        c
    }

    /// Replays an un-translated function at interpreter cost, walking its
    /// bytecode CFG with ground-truth branch probabilities.
    fn replay_interp(&mut self, func: FuncId, depth: u32) {
        let cfg = self.cfg_of(func);
        let f = self.repo.func(func);
        let unit = f.unit;
        let mut b = 0usize;
        loop {
            if self.blocks_left == 0 {
                return;
            }
            self.blocks_left -= 1;
            let block = cfg.block(bytecode::BlockId(b as u32));
            let n = block.len() as u64;
            self.core.retire(n, n * self.config.interp_cpi);
            // Touch the bytecode metadata for this block.
            self.core
                .load(self.data.meta_addr(unit, 256 + block.start as u64 * 4), 16);
            let mut next: Option<usize> = None;
            for at in block.start..block.end {
                match f.code[at as usize] {
                    Instr::Call { func: callee, .. } => self.call(callee, depth + 1),
                    Instr::CallMethod { .. } => {
                        if let Some(t) = self.sample_target(func, at) {
                            self.call(t, depth + 1);
                        }
                    }
                    Instr::GetProp(_) | Instr::SetProp(_) => {
                        // Receiver class from the site profile when known.
                        let class = self.profile(func).and_then(|fp| fp.dominant_class(at));
                        if let Some((class, _)) = class {
                            let slots = self.data.slot_counts[class.index()].max(1) as u64;
                            let base = self.data.current_obj(class);
                            let slot = self.rng.gen_range(0..slots);
                            self.core.load(base + 16 + slot * 16, 8);
                        }
                    }
                    Instr::NewObj(class) => {
                        let base = self.data.alloc_obj(class);
                        self.core.store(base, 64);
                    }
                    Instr::Idx | Instr::SetIdx => {
                        let base = self.data.current_arr();
                        self.core.load(base, 8);
                    }
                    Instr::NewVec(_) | Instr::NewDict(_) => {
                        let base = self.data.alloc_arr();
                        self.core.store(base, 64);
                    }
                    Instr::JmpZ(target) | Instr::JmpNZ(target) => {
                        let p = self.truth.taken_prob(None, func, at);
                        let site = self.data.meta_addr(unit, at as u64 * 4);
                        let go = self.sample_branch(site, p);
                        self.core.branch(site, go);
                        next = Some(if go {
                            cfg.block_of(target).index()
                        } else {
                            b + 1
                        });
                    }
                    Instr::Jmp(target) => next = Some(cfg.block_of(target).index()),
                    Instr::Ret => return,
                    _ => {}
                }
            }
            b = match next {
                Some(n2) => n2,
                None => b + 1,
            };
            if b >= cfg.len() {
                return;
            }
        }
    }
}

/// A dense table over `n` function ids (grown if a key lies beyond):
/// `Some(&value)` where `map` has the id.
fn by_func<T>(map: &HashMap<FuncId, T>, n: usize) -> Vec<Option<&T>> {
    let mut dense = vec![None; n];
    for (f, v) in map {
        if f.index() >= dense.len() {
            dense.resize(f.index() + 1, None);
        }
        dense[f.index()] = Some(v);
    }
    dense
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code_cache::CodeCacheConfig;
    use crate::profile::ProfileCollector;
    use crate::translate::{translate_optimized, InlineParams, WeightSource};
    use vm::{Value, Vm};

    fn setup(
        src: &str,
        entry: &str,
        arg: i64,
        runs: usize,
    ) -> (Repo, TierProfile, CtxProfile, FuncId) {
        let repo = hackc::compile_unit("t.hl", src).expect("compiles");
        let f = repo.func_by_name(entry).unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..runs {
            vm.call_observed(f, &[Value::Int(arg)], &mut col).unwrap();
            col.end_request();
        }
        let (tier, ctx) = col.finish();
        (repo, tier, ctx, f)
    }

    const LOOPY: &str = r#"
        function main($n) {
            $s = 0;
            for ($i = 0; $i < $n; $i++) {
                if ($i % 7 == 0) { $s += 3; } else { $s += 1; }
            }
            return $s;
        }
    "#;

    #[test]
    fn optimized_replay_is_much_faster_than_interp() {
        let (repo, tier, ctx, f) = setup(LOOPY, "main", 200, 3);
        let unit = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &|_, _| None,
        );
        let order: Vec<usize> = (0..unit.blocks.len()).collect();
        let mut cache = CodeCache::new(CodeCacheConfig::default());
        assert!(cache.emit(unit, &order, &[]));

        let empty_cache = CodeCache::new(CodeCacheConfig::default());
        let mut interp = Executor::new(&repo, &empty_cache, &tier, &ctx, ExecutorConfig::default());
        let mut opt = Executor::new(&repo, &cache, &tier, &ctx, ExecutorConfig::default());
        for _ in 0..20 {
            interp.run_call(f);
            opt.run_call(f);
        }
        let (ri, ro) = (interp.report(), opt.report());
        assert!(ri.instructions > 0 && ro.instructions > 0);
        let cpi_i = ri.cycles as f64 / ri.instructions as f64;
        let cpi_o = ro.cycles as f64 / ro.instructions as f64;
        assert!(
            cpi_i > 2.0 * cpi_o,
            "interp CPI {cpi_i:.1} should dwarf optimized CPI {cpi_o:.1}"
        );
    }

    #[test]
    fn replay_is_deterministic_given_a_seed() {
        let (repo, tier, ctx, f) = setup(LOOPY, "main", 100, 2);
        let cache = CodeCache::default();
        let run = || {
            let mut ex = Executor::new(&repo, &cache, &tier, &ctx, ExecutorConfig::default());
            for _ in 0..5 {
                ex.run_call(f);
            }
            ex.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.branch, b.branch);
    }

    #[test]
    fn branch_counts_track_loop_iterations() {
        let (repo, tier, ctx, f) = setup(LOOPY, "main", 500, 2);
        let cache = CodeCache::default();
        let mut ex = Executor::new(&repo, &cache, &tier, &ctx, ExecutorConfig::default());
        // Loop length is sampled geometrically per call (mean ~500); use
        // enough calls for the mean to concentrate.
        for _ in 0..30 {
            ex.run_call(f);
        }
        let r = ex.report();
        // ~500 iterations x 2 conditional branches x 30 calls, within 3x.
        assert!(
            r.branch.accesses >= 10_000,
            "got {} branches",
            r.branch.accesses
        );
    }

    #[test]
    fn calls_recurse_into_callees() {
        let src = r#"
            function helper($x) { return $x * 2; }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s += helper($i); }
                return $s;
            }
        "#;
        let (repo, tier, ctx, f) = setup(src, "main", 50, 2);
        let cache = CodeCache::default();
        let mut ex = Executor::new(&repo, &cache, &tier, &ctx, ExecutorConfig::default());
        ex.run_call(f);
        // helper's unit metadata was touched (same unit here) and the
        // instruction count reflects both bodies.
        assert!(ex.report().instructions > 300);
    }

    #[test]
    fn hot_slot_layout_reduces_dcache_misses() {
        // Direct DataSpace-level check: accessing slot 0 vs slot 30 of a
        // wide class across a pool of objects.
        let src = r#"
            class Wide {
                public $p0 = 0;  public $p1 = 0;  public $p2 = 0;  public $p3 = 0;
                public $p4 = 0;  public $p5 = 0;  public $p6 = 0;  public $p7 = 0;
                public $p8 = 0;  public $p9 = 0;  public $p10 = 0; public $p11 = 0;
                public $p12 = 0; public $p13 = 0; public $p14 = 0; public $p15 = 0;
            }
            function main($n) { $w = new Wide(); return $n; }
        "#;
        let (repo, tier, ctx, _f) = setup(src, "main", 1, 1);
        let class = repo.class_by_name("Wide").unwrap().id;
        let cache = CodeCache::default();
        let run = |slot: u16| {
            let mut ex = Executor::new(&repo, &cache, &tier, &ctx, ExecutorConfig::default());
            for _ in 0..4000 {
                ex.exec_instr(VInstr::NewObjOp { class }, 0);
                ex.exec_instr(VInstr::LoadProp { class, slot }, 0);
            }
            ex.report().dcache.misses
        };
        let near = run(0);
        let far = run(15);
        assert!(
            near <= far,
            "slot 0 misses {near} should be <= slot 15 misses {far}"
        );
    }
}
