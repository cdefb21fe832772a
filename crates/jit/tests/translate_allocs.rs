//! With its inline templates cached, translating a function costs a number
//! of allocations that does not grow with its inline-site count: a splice
//! copies the callee's instruction arena into the unit's one arena and
//! appends one header per block, so the only growth is the O(log n)
//! regrowth of the unit's two vectors. Its own test binary, because it
//! installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytecode::{ClassId, StrId};
use jit::vasm::VasmUnit;
use jit::{
    translate_optimized_with, InlineParams, InlineTemplate, ProfileCollector, TemplateKey,
    TemplateSource, WeightSource,
};
use vm::{Value, Vm};

thread_local! {
    // Per thread, so the harness's own threads do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One template per key, built on the first request.
#[derive(Default)]
struct Memo(Mutex<HashMap<TemplateKey, Arc<InlineTemplate>>>);

impl TemplateSource for Memo {
    fn get_or_build(
        &self,
        key: TemplateKey,
        build: &mut dyn FnMut() -> InlineTemplate,
    ) -> Arc<InlineTemplate> {
        let mut map = self.0.lock().unwrap();
        map.entry(key).or_insert_with(|| Arc::new(build())).clone()
    }
}

fn no_slots(_: ClassId, _: StrId) -> Option<u16> {
    None
}

/// Translates `main`, whose body calls a branchy helper at `sites` inline
/// sites, once to warm the template cache and once more under the
/// counter. Returns the second unit and its allocation count.
fn warm_translation(sites: usize) -> (VasmUnit, u64) {
    let calls = "$s = $s + helper($x);\n".repeat(sites);
    let src = format!(
        "function helper($x) {{ if ($x > 3) {{ return $x + 1; }} return $x * 2; }}
         function main($x) {{ $s = 0;\n{calls} return $s; }}"
    );
    let repo = hackc::compile_unit("t.hl", &src).expect("compiles");
    let main = repo.func_by_name("main").unwrap().id;
    let mut vm = Vm::new(&repo);
    let mut col = ProfileCollector::new(&repo);
    for x in 0..6 {
        vm.call_observed(main, &[Value::Int(x)], &mut col).unwrap();
        col.end_request();
    }
    let (tier, ctx) = col.finish();
    let templates = Memo::default();
    let translate = || {
        translate_optimized_with(
            &repo,
            main,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &no_slots,
            Some(&templates),
        )
    };
    drop(translate());
    let before = ALLOCS.with(Cell::get);
    let unit = translate();
    let allocs = ALLOCS.with(Cell::get) - before;
    (unit, allocs)
}

/// ⌈log2 n⌉: the regrowths of a vector pushed to length `n`.
fn regrowths(n: usize) -> u64 {
    u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

#[test]
fn inlined_sites_cost_no_allocations_beyond_the_arena_regrowth() {
    let (one_unit, one) = warm_translation(1);
    let (many_unit, many) = warm_translation(40);
    // Every site was inlined: no call is left in either unit.
    for unit in [&one_unit, &many_unit] {
        assert!(!unit
            .instrs
            .iter()
            .any(|i| matches!(i, jit::vasm::VInstr::CallStatic { .. })));
    }
    assert!(many_unit.blocks.len() > 40 * one_unit.blocks.len() / 2);
    let slack = regrowths(many_unit.blocks.len()) + regrowths(many_unit.instrs.len());
    assert!(one > 0);
    assert!(
        many <= one + slack,
        "1 site: {one} allocations, 40 sites: {many} (slack {slack})"
    );
}
