//! Decoding a function record costs a fixed number of allocations however
//! many sites it holds: each per-site table is one vector, sized from the
//! count the wire states before its entries. Its own test binary, because
//! it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytecode::{ClassId, FuncId};
use jit::{FuncProfile, TypeDist};
use jumpstart::ProfilePackage;
use vm::ValueKind;

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

/// One profiled function with `sites` call sites, type sites and property
/// sites, each monomorphic — the shape of every bench-lab record.
fn package(sites: u32) -> ProfilePackage {
    let mut p = FuncProfile::default();
    p.enter_count = 1;
    p.block_counts = vec![1; 4];
    let mut ints = TypeDist::default();
    ints.add_raw(ValueKind::Int, 3);
    for s in 0..sites {
        p.record_call(2 * s, FuncId::new(7), 3);
        p.record_types(2 * s, 0, &ints);
        p.record_prop_class(2 * s + 1, ClassId::new(5), 3);
    }
    let mut pkg = ProfilePackage::default();
    pkg.tier.funcs.insert(FuncId::new(3), p);
    pkg
}

#[test]
fn decoding_a_record_costs_the_same_allocations_at_any_site_count() {
    let [one, many] = [1, 200].map(|sites| {
        let pkg = package(sites);
        let bytes = pkg.serialize();
        let before = ALLOCS.with(Cell::get);
        let back = ProfilePackage::deserialize(&bytes).unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(back, pkg);
        allocs
    });
    assert!(one > 0);
    assert_eq!(one, many, "1 site: {one} allocations, 200 sites: {many}");
}
