//! A seeder's profiling window allocates less than once per executed
//! call, and its profile is pinned to a digest. The interpreter keeps
//! every frame's arguments, locals and operands in one stack per `Vm`,
//! and the collector's counters are laid out when a function is first
//! seen, so a call allocates nothing of its own; what remains is the
//! program's own objects and strings and each function's first-seen
//! state. Its own test binary, because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytecode::Fnv;
use jit::InlineCtx;
use workload::{generate, profile_run, AppParams, ProfileRun, RequestMix};

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

/// FNV-1a over every counter of a profiling run, in key order.
fn digest(run: &ProfileRun) -> u64 {
    let mut h = Fnv::new();
    let ctx_key = |h: &mut Fnv, ctx: InlineCtx| match ctx {
        None => h.u8(0),
        Some((caller, site)) => {
            h.u8(1);
            h.u64(caller.index() as u64);
            h.u64(u64::from(site));
        }
    };
    for (f, p) in &run.tier.funcs {
        h.u64(f.index() as u64);
        h.u64(p.enter_count);
        h.u64(p.name_hash);
        for v in [&p.block_counts, &p.block_hashes, &p.block_opcode_hashes] {
            h.u64(v.len() as u64);
            v.iter().for_each(|&x| h.u64(x));
        }
        for &((site, callee), n) in p.call_targets() {
            [u64::from(site), callee.index() as u64, n]
                .iter()
                .for_each(|&x| h.u64(x));
        }
        for ((at, slot), dist) in p.types() {
            h.u64(u64::from(*at));
            h.u8(*slot);
            dist.counts().iter().for_each(|&x| h.u64(x));
        }
        for &((site, class), n) in p.prop_classes() {
            [u64::from(site), class.index() as u64, n]
                .iter()
                .for_each(|&x| h.u64(x));
        }
    }
    for &((f, at, ctx), b) in run.ctx.branches() {
        h.u64(f.index() as u64);
        h.u64(u64::from(at));
        ctx_key(&mut h, ctx);
        h.u64(b.taken);
        h.u64(b.not_taken);
    }
    for &((f, ctx), n) in run.ctx.entries() {
        h.u64(f.index() as u64);
        ctx_key(&mut h, ctx);
        h.u64(n);
    }
    run.unit_order.iter().for_each(|u| h.u64(u.index() as u64));
    h.u64(run.requests);
    h.finish()
}

#[test]
fn profiling_allocates_less_than_once_per_call_and_keeps_its_profile() {
    // The fleet's seeder window: 150 requests on the 62-function app.
    let app = generate(&AppParams::tiny());
    let cases = [
        ((0, 0), 42, 0x76ec_5b06_0c1d_10d2_u64),
        ((1, 3), 7, 0x1aed_d98f_f833_6183_u64),
    ];
    for ((region, bucket), seed, pinned) in cases {
        let mix = RequestMix::new(&app, region, bucket);
        let before = ALLOCS.with(Cell::get);
        let run = profile_run(&app, &mix, 150, seed);
        let allocs = ALLOCS.with(Cell::get) - before;
        // Every function entry: the requests and the calls they make.
        let calls: u64 = run.tier.funcs.values().map(|p| p.enter_count).sum();
        assert!(calls > 1000, "cell ({region}, {bucket}): {calls} calls");
        assert!(
            allocs <= calls,
            "cell ({region}, {bucket}): {allocs} allocations for {calls} calls"
        );
        assert_eq!(
            digest(&run),
            pinned,
            "cell ({region}, {bucket}) seed {seed}: profile digest {:#018x}",
            digest(&run)
        );
    }
}

#[test]
fn bench_app_and_other_seeds_keep_their_profiles() {
    // The bench app, whose profiling window is collector-heavy, and the
    // small app at another seed: the interpreter's fast paths must leave
    // every counter where a plain instruction-by-instruction run puts it.
    let cases = [
        (AppParams::bench(), (0, 0), 42, 0x6c6f_0b1a_ac3c_60ac_u64),
        (
            AppParams {
                seed: 31337,
                ..AppParams::tiny()
            },
            (0, 0),
            31337,
            0xacd5_e3de_b196_0ed7_u64,
        ),
    ];
    for (params, (region, bucket), seed, pinned) in cases {
        let app = generate(&params);
        let mix = RequestMix::new(&app, region, bucket);
        let run = profile_run(&app, &mix, 150, seed);
        assert_eq!(
            digest(&run),
            pinned,
            "app seed {} cell ({region}, {bucket}) seed {seed}: profile digest {:#018x}",
            params.seed,
            digest(&run)
        );
    }
}
