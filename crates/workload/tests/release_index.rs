//! The release index against fresh derivations on generated apps: every
//! function and every class of the tiny app, the bench app and a churned
//! release of the bench app. The block hashes themselves are checked against
//! `Cfg::block_hashes` and `Cfg::block_opcode_hashes` by `bytecode`'s own
//! unit tests (the methods are crate-private) and pinned through the
//! profile digests of `profile_allocs.rs`.

use std::collections::HashMap;
use std::thread;

use bytecode::{fnv_str, Cfg, ClassFacts, ClassId, FuncFacts, PropSlot, Repo};
use workload::{generate, generate_release, AppParams, ChurnParams};

const RELEASES: [&str; 3] = ["tiny", "bench", "bench churn 0.1"];

fn release(name: &str) -> Repo {
    match name {
        "tiny" => generate(&AppParams::tiny()).repo,
        "bench" => generate(&AppParams::bench()).repo,
        _ => {
            let churn = ChurnParams { seed: 1, rate: 0.1 };
            generate_release(&AppParams::bench(), &churn).0.repo
        }
    }
}

#[test]
fn facts_equal_a_fresh_derivation_of_every_function() {
    for name in RELEASES {
        let repo = release(name);
        for func in repo.funcs() {
            let facts = repo.facts(func.id);
            let cfg = Cfg::build(func);
            assert_eq!(facts.cfg, cfg, "{name}: {}", repo.str(func.name));
            assert_eq!(facts.name_hash, fnv_str(repo.str(func.name)));
            assert_eq!(facts.block_hashes.len(), cfg.len());
            assert_eq!(facts.block_opcode_hashes.len(), cfg.len());
        }
    }
}

/// A class's facts by a hand walk of `Class::parent`, `props` and
/// `methods`: the ancestry root first, every layer's properties in
/// declared order with the most derived default of each name, the own
/// layer last, and each layer's methods overriding its ancestors'.
fn walk(repo: &Repo, id: ClassId) -> ClassFacts {
    let mut ancestry = vec![id];
    while let Some(p) = repo.class(ancestry[ancestry.len() - 1]).parent {
        ancestry.push(p);
    }
    ancestry.reverse();
    let (mut slots, mut defaults, mut methods) = (Vec::new(), HashMap::new(), HashMap::new());
    for &c in &ancestry {
        for p in &repo.class(c).props {
            slots.push(PropSlot {
                name: p.name,
                class: c,
                default: p.default,
            });
            defaults.insert(p.name, p.default);
        }
        methods.extend(repo.class(c).methods.iter().copied());
    }
    for s in &mut slots {
        s.default = defaults[&s.name];
    }
    ClassFacts {
        ancestry,
        own: slots.len() - repo.class(id).props.len()..slots.len(),
        slots,
        methods,
    }
}

#[test]
fn class_facts_equal_a_hand_walk_of_every_class() {
    for name in RELEASES {
        let repo = release(name);
        // The apps have a hierarchy to walk.
        assert!(repo.classes().iter().any(|c| c.parent.is_some()), "{name}");
        for class in repo.classes() {
            let want = walk(&repo, class.id);
            let got = repo.class_facts(class.id);
            assert_eq!(got, &want, "{name}: {}", repo.str(class.name));
        }
    }
}

#[test]
fn threads_first_touching_a_shared_repo_read_one_derivation() {
    for name in RELEASES {
        let shared = release(name);
        let n = shared.funcs().len();
        // One thread walks the functions forward, the other backward, so
        // they meet on untouched entries.
        let reads: [Vec<&FuncFacts>; 2] = thread::scope(|s| {
            let fwd = s.spawn(|| (0..n).map(|i| shared.facts(shared.funcs()[i].id)).collect());
            let bwd = s.spawn(|| {
                let mut v: Vec<_> = (0..n)
                    .rev()
                    .map(|i| shared.facts(shared.funcs()[i].id))
                    .collect();
                v.reverse();
                v
            });
            [fwd.join().unwrap(), bwd.join().unwrap()]
        });
        let alone = release(name);
        for (i, func) in alone.funcs().iter().enumerate() {
            assert!(std::ptr::eq(reads[0][i], reads[1][i]), "{name}: #{i}");
            assert_eq!(reads[0][i], alone.facts(func.id), "{name}: #{i}");
        }
    }
}

#[test]
fn threads_first_touching_a_shared_repo_read_one_class_derivation() {
    for name in RELEASES {
        let shared = release(name);
        let ids: Vec<ClassId> = shared.classes().iter().map(|c| c.id).collect();
        // Forward, a subclass's derivation reads its ancestors' facts that
        // the backward thread may be deriving, and the other way round.
        let reads: [Vec<&ClassFacts>; 2] = thread::scope(|s| {
            let fwd = s.spawn(|| ids.iter().map(|&c| shared.class_facts(c)).collect());
            let bwd = s.spawn(|| {
                let mut v: Vec<_> = ids.iter().rev().map(|&c| shared.class_facts(c)).collect();
                v.reverse();
                v
            });
            [fwd.join().unwrap(), bwd.join().unwrap()]
        });
        let alone = release(name);
        for (i, &c) in ids.iter().enumerate() {
            assert!(std::ptr::eq(reads[0][i], reads[1][i]), "{name}: #{i}");
            assert_eq!(reads[0][i], alone.class_facts(c), "{name}: #{i}");
        }
    }
}
