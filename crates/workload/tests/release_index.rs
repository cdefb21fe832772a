//! The release index against fresh derivations on generated apps: every
//! function of the tiny app, the bench app and a churned release of the
//! bench app. The block hashes themselves are checked against
//! `Cfg::block_hashes` and `Cfg::block_opcode_hashes` by `bytecode`'s own
//! unit tests (the methods are crate-private) and pinned through the
//! profile digests of `profile_allocs.rs`.

use std::thread;

use bytecode::{fnv_str, Cfg, FuncFacts, Repo};
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
