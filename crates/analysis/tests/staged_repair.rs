//! A consumer boot admits a stale profile in stages: identity settled up
//! front, then each stage's records remapped, linted, and repaired only
//! where the lint flags them. Whatever the stages, the result is the
//! whole-profile repair's.

use analysis::{lint_records, repair_profile, MatchMode, RepairReport, StagedRepair};
use bytecode::{FuncId, Repo};
use jit::{BranchCount, CtxProfile, TierProfile};
use proptest::prelude::*;
use workload::{generate_release, profile_run, AppParams, ChurnParams, RequestMix};

const RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.4];

/// Admits `tier` and `ctx` against `repo` in `stages` stages, record `i`
/// (in `FuncId` order) in stage `picks[i % picks.len()] % stages`, as a
/// consumer boot does.
fn staged(
    repo: &Repo,
    (tier, ctx): (&TierProfile, &CtxProfile),
    stages: usize,
    picks: &[usize],
) -> (TierProfile, CtxProfile, RepairReport) {
    let dir = tier.funcs.iter().map(|(&f, fp)| (f, fp.name_hash));
    let mut repair = StagedRepair::by_name(repo, MatchMode::Full, dir);
    repair.by_body(tier);
    let mut ctx = ctx.clone();
    repair.admit_ctx(&mut ctx);
    let mut admitted = TierProfile::default();
    for k in 0..stages {
        let mut stage = TierProfile::default();
        for (i, (&f, fp)) in tier.funcs.iter().enumerate() {
            if picks[i % picks.len()] % stages == k {
                stage.funcs.insert(f, fp.clone());
            }
        }
        repair.remap(&mut stage);
        let flagged: Vec<FuncId> = (stage.funcs.iter())
            .filter(|&(f, fp)| !lint_records(repo, [(f, fp)], &ctx).is_clean())
            .map(|(&f, _)| f)
            .collect();
        repair.fresh(stage.funcs.len() - flagged.len());
        repair.repair(&mut stage, &flagged, &mut ctx);
        admitted.funcs.append(&mut stage.funcs);
    }
    (admitted, ctx, repair.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn staged_repair_matches_repair_profile(
        rate in 0usize..RATES.len(),
        seed in 0u64..6,
        stages in 1usize..=3,
        picks in prop::collection::vec(0usize..3, 1..64),
        phantom in 0usize..64,
    ) {
        let (rate, params) = (RATES[rate], AppParams::tiny());
        let (prior, _) = generate_release(&params, &ChurnParams::none());
        let mut run = profile_run(&prior, &RequestMix::new(&prior, 0, 0), 60, 21);
        // A branch counter at a record's first instruction, which is no
        // conditional branch: only the record's own ctx branch counters
        // flag it, even where the record itself is fresh.
        let f = *run.tier.funcs.keys().nth(phantom % run.tier.funcs.len()).unwrap();
        run.ctx.record_branch(None, f, 0, &BranchCount { taken: 1, not_taken: 1 });
        let (current, _) = generate_release(&params, &ChurnParams { seed, rate });
        let (mut tier, mut ctx) = (run.tier.clone(), run.ctx.clone());
        let want = repair_profile(&current.repo, &mut tier, &mut ctx);
        let got = staged(&current.repo, (&run.tier, &run.ctx), stages, &picks);
        let case = format!("rate {rate} seed {seed} stages {stages}");
        prop_assert_eq!(&got.2, &want, "{}: report", case);
        prop_assert!(got.0 == tier, "{}: tier", case);
        prop_assert!(got.1 == ctx, "{}: ctx", case);
        prop_assert!(rate > 0.0 || want.pruned > 0, "{}: the phantom counter stays", case);
    }
}
