//! Cache-consistency suite for the artifact's evaluation memos.
//!
//! `ModelArtifact` reuses work across formulas through its unified
//! per-subterm memo (e.g. the `K_i φ` stages inside a `C_G φ`
//! fixpoint) and its per-class `Pr` memo. These tests pin that the
//! memos are *observationally invisible*: satisfaction sets (and their
//! pinned sizes on the paper's walkthrough systems) are identical to
//! the memo-free reference tree walker (`Model`), under any
//! interleaving of queries.

mod common;

use common::{arb_sync_spec, build, cases, prop_names};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{Formula, Model, ModelArtifact};
use kpa::measure::{rat, Rat};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, System};
use std::sync::Arc;

/// Every formula in the family, sat-checked on `sys` twice — once on a
/// fresh artifact, once on the reference `Model` — returning the sizes
/// after asserting the full sets agree.
fn sizes_memo_vs_fresh(sys: &System, formulas: &[Formula]) -> Vec<usize> {
    let post = ProbAssignment::new(sys, Assignment::post());
    let reference = Model::new(&post);
    let artifact = ModelArtifact::new(Arc::new(sys.clone()), Assignment::post());
    let ctx = artifact.ctx();
    let mut sizes = Vec::with_capacity(formulas.len());
    for f in formulas {
        let with_memo = ctx.sat(f).expect("artifact checks");
        let without = reference.sat(f).expect("model checks");
        assert_eq!(
            *with_memo, *without,
            "memo changed the satisfaction set of {f}"
        );
        sizes.push(with_memo.len());
    }
    assert!(
        artifact.subterm_memo_len() > 0,
        "the family never filled the unified subterm memo"
    );
    sizes
}

/// Pinned satisfaction-set sizes on the three paper walkthrough
/// systems. The formula families deliberately repeat `(agent, body)`
/// pairs — `K_i φ` alone and again inside `C_G φ` — so the memoized
/// pass actually hits the cache.
#[test]
fn walkthrough_sizes_are_memo_invariant() {
    let p1 = AgentId(0);
    let p3 = AgentId(2);
    let group = [AgentId(0), AgentId(1)];

    let coin = secret_coin().expect("builds");
    let coin_formulas = [
        Formula::prop("c=h").known_by(p3),
        Formula::prop("c=h").known_by(p3).common(group),
        Formula::prop("c=h").k_alpha(p1, rat!(1 / 2)),
        Formula::prop("c=h").common_alpha(group, rat!(1 / 2)),
    ];
    assert_eq!(
        sizes_memo_vs_fresh(&coin, &coin_formulas),
        [1, 0, 2, 2],
        "secret coin sizes drifted"
    );

    let p2 = AgentId(1);
    let tosses = async_coin_tosses(4).expect("builds");
    let tosses_formulas = [
        Formula::prop("recent=h").eventually(),
        Formula::prop("recent=h").known_by(p2),
        Formula::prop("recent=h").k_alpha(p2, rat!(1 / 2)),
        Formula::prop("recent=h")
            .k_alpha(p2, rat!(1 / 2))
            .common([p2]),
    ];
    assert_eq!(
        sizes_memo_vs_fresh(&tosses, &tosses_formulas),
        [64, 0, 64, 64],
        "async tosses sizes drifted"
    );

    let attack = ca1(3, Rat::new(1, 2)).expect("builds");
    let attack_formulas = [
        Formula::prop("coordinated").eventually().known_by(p1),
        Formula::prop("coordinated").eventually().common(group),
        Formula::prop("coordinated")
            .eventually()
            .k_alpha(p1, rat!(1 / 2)),
    ];
    assert_eq!(
        sizes_memo_vs_fresh(&attack, &attack_formulas),
        [10, 0, 28],
        "coordinated attack sizes drifted"
    );
}

/// Property: interleaving formulas that share knowledge subterms on one
/// artifact gives exactly the answers of fresh reference models.
/// The interleave order is adversarial for a buggy memo: `C_G φ` first
/// (seeding the memo from mid-fixpoint sweeps), then the bare `K_i φ`
/// it contains, then the reverse pairing.
#[test]
fn interleaved_shared_subterms_match_fresh() {
    cases("memo_interleaving", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = Formula::prop(&props[rng.index(props.len())]);
        let agents: Vec<AgentId> = (0..spec.agents).map(AgentId).collect();
        let i = agents[rng.index(agents.len())];
        let queries = [
            phi.clone().common(agents.iter().copied()),
            phi.clone().known_by(i),
            phi.clone().known_by(i).common(agents.iter().copied()),
            phi.clone().k_alpha(i, rat!(1 / 2)),
            phi.clone().not().known_by(i).not(),
        ];
        let post = ProbAssignment::new(&sys, Assignment::post());
        let artifact = ModelArtifact::new(Arc::new(sys.clone()), Assignment::post());
        let memoized = artifact.ctx();
        for f in &queries {
            let shared = memoized.sat(f).expect("artifact checks");
            let fresh = Model::new(&post).sat(f).expect("model checks");
            assert_eq!(
                *shared, *fresh,
                "memoized artifact disagrees with a fresh reference on {f}"
            );
        }
        // And the memo entry for (i, sat φ) matches a fresh class scan.
        let sat_phi = memoized.sat(&phi).expect("artifact checks");
        assert_eq!(
            memoized.knows_set(i, &sat_phi),
            Model::new(&post).knows_set(i, &sat_phi),
            "memoized knows_set diverged from the reference scan"
        );
    });
}

/// The PR 4 warm path, pinned through the kpa-trace registry: two
/// `Pr_i ≥ α` formulas over the *same* body visit the same spaces (via
/// the sample-plan table) with the same sat set, so the second sweep
/// re-reads the per-class `Pr` memo instead of growing it.
///
/// Registry counters are process-global and only ever increase, so the
/// assertions below are written as *delta > 0* across this test's own
/// operations — monotone-safe even when other tests in this binary run
/// concurrently and bump the same counters. Exact equalities stay on
/// the artifact's own state (`pr_memo_len`), which is private to this
/// test.
#[test]
fn interleaved_pr_ge_thresholds_hit_the_plan_and_pr_memo() {
    // Tracing must be on for the registry to record anything; it is
    // observationally invisible (see tests/trace_invisibility.rs).
    kpa::trace::set_enabled(true);
    let registry = kpa::trace::registry();

    let sys = async_coin_tosses(3).expect("builds");
    let p1 = AgentId(0);
    let artifact = ModelArtifact::new(Arc::new(sys.clone()), Assignment::post());
    let ctx = artifact.ctx();

    let phi = Formula::prop("recent=h");
    let weak = phi.clone().pr_ge(p1, rat!(1 / 4));
    let strong = phi.clone().pr_ge(p1, rat!(3 / 4));

    let before_first = registry.snapshot();
    let sat_weak = ctx.sat(&weak).expect("artifact checks").clone();
    let after_first = registry.snapshot();
    let len_after_first = artifact.pr_memo_len();
    assert!(len_after_first > 0, "first sweep must seed the Pr memo");

    // Same body, same classes, different threshold: the memo already
    // holds every (space, sat-set) inner measure the second sweep
    // needs, so it may not insert — only hit.
    let sat_strong = ctx.sat(&strong).expect("artifact checks").clone();
    let after_second = registry.snapshot();
    assert_eq!(
        artifact.pr_memo_len(),
        len_after_first,
        "a shared-class threshold family must not grow the Pr memo"
    );
    let second_sweep = after_second.delta_counters(&after_first);
    assert!(
        second_sweep.get("logic.pr_memo_hit").copied().unwrap_or(0) > 0,
        "the second threshold sweep must be answered from the Pr memo"
    );

    // Both sweeps resolved their spaces through the batched plan table:
    // one sample extraction per class, fewer classes than points.
    let both_sweeps = after_second.delta_counters(&before_first);
    assert!(
        both_sweeps.get("logic.plan_hit").copied().unwrap_or(0) > 0,
        "sweeps must take the plan table path"
    );
    assert_eq!(
        artifact.plans_built(),
        sys.agent_count(),
        "the artifact builds every agent's plan up front"
    );
    let plan = artifact.core().sample_plan(&sys, p1);
    assert!(plan.is_batched());
    assert_eq!(plan.extractions(), plan.classes());
    assert!(plan.extractions() < sys.point_count());

    // And the verdicts are coherent: Pr ≥ 3/4 implies Pr ≥ 1/4.
    assert!(sat_strong.is_subset(&sat_weak));
}
