//! The betting game of Section 6, played for real.
//!
//! `p_j` secretly tosses a coin and offers `p_i` bets on heads. The
//! example shows Theorem 7 operationally: the safe bets are exactly the
//! `K_i^α` facts under the opponent-indexed assignment `P^j`; an unsafe
//! bet comes with an explicit money-extracting strategy; and a
//! Monte-Carlo simulation of the game confirms the analytic verdicts.
//!
//! Sample spaces are resolved through the opponent assignment's batched
//! [`SamplePlan`](kpa::assign::SamplePlan) — one table shared by every
//! query below, instead of a rebuild per point — and the run ends with
//! a `kpa-trace` report showing the cache/kernel traffic the queries
//! generated.
//!
//! Run with: `cargo run --example betting_game`

use kpa::betting::{
    inner_expected_winnings, simulate_average_winnings, BetRule, BettingGame, Strategy,
};
use kpa::measure::{rat, Rng64};
use kpa::system::{PointId, ProtocolBuilder, TreeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Trace everything the example does (equivalently: KPA_TRACE=1).
    kpa::trace::set_enabled(true);
    kpa::trace::registry().reset();

    // p_j tosses a coin that lands heads with probability 2/3 and
    // watches it; p_i and a neutral peer see nothing.
    let sys = ProtocolBuilder::new(["i", "j", "peer"])
        .coin("c", &[("h", rat!(2 / 3)), ("t", rat!(1 / 3))], &["j"])
        .build()?;
    let i = sys.agent_id("i").unwrap();
    let j = sys.agent_id("j").unwrap();
    let peer = sys.agent_id("peer").unwrap();
    let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
    let c = PointId {
        tree: TreeId(0),
        run: 0,
        time: 1,
    };

    println!("fact φ = \"the coin landed heads\" (true with prior probability 2/3)\n");

    // Against the peer (same knowledge as p_i), Bet(φ, 2/3) is safe:
    // accepting payoffs ≥ 3/2 at least breaks even.
    let vs_peer = BettingGame::new(&sys, i, peer);
    let rule = BetRule::new(heads.clone(), rat!(2 / 3))?;
    println!(
        "vs peer: Bet(φ, 2/3) safe? {}  (Theorem 7: K_i^{{2/3}}φ holds)",
        vs_peer.is_safe_at(c, &rule)?
    );
    assert!(vs_peer.is_safe_at(c, &rule)?);
    assert!(vs_peer.theorem7_holds(&rule)?);

    // Against p_j, who saw the coin, the same bet is NOT safe…
    let vs_j = BettingGame::new(&sys, i, j);
    println!("vs p_j:  Bet(φ, 2/3) safe? {}", vs_j.is_safe_at(c, &rule)?);
    assert!(!vs_j.is_safe_at(c, &rule)?);

    // …and here is the strategy that takes p_i's money: offer the
    // minimum acceptable payoff exactly when p_j saw tails.
    let (strategy, witness) = vs_j.losing_strategy_at(c, &rule)?.expect("unsafe bet");
    println!(
        "  extracting strategy: offer {} only in p_j's state {:?}",
        rule.min_payoff(),
        sys.local_name(j, witness)
    );
    // Resolve p_i's sample space at the witness through the batched
    // sample plan: one extraction per information-set class up front,
    // then a table lookup per point (no per-point space rebuild).
    let plan = vs_j.opp_assignment().sample_plan(i);
    println!(
        "  sample plan: {} class(es), {} extraction(s) covering {} point(s), batched: {}",
        plan.classes(),
        plan.extractions(),
        plan.covered(),
        plan.is_batched()
    );
    let cell = plan
        .space(witness)
        .cloned()
        .expect("the plan covers every point of the system");
    let analytic = inner_expected_winnings(&cell, &sys, j, &rule, &strategy)?;
    println!("  p_i's expected winnings there (analytic):  {analytic}");

    // Simulate the game to confirm: play 100k rounds at the witness.
    let mut rng = Rng64::new(42);
    let sim = simulate_average_winnings(&mut rng, &sys, j, &cell, &rule, &strategy, 100_000);
    println!("  p_i's average winnings there (simulated):  {sim:.4}");
    assert!((sim - analytic.to_f64()).abs() < 0.02);

    // Theorem 7 as a whole: safety ⟺ K^α, for a sweep of thresholds.
    println!("\nTheorem 7 sweep (bettor i vs opponent j):");
    for alpha in [rat!(1 / 4), rat!(1 / 2), rat!(2 / 3), rat!(1)] {
        let rule = BetRule::new(heads.clone(), alpha)?;
        let safe = vs_j.safe_points(&rule)?;
        let know = vs_j.k_alpha_points(&rule)?;
        println!(
            "  α = {alpha:>4}: safe at {} point(s), K^α at {} point(s), equal: {}",
            safe.len(),
            know.len(),
            safe == know
        );
        assert_eq!(safe, know);
    }

    // A constant fair offer against the peer: exactly break-even, and
    // the simulation agrees. The peer game gets its own plan (plans are
    // per-assignment artifacts, cached on the `ProbAssignment`).
    let fair = Strategy::constant(rat!(3 / 2));
    let space = vs_peer
        .opp_assignment()
        .sample_plan(i)
        .space(c)
        .cloned()
        .expect("the plan covers every point of the system");
    let sim = simulate_average_winnings(&mut rng, &sys, peer, &space, &rule, &fair, 100_000);
    println!("\nfair constant offer vs peer: simulated average winnings {sim:+.4} (expected 0)");

    // What all of the above cost, in cache and kernel traffic.
    print!("\n{}", kpa::trace::registry().snapshot().render_table());
    Ok(())
}
