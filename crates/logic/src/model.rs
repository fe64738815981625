//! Model checking `L(Φ)` over finite systems — the reference tree
//! walker.
//!
//! A [`Model`] pairs a [`ProbAssignment`] (which already pairs a system
//! with a sample-space assignment) with the direct reading of the
//! paper's satisfaction relation: one `match` arm per `Formula`
//! constructor, mapping each formula to the exact set of points
//! satisfying it. All semantics follow Sections 2, 5, and 8 of the
//! paper; the only departure forced by finite horizons is the temporal
//! fragment, which uses finite-trace semantics: `◯φ` is false at the
//! horizon, and `φ U ψ` requires `ψ` within the horizon.
//!
//! Satisfaction sets are dense [`PointSet`] bitsets, so the Boolean
//! connectives are word-wise loops, `Kᵢ` is a subset scan over the
//! agent's cached local classes, `◯` is a word shift
//! ([`PointSet::precursors`]), and `U` is a least-fixpoint of shifts.
//! The `Kᵢ` scan and the `Prᵢ ≥ α` space sweep run on the in-repo
//! [`kpa_pool`] slice pool and reduce by unioning
//! fixed-boundary chunk partials in chunk order, so the resulting
//! bitsets are bit-identical to a serial evaluation at any thread count
//! (see `DESIGN.md`, "Deterministic parallel sweeps").
//!
//! # Reference status
//!
//! `Model` is the definition, not the production evaluator (DESIGN
//! §3.2f). Queries in `kpa-serve` and the shared benches run through
//! [`ModelArtifact`](crate::ModelArtifact) +
//! [`EvalCtx`](crate::EvalCtx), which compile formulas into a
//! hash-consed DAG and memoize per subterm and per `(space, set)`
//! inner measure. `Model` keeps none of that: its only state is a
//! per-model formula cache (so `sat` hands out shared `Arc`s and a
//! repeated subformula is walked once), and it resolves spaces through
//! the assignment's batched [`kpa_assign::SamplePlan`], without which
//! a million-point sweep re-extracts one sample per point. It shares
//! the `Kᵢ` class scan, the `Prᵢ ≥ α` sweep, and the `U`/`C_G`
//! fixpoints with the artifact as plain functions, so the
//! artifact-vs-`Model` differentials pin exactly compilation and
//! memoization as invisible.

use crate::artifact::{common_gfp, knows_scan, pr_ge_sweep, until_set};
use crate::error::LogicError;
use crate::formula::Formula;
use kpa_assign::{ProbAssignment, ShardMap};
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId};
use std::sync::Arc;

/// The set of points satisfying a formula (re-exported from
/// `kpa-system`'s dense bitset kernel).
pub use kpa_system::PointSet;

/// The reference model checker for one system and probability
/// assignment.
///
/// # Examples
///
/// ```
/// use kpa_measure::rat;
/// use kpa_system::{AgentId, PointId, ProtocolBuilder, TreeId};
/// use kpa_assign::{Assignment, ProbAssignment};
/// use kpa_logic::{Formula, Model};
///
/// let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
///     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
///     .build()?;
/// let post = ProbAssignment::new(&sys, Assignment::post());
/// let model = Model::new(&post);
///
/// // With the posterior assignment, p1 knows Pr(heads) = 1/2 at time 1.
/// let p1 = AgentId(0);
/// let f = Formula::prop("c=h").k_interval(p1, rat!(1 / 2), rat!(1 / 2));
/// let c = PointId { tree: TreeId(0), run: 0, time: 1 };
/// assert!(model.holds_at(&f, c)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Model<'a, 's> {
    pa: &'a ProbAssignment<'s>,
    all: Arc<PointSet>,
    /// Formula → satisfaction set, for every (sub)formula this model
    /// has walked.
    cache: ShardMap<Formula, Arc<PointSet>>,
}

impl<'a, 's> Model<'a, 's> {
    /// Builds a model checker over the given probability assignment.
    #[must_use]
    pub fn new(pa: &'a ProbAssignment<'s>) -> Model<'a, 's> {
        Model {
            pa,
            all: Arc::new(pa.system().full_points()),
            cache: ShardMap::new("logic.sat_cache"),
        }
    }

    /// The probability assignment being checked against.
    #[must_use]
    pub fn assignment(&self) -> &'a ProbAssignment<'s> {
        self.pa
    }

    /// The exact set of points satisfying `f`.
    ///
    /// # Errors
    ///
    /// [`LogicError::UnknownProp`] for unregistered propositions,
    /// [`LogicError::EmptyGroup`] for `C_G` over an empty `G`, and
    /// [`LogicError::Assign`] if a probability space cannot be built
    /// (REQ violations of the assignment). Subformulas are visited
    /// left to right and a group is checked before its body, so the
    /// first error met in that order is the one reported.
    pub fn sat(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        if let Some(hit) = self.cache.get(f) {
            kpa_trace::count!("logic.sat_cache_hit");
            return Ok(hit);
        }
        // One evaluated formula node (sub-nodes recurse through `sat`
        // and are counted at their own entry).
        kpa_trace::count!("logic.sat_eval");
        let sys = self.pa.system();
        let result: PointSet = match f {
            Formula::True => (*self.all).clone(),
            Formula::Prop(name) => {
                let id = sys
                    .prop_id(name)
                    .ok_or_else(|| LogicError::UnknownProp { name: name.clone() })?;
                sys.points_satisfying(id)
            }
            Formula::Not(x) => self.sat(x)?.complement(),
            Formula::And(xs) => {
                let mut acc = (*self.all).clone();
                for x in xs {
                    acc.intersect_with(&*self.sat(x)?);
                }
                acc
            }
            Formula::Or(xs) => {
                let mut acc = sys.empty_points();
                for x in xs {
                    acc.union_with(&*self.sat(x)?);
                }
                acc
            }
            Formula::Knows(i, x) => self.knows_set(*i, &*self.sat(x)?),
            Formula::PrGe(i, alpha, x) => self.pr_ge_set(*i, *alpha, &*self.sat(x)?)?,
            // ◯φ: the points whose time-successor satisfies φ — one
            // word shift in the dense layout.
            Formula::Next(x) => self.sat(x)?.precursors(),
            Formula::Until(x, y) => {
                let hold = self.sat(x)?;
                until_set(&hold, &*self.sat(y)?)
            }
            Formula::Common(group, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                common_gfp(&self.all, group, &*self.sat(x)?, |i, body| {
                    Ok(self.knows_set(i, body))
                })?
            }
            Formula::CommonGe(group, alpha, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                // Kᵢ^α(body) = Kᵢ(Prᵢ(body) ≥ α).
                common_gfp(&self.all, group, &*self.sat(x)?, |i, body| {
                    Ok(self.knows_set(i, &self.pr_ge_set(i, *alpha, body)?))
                })?
            }
        };
        Ok(self.cache.insert_or_get(f.clone(), Arc::new(result)))
    }

    /// Whether `f` holds at the point `c`.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn holds_at(&self, f: &Formula, c: PointId) -> Result<bool, LogicError> {
        Ok(self.sat(f)?.contains(c))
    }

    /// Whether `f` holds at *every* point of the system — the form of
    /// specification used for coordinated attack in Section 8.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn holds_everywhere(&self, f: &Formula) -> Result<bool, LogicError> {
        Ok(*self.sat(f)? == *self.all)
    }

    /// The `(inner, outer)` probability bounds agent `i` assigns to `f`
    /// at `c` under this model's assignment.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn prob_interval(
        &self,
        agent: AgentId,
        c: PointId,
        f: &Formula,
    ) -> Result<(Rat, Rat), LogicError> {
        let sat = self.sat(f)?;
        Ok(self.pa.interval(agent, c, &*sat)?)
    }

    /// `Kᵢ S`: the points where agent `i` knows the *set* `S` (every
    /// point it considers possible lies in `S`). Exposed because the
    /// betting machinery of Sections 6–7 quantifies over raw point sets.
    /// One word-wise subset test per local class: a class is either
    /// absorbed whole or not at all.
    #[must_use]
    pub fn knows_set(&self, agent: AgentId, sat: &PointSet) -> PointSet {
        knows_scan(self.pa.system(), agent, sat)
    }

    /// `Prᵢ(S) ≥ α` as a set: the points `c` where the inner measure of
    /// `S` in agent `i`'s space at `c` is at least `α`.
    ///
    /// Spaces come from the assignment's batched
    /// [`kpa_assign::SamplePlan`] (the same `Arc`s as
    /// [`ProbAssignment::space`]; points the plan does not cover fall
    /// back to the per-point path, reproducing its exact errors), and a
    /// chunk-local verdict table measures each distinct space once per
    /// chunk.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn pr_ge_set(
        &self,
        agent: AgentId,
        alpha: Rat,
        sat: &PointSet,
    ) -> Result<PointSet, LogicError> {
        let sys = self.pa.system();
        let mut sets = pr_ge_sweep(sys, self.pa.core(), agent, &[alpha], sat, &|space, s| {
            space.inner_measure(s)
        })?;
        Ok(sets.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_assign::Assignment;
    use kpa_measure::rat;
    use kpa_system::{ProtocolBuilder, System, TreeId};

    fn intro_system() -> System {
        ProtocolBuilder::new(["p1", "p2", "p3"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
            .build()
            .unwrap()
    }

    fn pt(tree: usize, run: usize, time: usize) -> PointId {
        PointId {
            tree: TreeId(tree),
            run,
            time,
        }
    }

    #[test]
    fn boolean_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let heads = Formula::prop("c=h");
        let all = sys.point_count();
        assert_eq!(m.sat(&Formula::True).unwrap().len(), all);
        assert_eq!(m.sat(&Formula::falsum()).unwrap().len(), 0);
        assert_eq!(m.sat(&heads).unwrap().len(), 1);
        assert_eq!(m.sat(&heads.clone().not()).unwrap().len(), all - 1);
        assert_eq!(
            m.sat(&Formula::and([heads.clone(), heads.clone().not()]))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            m.sat(&Formula::or([heads.clone(), heads.clone().not()]))
                .unwrap()
                .len(),
            all
        );
        assert!(m.holds_everywhere(&heads.clone().implies(heads)).unwrap());
    }

    #[test]
    fn unknown_prop_is_reported() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        assert!(matches!(
            m.sat(&Formula::prop("nope")),
            Err(LogicError::UnknownProp { .. })
        ));
    }

    #[test]
    fn knowledge_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let heads = Formula::prop("c=h");
        // p3 saw the coin: it knows heads exactly at the heads point.
        let k3 = heads.clone().known_by(AgentId(2));
        assert_eq!(*m.sat(&k3).unwrap(), sys.point_set([pt(0, 0, 1)]));
        // p1 never knows heads.
        let k1 = heads.known_by(AgentId(0));
        assert!(m.sat(&k1).unwrap().is_empty());
    }

    #[test]
    fn probability_semantics_post_vs_fut() {
        let sys = intro_system();
        let heads = Formula::prop("c=h");
        let p1 = AgentId(0);

        let post = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&post);
        // K₁(Pr₁(heads) = 1/2) at time 1 — the "posterior" answer.
        let f = heads.clone().k_interval(p1, rat!(1 / 2), rat!(1 / 2));
        assert!(m.holds_at(&f, pt(0, 0, 1)).unwrap());
        assert!(m.holds_at(&f, pt(0, 1, 1)).unwrap());

        let fut = ProbAssignment::new(&sys, Assignment::fut());
        let m = Model::new(&fut);
        // K₁(Pr₁(heads) = 1 ∨ Pr₁(heads) = 0) — the "future" answer:
        // the disjunction of the two probability claims is known…
        let pr1 = heads.clone().pr_ge(p1, Rat::ONE);
        let pr0 = heads.clone().not().pr_ge(p1, Rat::ONE);
        let disj = Formula::or([pr1.clone(), pr0.clone()]).known_by(p1);
        assert!(m.holds_at(&disj, pt(0, 0, 1)).unwrap());
        assert!(m.holds_at(&disj, pt(0, 1, 1)).unwrap());
        // …but p1 does not know WHICH disjunct holds…
        assert!(!m.holds_at(&pr1.known_by(p1), pt(0, 0, 1)).unwrap());
        assert!(!m.holds_at(&pr0.known_by(p1), pt(0, 1, 1)).unwrap());
        // …and certainly not that the probability is 1/2.
        let k_pr_half = heads.k_alpha(p1, rat!(1 / 2));
        assert!(!m.holds_at(&k_pr_half, pt(0, 1, 1)).unwrap());
    }

    #[test]
    fn temporal_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let heads = Formula::prop("c=h");
        // ◯heads holds at time 0 of the heads run only.
        assert_eq!(
            *m.sat(&heads.clone().next()).unwrap(),
            sys.point_set([pt(0, 0, 0)])
        );
        // ◇heads holds at both points of the heads run.
        assert_eq!(
            *m.sat(&heads.clone().eventually()).unwrap(),
            sys.point_set([pt(0, 0, 0), pt(0, 0, 1)])
        );
        // □(¬heads) holds everywhere on the tails run.
        assert_eq!(
            *m.sat(&heads.clone().not().always()).unwrap(),
            sys.point_set([pt(0, 1, 0), pt(0, 1, 1)])
        );
        // Until: ¬heads U heads ≡ ◇heads in this two-step system.
        assert_eq!(
            m.sat(&heads.clone().not().until(heads.clone())).unwrap(),
            m.sat(&heads.eventually()).unwrap()
        );
    }

    #[test]
    fn common_knowledge_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let g = [AgentId(0), AgentId(1), AgentId(2)];
        // "true" is trivially common knowledge.
        assert!(m.holds_everywhere(&Formula::True.common(g)).unwrap());
        // heads is known to p3 but not common knowledge (p1 doesn't know).
        let heads = Formula::prop("c=h");
        assert!(m.sat(&heads.clone().common(g)).unwrap().is_empty());
        // Empty groups are rejected.
        assert!(matches!(
            m.sat(&heads.common(Vec::<AgentId>::new())),
            Err(LogicError::EmptyGroup)
        ));
    }

    #[test]
    fn probabilistic_common_knowledge() {
        let sys = intro_system();
        let prior = ProbAssignment::new(&sys, Assignment::prior());
        let m = Model::new(&prior);
        let g = [AgentId(0), AgentId(1)];
        let heads = Formula::prop("c=h");
        // Under the prior, heads has probability 1/2 at every point, so
        // C^{1/2}_G(◇heads ∨ heads-ever): use the run-fact ◇heads∨heads.
        let heads_run = Formula::or([heads.clone().eventually(), heads]);
        let f = heads_run.common_alpha(g, rat!(1 / 2));
        assert!(m.holds_everywhere(&f).unwrap());
        // But not with any α > 1/2.
        let sys2 = intro_system();
        let prior2 = ProbAssignment::new(&sys2, Assignment::prior());
        let m2 = Model::new(&prior2);
        let heads2 = Formula::prop("c=h");
        let hr2 = Formula::or([heads2.clone().eventually(), heads2]);
        let g2 = [AgentId(0), AgentId(1)];
        assert!(m2
            .sat(&hr2.common_alpha(g2, rat!(2 / 3)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn prob_interval_convenience() {
        let sys = intro_system();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&post);
        let (lo, hi) = m
            .prob_interval(AgentId(0), pt(0, 0, 1), &Formula::prop("c=h"))
            .unwrap();
        assert_eq!((lo, hi), (rat!(1 / 2), rat!(1 / 2)));
    }

    #[test]
    fn caching_returns_shared_sets() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let f = Formula::prop("c=h").known_by(AgentId(2));
        let a = m.sat(&f).unwrap();
        let b = m.sat(&f).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
