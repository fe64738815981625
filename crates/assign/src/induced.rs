//! Probability assignments induced by sample-space assignments.
//!
//! This is the construction at the core of Section 5: given the labeled
//! computation trees (hence a distribution on the runs of each tree) and
//! a sample space `S_ic` satisfying REQ1 and REQ2, the probability of a
//! measurable `S ⊆ S_ic` is the conditional probability that a run
//! passes through `S` given that it passes through `S_ic`. Propositions
//! 1 and 2 of the paper guarantee the construction is well defined; the
//! implementation checks REQ1/REQ2 dynamically and reports violations as
//! [`AssignError`]s.

use crate::dense::DensePointSpace;
use crate::error::AssignError;
use crate::plan::SamplePlan;
use crate::sample::Assignment;
use kpa_measure::{BlockSpace, MemberSet, Rat};
use kpa_system::{AgentId, PointId, PointSet, System};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

/// The probability space the construction of Proposition 2 assigns to an
/// agent at a point: a [`BlockSpace`] over points whose blocks are runs.
pub type PointSpace = BlockSpace<PointId>;

/// Cache from (agent, sample bitset) to the induced space — wrapped in
/// its precomputed dense measure kernel. [`PointSet`]
/// hashes its words directly, so the key costs one word sweep. Guarded
/// by [`Mutex`]es (not `RefCell`) so a `ProbAssignment` can be shared by
/// reference across the workers of a `kpa-pool` parallel sweep; locks
/// are held only for the lookup/insert, never while a space is built,
/// so concurrent builders of the same key simply race to insert
/// structurally identical spaces — results are unaffected.
type SpaceCache = HashMap<(AgentId, PointSet), Arc<DensePointSpace>>;

/// The cache is split into shards selected by a cheap pre-hash of the
/// sample. `HashMap` hashes the full word vector of the key *inside*
/// the shard lock; with one global lock that word sweep serializes
/// every worker of a parallel sweep, while 16 shards make simultaneous
/// collisions rare at the pool's thread counts.
const SPACE_SHARDS: usize = 16;

/// A probability assignment `P`: for every agent `pᵢ` and point `c`, the
/// probability space `(S_ic, X_ic, μ_ic)` induced by a sample-space
/// [`Assignment`] and the run distributions of a [`System`].
///
/// Spaces are cached per distinct sample, so uniform assignments (whose
/// samples repeat across the points of a class) cost one construction
/// per class.
///
/// # Examples
///
/// ```
/// use kpa_measure::rat;
/// use kpa_system::{AgentId, PointId, ProtocolBuilder, TreeId};
/// use kpa_assign::{Assignment, ProbAssignment};
///
/// let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
///     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
///     .build()?;
/// let post = ProbAssignment::new(&sys, Assignment::post());
/// let c = PointId { tree: TreeId(0), run: 0, time: 1 };
/// let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
///
/// // After the toss, p1's posterior probability of heads is still 1/2 …
/// assert_eq!(post.prob(AgentId(0), c, &heads)?, rat!(1 / 2));
/// // … while the future assignment says it is 0 or 1 (here: 1).
/// let fut = ProbAssignment::new(&sys, Assignment::fut());
/// assert_eq!(fut.prob(AgentId(0), c, &heads)?, rat!(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ProbAssignment<'s> {
    sys: &'s System,
    core: AssignCore,
}

/// The shareable core of a probability assignment: the sample-space
/// [`Assignment`] together with the sharded space cache and the
/// per-agent sample-plan table, holding **no** borrow of the
/// [`System`] — every method takes the system as an argument.
///
/// This is the `Send + Sync` half of the artifact/context split:
/// [`ProbAssignment`] pairs a core with a borrowed system for the
/// classic by-reference API, while `kpa-logic`'s `ModelArtifact`
/// embeds a core next to an `Arc<System>` so one immutable artifact
/// can serve queries from any number of threads. All interior state is
/// sharded (the space cache) or write-once (the plan table) — there is
/// no global mutex anywhere on the query path.
#[derive(Debug)]
pub struct AssignCore {
    assignment: Assignment,
    cache: [Mutex<SpaceCache>; SPACE_SHARDS],
    /// Per-agent batched sample plans, built lazily on first request.
    /// `OnceLock` gives each agent exactly one builder — racers block
    /// on the winner instead of redundantly walking the whole system —
    /// and lock-free reads thereafter: the warm path is one atomic
    /// load, replacing the global plan mutex this table supersedes
    /// (both the old `ProbAssignment` mutex map and the old
    /// `Model::plan_memo` consolidated here).
    plans: Box<[OnceLock<Arc<SamplePlan>>]>,
}

impl AssignCore {
    /// A fresh core for `assignment` over a system with `agent_count`
    /// agents (the plan table is sized once, up front).
    #[must_use]
    pub fn new(assignment: Assignment, agent_count: usize) -> AssignCore {
        AssignCore {
            assignment,
            cache: std::array::from_fn(|_| Mutex::new(SpaceCache::new())),
            plans: (0..agent_count).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The sample-space assignment.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The sample `S_ic`, as a dense [`PointSet`].
    #[must_use]
    pub fn sample(&self, sys: &System, agent: AgentId, c: PointId) -> PointSet {
        self.assignment.sample(sys, agent, c)
    }

    /// The induced probability space `(S_ic, X_ic, μ_ic)` — see
    /// [`ProbAssignment::space`] for the full contract.
    ///
    /// # Errors
    ///
    /// [`AssignError::Req2Violated`] if the sample is empty;
    /// [`AssignError::Req1Violated`] if it spans several trees.
    pub fn space(
        &self,
        sys: &System,
        agent: AgentId,
        c: PointId,
    ) -> Result<Arc<DensePointSpace>, AssignError> {
        let sample = self.sample(sys, agent, c);
        self.space_of_sample(sys, agent, c, sample)
    }

    /// The cached induced space of an already-extracted `sample` (the
    /// shared tail of [`AssignCore::space`] and the plan builder).
    /// `c` is used only for error reporting, so callers must pass the
    /// point the sample was extracted at.
    fn space_of_sample(
        &self,
        sys: &System,
        agent: AgentId,
        c: PointId,
        mut sample: PointSet,
    ) -> Result<Arc<DensePointSpace>, AssignError> {
        // Samples are intersection-built, so their footprint can be
        // looser than the bits warrant; this set is about to become a
        // long-lived cache key that is compared, subset-tested, and
        // iterated on every probe, so one exact-range pass pays off.
        sample.tighten_footprint();
        let Some(first) = sample.first() else {
            return Err(AssignError::Req2Violated { agent, point: c });
        };
        if !sample.is_subset(sys.tree_set(first.tree)) {
            return Err(AssignError::Req1Violated { agent, point: c });
        }
        let shard_idx = shard_index(agent, first, sample.len());
        let shard = &self.cache[shard_idx];
        if let Some(space) = lock(shard).get(&(agent, sample.clone())) {
            trace_space_cache(shard_idx, true);
            return Ok(Arc::clone(space));
        }
        trace_space_cache(shard_idx, false);
        // Built outside the lock: concurrent sweeps may construct the
        // same space twice, but the entries are structurally equal, so
        // whichever insert wins the results are identical.
        let universe = Arc::clone(sample.universe());
        let pairs = sample.iter().map(|p| (p, p.run_id()));
        let space = BlockSpace::new(pairs, |run| sys.run_prob(*run))?;
        let space = Arc::new(DensePointSpace::new(space, universe));
        Ok(Arc::clone(
            lock(shard).entry((agent, sample)).or_insert(space),
        ))
    }

    /// The batched [`SamplePlan`] for `agent` — see
    /// [`ProbAssignment::sample_plan`] for the full contract. The plan
    /// is built at most once per agent; the warm path is a lock-free
    /// read of the write-once slot.
    #[must_use]
    pub fn sample_plan(&self, sys: &System, agent: AgentId) -> Arc<SamplePlan> {
        let Some(slot) = self.plans.get(agent.0) else {
            // An agent id beyond the table (only reachable through a
            // hand-built `AgentId`) still gets a correct plan — just an
            // uncached one, matching the system's own bounds.
            return Arc::new(self.build_plan(sys, agent));
        };
        if let Some(plan) = slot.get() {
            kpa_trace::count!("assign.plan_cache_hit");
            return Arc::clone(plan);
        }
        Arc::clone(slot.get_or_init(|| Arc::new(self.build_plan(sys, agent))))
    }

    /// [`AssignCore::space`] through the plan when available: one table
    /// lookup on the warm path, with per-point fallback (and hence
    /// exact naive errors) where the plan has no entry.
    ///
    /// # Errors
    ///
    /// As [`AssignCore::space`].
    pub fn planned_space(
        &self,
        sys: &System,
        agent: AgentId,
        c: PointId,
    ) -> Result<Arc<DensePointSpace>, AssignError> {
        let plan = self.sample_plan(sys, agent);
        match plan.space(c) {
            Some(space) => {
                kpa_trace::count!("assign.planned_space_hit");
                Ok(Arc::clone(space))
            }
            None => {
                kpa_trace::count!("assign.planned_space_fallback");
                self.space(sys, agent, c)
            }
        }
    }

    /// How many per-agent plans have been built so far (the artifact's
    /// plan table is write-once, so this only ever grows — up to the
    /// system's agent count).
    #[must_use]
    pub fn plans_built(&self) -> usize {
        self.plans
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// One ascending pass over the system's points, filling whole
    /// classes per extraction for the canonical assignments and single
    /// points for custom closures. REQ-violating points stay `None`.
    fn build_plan(&self, sys: &System, agent: AgentId) -> SamplePlan {
        let index = Arc::clone(sys.point_index());
        let mut table: Vec<Option<Arc<DensePointSpace>>> = vec![None; index.total()];
        let batched = !matches!(self.assignment, Assignment::Custom { .. });
        let mut extractions = 0usize;
        let mut covered = 0usize;
        let mut req_skips = 0u64;
        let mut distinct: HashSet<usize> = HashSet::new();
        for c in sys.points() {
            let ci = index.index_of(c);
            if table[ci].is_some() {
                continue;
            }
            let sample = self.sample(sys, agent, c);
            extractions += 1;
            let Ok(space) = self.space_of_sample(sys, agent, c, sample.clone()) else {
                // REQ1/REQ2 violation: leave the point unplanned so the
                // fallback path reports the identical per-point error.
                req_skips += 1;
                continue;
            };
            distinct.insert(Arc::as_ptr(&space) as usize);
            if batched {
                // Canonical assignments are uniform (d ∈ S_ic implies
                // S_id = S_ic), so the space at c is the space at every
                // point of the sample; classes partition the points, so
                // each entry is written exactly once.
                for d in sample.iter() {
                    let di = index.index_of(d);
                    if table[di].is_none() {
                        table[di] = Some(Arc::clone(&space));
                        covered += 1;
                    }
                }
            } else {
                table[ci] = Some(space);
                covered += 1;
            }
        }
        // Plan-build fanout: how much one extraction bought (batched
        // plans fill whole classes; per-point plans fill one entry) and
        // how many points stayed unplanned because the assignment
        // violates REQ1/REQ2 there.
        kpa_trace::count!("assign.plan_builds");
        kpa_trace::count!("assign.plan_extractions", extractions as u64);
        kpa_trace::count!("assign.plan_covered", covered as u64);
        kpa_trace::count!("assign.plan_req_skips", req_skips);
        if batched {
            kpa_trace::count!("assign.plan_batched");
        } else {
            kpa_trace::count!("assign.plan_per_point");
        }
        if let Some(fanout) = covered.checked_div(extractions) {
            kpa_trace::record!("assign.plan_fanout", fanout as u64);
        }
        SamplePlan::new(
            agent,
            index,
            table,
            extractions,
            distinct.len(),
            covered,
            batched,
        )
    }
}

impl<'s> ProbAssignment<'s> {
    /// Pairs a system with a sample-space assignment.
    #[must_use]
    pub fn new(sys: &'s System, assignment: Assignment) -> ProbAssignment<'s> {
        ProbAssignment {
            sys,
            core: AssignCore::new(assignment, sys.agent_count()),
        }
    }

    /// The underlying system.
    #[must_use]
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// The system-free [`AssignCore`] this assignment wraps — the half
    /// an artifact can own and share across threads.
    #[must_use]
    pub fn core(&self) -> &AssignCore {
        &self.core
    }

    /// The sample-space assignment.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        self.core.assignment()
    }

    /// The sample `S_ic`, as a dense [`PointSet`].
    #[must_use]
    pub fn sample(&self, agent: AgentId, c: PointId) -> PointSet {
        self.core.sample(self.sys, agent, c)
    }

    /// The induced probability space `(S_ic, X_ic, μ_ic)`, wrapped in
    /// its precomputed [`DensePointSpace`] word-mask kernel. The result
    /// derefs to the generic [`PointSpace`], so callers that only need
    /// the sample or expectations are unaffected; measure queries
    /// against `PointSet`s dispatch to the dense path.
    ///
    /// # Errors
    ///
    /// [`AssignError::Req2Violated`] if the sample is empty;
    /// [`AssignError::Req1Violated`] if it spans several trees.
    pub fn space(&self, agent: AgentId, c: PointId) -> Result<Arc<DensePointSpace>, AssignError> {
        self.core.space(self.sys, agent, c)
    }

    /// The batched [`SamplePlan`] for `agent`: a `point → space` table
    /// covering every point where the assignment is well defined,
    /// built with **one** sample extraction per class for the canonical
    /// assignments (see the [`crate::plan`] module docs for why that is
    /// exact) and canonicalized through the same per-sample cache as
    /// [`ProbAssignment::space`] — planned and naive spaces are the
    /// same `Arc`s. Built lazily on first request, then shared.
    #[must_use]
    pub fn sample_plan(&self, agent: AgentId) -> Arc<SamplePlan> {
        self.core.sample_plan(self.sys, agent)
    }

    /// [`ProbAssignment::space`] through the plan when available: one
    /// table lookup on the warm path, with per-point fallback (and
    /// hence exact naive errors) where the plan has no entry.
    ///
    /// # Errors
    ///
    /// As [`ProbAssignment::space`].
    pub fn planned_space(
        &self,
        agent: AgentId,
        c: PointId,
    ) -> Result<Arc<DensePointSpace>, AssignError> {
        self.core.planned_space(self.sys, agent, c)
    }

    /// `μ_ic(S_ic(φ))` for a measurable fact: the probability, according
    /// to agent `i` at `c`, of the fact denoted by `set` (a set of
    /// points; it is intersected with the sample).
    ///
    /// # Errors
    ///
    /// As [`ProbAssignment::space`], plus
    /// [`kpa_measure::MeasureError::NonMeasurable`] (wrapped) if the
    /// fact is not measurable — use [`ProbAssignment::inner`] /
    /// [`ProbAssignment::outer`] then.
    pub fn prob<S: MemberSet<PointId> + ?Sized>(
        &self,
        agent: AgentId,
        c: PointId,
        set: &S,
    ) -> Result<Rat, AssignError> {
        Ok(self.space(agent, c)?.measure(set)?)
    }

    /// The inner measure `(μ_ic)⁎(S_ic(φ))` — the paper's semantics for
    /// `Prᵢ(φ) ≥ α` when `φ` may be nonmeasurable.
    ///
    /// # Errors
    ///
    /// As [`ProbAssignment::space`].
    pub fn inner<S: MemberSet<PointId> + ?Sized>(
        &self,
        agent: AgentId,
        c: PointId,
        set: &S,
    ) -> Result<Rat, AssignError> {
        Ok(self.space(agent, c)?.inner_measure(set))
    }

    /// The outer measure `(μ_ic)*(S_ic(φ))`.
    ///
    /// # Errors
    ///
    /// As [`ProbAssignment::space`].
    pub fn outer<S: MemberSet<PointId> + ?Sized>(
        &self,
        agent: AgentId,
        c: PointId,
        set: &S,
    ) -> Result<Rat, AssignError> {
        Ok(self.space(agent, c)?.outer_measure(set))
    }

    /// `(inner, outer)` bounds in one call.
    ///
    /// # Errors
    ///
    /// As [`ProbAssignment::space`].
    pub fn interval<S: MemberSet<PointId> + ?Sized>(
        &self,
        agent: AgentId,
        c: PointId,
        set: &S,
    ) -> Result<(Rat, Rat), AssignError> {
        Ok(self.space(agent, c)?.measure_interval(set))
    }

    /// The tightest interval the agent *knows* at `c`: the worst-case
    /// inner and outer measures of `set` over every point the agent
    /// considers possible. `K_i^{[α,β]} φ` holds at `c` exactly for
    /// `α ≤ lo` and `β ≥ hi` of this interval (Section 6's discussion
    /// around Theorem 9).
    ///
    /// Repeated spaces are deduplicated: for a uniform assignment every
    /// point of a class shares one cached space (by [`Arc`] identity),
    /// so each distinct space contributes its fused interval exactly
    /// once — the min/max fold is order- and multiplicity-insensitive,
    /// so the result is unchanged.
    ///
    /// # Errors
    ///
    /// As [`ProbAssignment::space`].
    pub fn known_interval<S: MemberSet<PointId> + ?Sized>(
        &self,
        agent: AgentId,
        c: PointId,
        set: &S,
    ) -> Result<(Rat, Rat), AssignError> {
        let mut lo = Rat::ONE;
        let mut hi = Rat::ZERO;
        let mut seen: Vec<*const DensePointSpace> = Vec::new();
        for d in self.sys.indistinguishable(agent, c) {
            let space = self.space(agent, d)?;
            let ptr = Arc::as_ptr(&space);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let (l, h) = space.measure_interval(set);
            lo = lo.min(l);
            hi = hi.max(h);
        }
        Ok((lo, hi))
    }

    // ------------------------------------------------------------------
    // Structural predicates (Section 5/6 definitions).
    // ------------------------------------------------------------------

    /// REQ1 at every `(agent, point)`: samples stay within one tree.
    #[must_use]
    pub fn satisfies_req1(&self) -> bool {
        self.for_all(|_, _, sample| match sample.first() {
            Some(d) => sample.is_subset(self.sys.tree_set(d.tree)),
            None => false,
        })
    }

    /// REQ2 at every `(agent, point)`: the runs through each sample have
    /// positive probability (for finite systems: the sample is
    /// nonempty).
    #[must_use]
    pub fn satisfies_req2(&self) -> bool {
        self.for_all(|_, _, sample| !sample.is_empty())
    }

    /// Consistency: `S_ic ⊆ K_i(c)` everywhere — the condition
    /// characterizing `Kᵢφ ⇒ (Prᵢ(φ) = 1)` (Section 5, citing FH88).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.for_all(|agent, c, sample| sample.is_subset(self.sys.indistinguishable(agent, c)))
    }

    /// State generation: each sample is a union of global-state classes.
    #[must_use]
    pub fn is_state_generated(&self) -> bool {
        self.for_all(|_, _, sample| {
            sample
                .iter()
                .all(|d| self.sys.same_state(d).is_subset(sample))
        })
    }

    /// Inclusiveness: `c ∈ S_ic` everywhere.
    #[must_use]
    pub fn is_inclusive(&self) -> bool {
        self.for_all(|_, c, sample| sample.contains(c))
    }

    /// Uniformity: `d ∈ S_ic` implies `S_id = S_ic`.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.for_all(|agent, _, sample| {
            sample
                .iter()
                .all(|d| self.core.sample(self.sys, agent, d) == *sample)
        })
    }

    /// Standardness: state-generated, inclusive, and uniform (the three
    /// properties Section 6 observes that practical assignments enjoy).
    #[must_use]
    pub fn is_standard(&self) -> bool {
        self.is_state_generated() && self.is_inclusive() && self.is_uniform()
    }

    fn for_all(&self, mut pred: impl FnMut(AgentId, PointId, &PointSet) -> bool) -> bool {
        for agent in (0..self.sys.agent_count()).map(AgentId) {
            for c in self.sys.points() {
                let sample = self.sample(agent, c);
                if !pred(agent, c, &sample) {
                    return false;
                }
            }
        }
        true
    }
}

/// Cheap shard selector: mixes the agent, the sample's first point, and
/// its cardinality — enough to spread the distinct samples of one sweep
/// (which differ in exactly those coordinates) across the shards
/// without touching the sample's full word vector.
fn shard_index(agent: AgentId, first: PointId, len: usize) -> usize {
    let mix = (agent.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (first.run as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (first.time as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ (first.tree.0 as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (len as u64);
    (mix.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize % SPACE_SHARDS
}

/// Bumps the hit or miss counter of one space-cache shard (plus the
/// cross-shard aggregate). The per-shard `Arc<Counter>` pairs are
/// resolved once — the registry's name map is consulted only on the
/// first traced lookup of the process — and the whole function is a
/// single relaxed load while tracing is off. Shard names are the one
/// place the workspace uses dynamically built metric names, which is
/// why this calls `Registry::counter` directly instead of the
/// constant-name `count!` macro.
fn trace_space_cache(shard: usize, hit: bool) {
    if !kpa_trace::enabled() {
        return;
    }
    type ShardCounters = Vec<(Arc<kpa_trace::Counter>, Arc<kpa_trace::Counter>)>;
    static SLOTS: std::sync::OnceLock<ShardCounters> = std::sync::OnceLock::new();
    let slots = SLOTS.get_or_init(|| {
        let reg = kpa_trace::registry();
        (0..SPACE_SHARDS)
            .map(|s| {
                (
                    reg.counter(&format!("assign.space_cache.shard{s:02}.hit")),
                    reg.counter(&format!("assign.space_cache.shard{s:02}.miss")),
                )
            })
            .collect()
    });
    let (hits, misses) = &slots[shard];
    if hit {
        hits.incr();
        kpa_trace::count!("assign.space_cache_hit");
    } else {
        misses.incr();
        kpa_trace::count!("assign.space_cache_miss");
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock. The cache
/// holds only finished, immutable [`Arc<PointSpace>`] entries, so a
/// panic elsewhere can never leave it in a torn state.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::{rat, MeasureError};
    use kpa_system::{ProtocolBuilder, TreeId};

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
    fn canonical_assignments_are_standard_and_consistent() {
        let sys = intro_system();
        for a in [
            Assignment::post(),
            Assignment::fut(),
            Assignment::opp(AgentId(1)),
            Assignment::opp(AgentId(2)),
        ] {
            let p = ProbAssignment::new(&sys, a.clone());
            assert!(p.satisfies_req1(), "{a:?} fails REQ1");
            assert!(p.satisfies_req2(), "{a:?} fails REQ2");
            assert!(p.is_standard(), "{a:?} not standard");
            assert!(p.is_consistent(), "{a:?} not consistent");
        }
        // Prior is standard but NOT consistent (it ignores knowledge).
        let prior = ProbAssignment::new(&sys, Assignment::prior());
        assert!(prior.is_standard());
        assert!(!prior.is_consistent());
    }

    #[test]
    fn intro_example_probabilities() {
        // The introduction's coin: at time 1, heads has posterior 1/2
        // according to p1, but future probability 0 or 1.
        let sys = intro_system();
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        let p1 = AgentId(0);
        let h1 = pt(0, 0, 1);
        let t1 = pt(0, 1, 1);

        let post = ProbAssignment::new(&sys, Assignment::post());
        assert_eq!(post.prob(p1, h1, &heads).unwrap(), rat!(1 / 2));
        assert_eq!(post.prob(p1, t1, &heads).unwrap(), rat!(1 / 2));

        let fut = ProbAssignment::new(&sys, Assignment::fut());
        assert_eq!(fut.prob(p1, h1, &heads).unwrap(), Rat::ONE);
        assert_eq!(fut.prob(p1, t1, &heads).unwrap(), Rat::ZERO);

        // Betting against p3 (who saw the toss) equals fut here.
        let opp3 = ProbAssignment::new(&sys, Assignment::opp(AgentId(2)));
        assert_eq!(opp3.prob(p1, h1, &heads).unwrap(), Rat::ONE);

        // Betting against p2 (who knows nothing more) equals post.
        let opp2 = ProbAssignment::new(&sys, Assignment::opp(AgentId(1)));
        assert_eq!(opp2.prob(p1, h1, &heads).unwrap(), rat!(1 / 2));
    }

    #[test]
    fn req_violations_are_reported() {
        let sys = intro_system();
        let empty = ProbAssignment::new(&sys, Assignment::custom("empty", |_, _, _| vec![]));
        assert!(matches!(
            empty.space(AgentId(0), pt(0, 0, 0)),
            Err(AssignError::Req2Violated { .. })
        ));
        assert!(!empty.satisfies_req2());

        // A sample spanning trees requires a multi-tree system.
        let sys2 = ProtocolBuilder::new(["p"])
            .adversaries(&["a", "b"])
            .tick()
            .build()
            .unwrap();
        let spanning = ProbAssignment::new(
            &sys2,
            Assignment::custom("span", |s, _, c| {
                let mut v: Vec<PointId> = s.points_at_time(TreeId(0), c.time).collect();
                v.extend(s.points_at_time(TreeId(1), c.time));
                v
            }),
        );
        assert!(matches!(
            spanning.space(AgentId(0), pt(0, 0, 0)),
            Err(AssignError::Req1Violated { .. })
        ));
        assert!(!spanning.satisfies_req1());
    }

    #[test]
    fn nonmeasurable_facts_get_intervals() {
        // Clockless p1 watching two tosses (Section 7's phenomenon). Its
        // only observation is a content-free "go" when tossing starts, so
        // after time 0 it cannot tell any of the 8 later points apart.
        let sys = ProtocolBuilder::new(["p1"])
            .clockless("p1")
            .step("c1", |_| {
                ["h", "t"]
                    .map(|o| {
                        kpa_system::Branch::new(rat!(1 / 2))
                            .observe("p1", "go")
                            .prop(&format!("c1={o}"))
                            .transient_prop(&format!("recent:c1={o}"))
                    })
                    .to_vec()
            })
            .coin("c2", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .build()
            .unwrap();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let p1 = AgentId(0);
        let c = pt(0, 0, 1);
        // "most recent toss heads": recent:c1=h at time 1, recent:c2=h at 2.
        let mut recent = sys.points_satisfying(sys.prop_id("recent:c1=h").unwrap());
        recent.union_with(&sys.points_satisfying(sys.prop_id("recent:c2=h").unwrap()));
        assert!(matches!(
            post.prob(p1, c, &recent),
            Err(AssignError::Measure(MeasureError::NonMeasurable))
        ));
        // Inner = 1/4 (only the hh run is all-heads), outer = 3/4.
        assert_eq!(
            post.interval(p1, c, &recent).unwrap(),
            (rat!(1 / 4), rat!(3 / 4))
        );
    }

    #[test]
    fn known_interval_is_worst_case_over_knowledge() {
        let sys = intro_system();
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        let p1 = AgentId(0);
        // Under post, p1's interval is [1/2, 1/2] at both time-1 points.
        let post = ProbAssignment::new(&sys, Assignment::post());
        assert_eq!(
            post.known_interval(p1, pt(0, 0, 1), &heads).unwrap(),
            (rat!(1 / 2), rat!(1 / 2))
        );
        // Under fut, the probability is 1 at one possible point and 0 at
        // the other, so all p1 KNOWS is the vacuous interval [0, 1].
        let fut = ProbAssignment::new(&sys, Assignment::fut());
        assert_eq!(
            fut.known_interval(p1, pt(0, 0, 1), &heads).unwrap(),
            (Rat::ZERO, Rat::ONE)
        );
    }

    #[test]
    fn spaces_are_cached_per_class() {
        let sys = intro_system();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let p1 = AgentId(0);
        let a = post.space(p1, pt(0, 0, 1)).unwrap();
        let b = post.space(p1, pt(0, 1, 1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "uniform classes share one space");
    }

    #[test]
    fn sample_plan_matches_per_point_spaces() {
        let sys = intro_system();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let p1 = AgentId(0);
        let plan = post.sample_plan(p1);
        assert!(plan.is_batched());
        assert_eq!(plan.covered(), plan.point_count());
        assert_eq!(plan.extractions(), plan.classes());
        assert!(plan.extractions() < sys.point_count(), "batching pays");
        for c in sys.points() {
            let naive = post.space(p1, c).unwrap();
            assert!(Arc::ptr_eq(plan.space(c).unwrap(), &naive));
            assert!(Arc::ptr_eq(&post.planned_space(p1, c).unwrap(), &naive));
        }
        assert!(Arc::ptr_eq(&plan, &post.sample_plan(p1)), "plan is cached");
        let dbg = format!("{plan:?}");
        assert!(dbg.contains("batched: true"), "{dbg}");
    }

    #[test]
    fn custom_plans_fall_back_per_point() {
        let sys = intro_system();
        let empty = ProbAssignment::new(&sys, Assignment::custom("empty", |_, _, _| vec![]));
        let plan = empty.sample_plan(AgentId(0));
        assert!(!plan.is_batched());
        assert_eq!(plan.covered(), 0);
        assert_eq!(plan.classes(), 0);
        assert_eq!(plan.extractions(), sys.point_count());
        assert!(plan.space(pt(0, 0, 0)).is_none());
        // The fallback reproduces the exact naive error.
        assert!(matches!(
            empty.planned_space(AgentId(0), pt(0, 0, 0)),
            Err(AssignError::Req2Violated { .. })
        ));

        // A well-defined custom assignment still canonicalizes repeated
        // samples through the shared cache.
        let diag = ProbAssignment::new(
            &sys,
            Assignment::custom("slice", |s, _, c| {
                s.points_at_time(kpa_system::TreeId(0), c.time).collect()
            }),
        );
        let plan = diag.sample_plan(AgentId(0));
        assert_eq!(plan.covered(), sys.point_count());
        assert_eq!(plan.extractions(), sys.point_count());
        assert!(plan.classes() < plan.extractions(), "shared-arc dedup");
        for c in sys.points() {
            let naive = diag.space(AgentId(0), c).unwrap();
            assert!(Arc::ptr_eq(plan.space(c).unwrap(), &naive));
        }
    }

    #[test]
    fn accessors() {
        let sys = intro_system();
        let post = ProbAssignment::new(&sys, Assignment::post());
        assert_eq!(post.assignment().name(), "post");
        assert_eq!(post.system().agent_count(), 3);
        assert_eq!(post.sample(AgentId(0), pt(0, 0, 1)).len(), 2);
    }
}
