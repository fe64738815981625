//! # kpa — Knowledge, Probability, and Adversaries
//!
//! Facade crate re-exporting the whole workspace — an executable
//! reproduction of Halpern & Tuttle, *"Knowledge, Probability, and
//! Adversaries"* (JACM 40(4), 1993). See the repository README for an
//! overview and `DESIGN.md` for the paper-to-module map; the member
//! crates carry the detailed documentation:
//!
//! * [`measure`] — exact rationals and finite probability spaces;
//! * [`system`] — runs, points, computation trees, the protocol DSL;
//! * [`assign`] — the probability assignments and their lattice;
//! * [`logic`] — the language `L(Φ)`, model checker, parser, proofs;
//! * [`betting`] — the betting game and safe bets (Theorems 7–9);
//! * [`asynchrony`] — type-3 adversaries: cuts and cut classes;
//! * [`protocols`] — every system the paper analyzes;
//! * [`pool`] — the deterministic parallel slice sweep behind the
//!   engine's point and class scans (`KPA_THREADS` selects the width);
//! * [`trace`] — zero-dep counters/histograms/spans across every layer
//!   (`KPA_TRACE=1` or `trace::set_enabled(true)` switches them on;
//!   off, they are observationally invisible no-ops);
//! * [`serve`] — the model-checking service: a line-delimited JSON
//!   protocol over TCP, the system catalog, and the blocking client
//!   (`kpa-serve` / `kpa-explore --connect` are thin wrappers).
//!
//! # Example
//!
//! The introduction's secret coin, model checked at an explicit thread
//! count — parallel sweeps are bit-identical to serial by construction:
//!
//! ```
//! use kpa::prelude::*;
//!
//! let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
//!     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
//!     .build()?;
//! let post = ProbAssignment::new(&sys, Assignment::post());
//!
//! // p1 knows Pr(heads) = 1/2 at time 1 — at any pool width.
//! let f = Formula::prop("c=h").k_interval(AgentId(0), rat!(1 / 2), rat!(1 / 2));
//! let serial = kpa::pool::with_threads(1, || Model::new(&post).sat(&f))?;
//! let parallel = kpa::pool::with_threads(2, || Model::new(&post).sat(&f))?;
//! assert_eq!(*serial, *parallel);
//! assert_eq!(serial.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kpa_assign as assign;
pub use kpa_asynchrony as asynchrony;
pub use kpa_betting as betting;
pub use kpa_logic as logic;
pub use kpa_measure as measure;
pub use kpa_pool as pool;
pub use kpa_protocols as protocols;
pub use kpa_serve as serve;
pub use kpa_system as system;
pub use kpa_trace as trace;

/// The most commonly used items, for glob import:
/// `use kpa::prelude::*;`.
pub mod prelude {
    pub use kpa_assign::{Assignment, ProbAssignment};
    pub use kpa_asynchrony::CutClass;
    pub use kpa_betting::{BetRule, BettingGame, Strategy};
    pub use kpa_logic::{Formula, Model};
    pub use kpa_measure::{rat, Rat};
    pub use kpa_system::{AgentId, Branch, PointId, ProtocolBuilder, System, TreeId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reaches_everything() {
        use crate::prelude::*;
        let sys = ProtocolBuilder::new(["a", "b"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["a"])
            .build()
            .unwrap();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let model = Model::new(&post);
        let f = Formula::prop("c=h").known_by(AgentId(0));
        assert_eq!(model.sat(&f).unwrap().len(), 1);
        let rule = BetRule::new(
            sys.points_satisfying(sys.prop_id("c=h").unwrap()),
            Rat::new(1, 2),
        )
        .unwrap();
        let game = BettingGame::new(&sys, AgentId(1), AgentId(0));
        assert!(!game
            .is_safe_at(
                PointId {
                    tree: TreeId(0),
                    run: 0,
                    time: 1
                },
                &rule
            )
            .unwrap());
        let _ = (
            CutClass::AllPoints,
            Strategy::silent(),
            Branch::new(Rat::ONE),
        );
    }
}
