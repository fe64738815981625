//! Seeded input generation.
//!
//! Every workload's inputs come from one `u64` seed through the
//! benchmark's own PRNG (splitmix64), so the same seed gives the same
//! query list byte for byte, independent of any RNG inside the program
//! under test. The program only ever sees the generated query items.

use std::collections::HashSet;

use kpa_measure::Rat;
use kpa_serve::{QueryItem, QueryKind};
use kpa_system::System;

/// splitmix64: tiny, well-mixed, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6b70_615f_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Thresholds α: the paper's own (1/2 for even-odds bets, 2/3 for
/// Vardi's biased coin, 99/100 for coordinated attack) plus every
/// `k/d` with `d ≤ 12`, deduplicated and ascending.
pub fn alphas() -> Vec<Rat> {
    let mut out = vec![Rat::new(1, 2), Rat::new(2, 3), Rat::new(99, 100)];
    for d in 1..=12 {
        for k in 0..=d {
            out.push(Rat::new(k, d));
        }
    }
    out.sort();
    out.dedup();
    out
}

const AGENTS: [&str; 3] = ["p1", "p2", "p3"];
const GROUPS: [&str; 4] = ["p1,p2", "p1,p3", "p2,p3", "p1,p2,p3"];

/// Formula source text of exactly `depth` operator levels over the
/// system's propositions (`depth == 0` is a bare proposition). At each
/// level one child carries the full remaining depth, so the nesting
/// depth is exact. `shape` draws the structure — operators, their
/// agents and groups, sibling depths and order — and `leaf` draws the
/// propositions and thresholds.
pub fn formula(
    shape: &mut Rng,
    leaf: &mut Rng,
    props: &[String],
    alphas: &[Rat],
    depth: usize,
) -> String {
    if depth == 0 {
        return leaf.pick(props).clone();
    }
    let deep = formula(shape, leaf, props, alphas, depth - 1);
    let sibling = |shape: &mut Rng, leaf: &mut Rng| {
        let d = shape.below(depth);
        let other = formula(shape, leaf, props, alphas, d);
        (other, shape.below(2) == 0)
    };
    let binary = |op: &str, (other, deep_first): (String, bool)| {
        if deep_first {
            format!("({deep} {op} {other})")
        } else {
            format!("({other} {op} {deep})")
        }
    };
    let agent = AGENTS[shape.below(AGENTS.len())];
    match shape.below(9) {
        0 => format!("!({deep})"),
        1 => binary("&", sibling(shape, leaf)),
        2 => binary("|", sibling(shape, leaf)),
        3 => format!("K{{{agent}}} ({deep})"),
        4 => format!("K{{{agent}}}^{} ({deep})", leaf.pick(alphas)),
        5 => format!("Pr{{{agent}}}({deep}) >= {}", leaf.pick(alphas)),
        6 => format!("C{{{}}} ({deep})", GROUPS[shape.below(GROUPS.len())]),
        7 => format!("<>({deep})"),
        _ => binary("U", sibling(shape, leaf)),
    }
}

/// A random point `(tree, run, time)` of the system.
fn point(rng: &mut Rng, sys: &System) -> (usize, usize, usize) {
    let tree = rng.below(sys.tree_count());
    let runs = sys.tree(kpa_system::TreeId(tree)).runs().len();
    (tree, rng.below(runs), rng.below(sys.horizon() + 1))
}

/// `k` distinct thresholds, ascending.
fn alpha_family(rng: &mut Rng, alphas: &[Rat], k: usize) -> Vec<Rat> {
    let mut out: Vec<Rat> = Vec::with_capacity(k);
    while out.len() < k {
        let a = *rng.pick(alphas);
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out.sort();
    out
}

/// The kinds of query item the generators ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sat,
    Holds,
    Everywhere,
    Knows,
    PrGe,
    PrGeFamily,
    Interval,
}

fn item(
    rng: &mut Rng,
    sys: &System,
    alphas: &[Rat],
    (kind, agent): (Kind, &str),
    formula: String,
    id: i64,
) -> QueryItem {
    let agent = agent.to_string();
    let kind = match kind {
        Kind::Sat => QueryKind::Sat { formula },
        Kind::Holds => QueryKind::Holds {
            formula,
            point: point(rng, sys),
        },
        Kind::Everywhere => QueryKind::Everywhere { formula },
        Kind::Knows => QueryKind::Knows { agent, formula },
        Kind::PrGe => QueryKind::PrGe {
            agent,
            alpha: *rng.pick(alphas),
            formula,
        },
        Kind::PrGeFamily => QueryKind::PrGeFamily {
            agent,
            alphas: alpha_family(rng, alphas, 3),
            formula,
        },
        Kind::Interval => QueryKind::Interval {
            agent,
            point: point(rng, sys),
            formula,
        },
    };
    QueryItem { id, kind }
}

/// The formula text of an item.
pub fn formula_of(kind: &QueryKind) -> &str {
    match kind {
        QueryKind::Sat { formula }
        | QueryKind::Holds { formula, .. }
        | QueryKind::Everywhere { formula }
        | QueryKind::Knows { formula, .. }
        | QueryKind::PrGe { formula, .. }
        | QueryKind::PrGeFamily { formula, .. }
        | QueryKind::Interval { formula, .. } => formula,
    }
}

/// The canonical form of a formula: the `Display` of its parse, so two
/// spellings of one formula collide.
fn canonical(src: &str, sys: &System) -> String {
    kpa_logic::parse_in(src, sys)
        .expect("generated formulas parse")
        .to_string()
}

/// Seed of the structure stream: the same for every workload seed.
const SHAPE_SEED: u64 = 0x5348_4150_4531;

/// Redraws of a colliding item's leaves before its structure is
/// redrawn too.
const LEAF_RETRIES: usize = 64;

/// `n` items cycling through `kinds`, with formula depths and the
/// asking agent cycling too; no two items share a (canonical) formula.
/// The structure of every formula comes from a stream that does not
/// depend on `seed`; the seed draws propositions, thresholds and
/// points. So every seed asks the same mix of kinds, depths, operators
/// and agents, and the spread between seeds measures the program
/// rather than the mix.
pub fn distinct_items(
    seed: u64,
    sys: &System,
    kinds: &[Kind],
    depths: &[usize],
    n: usize,
) -> Vec<QueryItem> {
    let mut shape = Rng::new(SHAPE_SEED);
    let mut leaf = Rng::new(seed);
    let props: Vec<String> = sys.prop_names().into_iter().map(str::to_string).collect();
    let alphas = alphas();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut tries = 0;
    while out.len() < n {
        let i = out.len();
        let start = shape.clone();
        let src = formula(
            &mut shape,
            &mut leaf,
            &props,
            &alphas,
            depths[i % depths.len()],
        );
        if !seen.insert(canonical(&src, sys)) {
            tries += 1;
            if tries < LEAF_RETRIES {
                shape = start;
            }
            continue;
        }
        tries = 0;
        let ask = (kinds[i % kinds.len()], AGENTS[i % AGENTS.len()]);
        out.push(item(&mut leaf, sys, &alphas, ask, src, i as i64));
    }
    out
}

/// The `warm-repeat` family: every memo-answered kind, weighted so that
/// the eight set-returning single queries sit in the middle of the
/// latency order with the two cheap boolean answers below them and the
/// two three-set families above. The median then falls among several
/// queries of one kind of cost, not on whichever one query a seed made
/// cheapest; and both families fall on agent `p1` (positions 3 and 9 of
/// the agent cycle), so the p90 falls within one kind of cost too.
pub const WARM_KINDS: [Kind; 12] = [
    Kind::Sat,
    Kind::Knows,
    Kind::PrGe,
    Kind::PrGeFamily,
    Kind::Holds,
    Kind::Sat,
    Kind::Knows,
    Kind::PrGe,
    Kind::Sat,
    Kind::PrGeFamily,
    Kind::Knows,
    Kind::Everywhere,
];

/// The kinds `cold-distinct` cycles through.
pub const COLD_KINDS: [Kind; 5] = [
    Kind::Sat,
    Kind::Knows,
    Kind::PrGe,
    Kind::PrGeFamily,
    Kind::Interval,
];

/// The one-line JSON request frame for a single-item query (the frame
/// id is the item id).
pub fn query_line(item: &QueryItem) -> String {
    use kpa_serve::json::Value;
    let frame = kpa_serve::client::Client::bare_request(
        "query",
        vec![
            ("id", Value::Int(item.id)),
            (
                "queries",
                Value::Arr(vec![kpa_serve::proto::query_item_to_value(item)]),
            ),
        ],
    );
    let mut line = frame.to_json();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> System {
        kpa_serve::catalog::build_system("async-coins:4").unwrap()
    }

    fn lines(seed: u64, sys: &System) -> String {
        distinct_items(seed, sys, &COLD_KINDS, &[1, 2, 3], 300)
            .iter()
            .map(query_line)
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_queries() {
        let sys = sys();
        assert_eq!(lines(7, &sys), lines(7, &sys));
        assert_ne!(lines(7, &sys), lines(8, &sys));
    }

    #[test]
    fn formulas_parse_and_round_trip_through_display() {
        let sys = sys();
        for item in distinct_items(3, &sys, &WARM_KINDS, &[1, 2, 3], 300) {
            let f = kpa_logic::parse_in(formula_of(&item.kind), &sys).unwrap();
            let again = kpa_logic::parse_in(&f.to_string(), &sys).unwrap();
            assert_eq!(f, again, "{} does not round-trip", f);
        }
    }

    #[test]
    fn distinct_items_share_no_formula() {
        let sys = sys();
        let items = distinct_items(11, &sys, &COLD_KINDS, &[1, 2, 3], 500);
        let canon: HashSet<String> = items
            .iter()
            .map(|i| canonical(formula_of(&i.kind), &sys))
            .collect();
        assert_eq!(canon.len(), items.len());
    }

    #[test]
    fn alphas_cover_the_paper_and_small_denominators() {
        let a = alphas();
        assert!(a.contains(&Rat::new(99, 100)));
        assert!(a.contains(&Rat::new(5, 12)));
        assert!(a.contains(&Rat::ZERO) && a.contains(&Rat::ONE));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
