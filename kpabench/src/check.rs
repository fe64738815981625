//! Output checking: the serial oracle, reply decoding, and reply
//! digests.
//!
//! Expected answers come from the tree-walking [`Model`] facade over a
//! fresh [`ProbAssignment`] at pool width 1 — an evaluation path that
//! shares no memo, arena or artifact with the server. Each distinct
//! query is decoded from one server reply and compared with the oracle
//! bit for bit; every other reply to that query must then carry the
//! same digest of its `results` payload.

use kpa_assign::{Assignment, ProbAssignment};
use kpa_logic::{parse_in, Model};
use kpa_serve::{QueryItem, QueryKind};
use kpa_system::{AgentId, PointId, System, TreeId};

/// One query's answer, in a form both the oracle and a decoded reply
/// produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Set {
        count: i64,
        words: Vec<u64>,
    },
    Holds(bool),
    Family {
        counts: Vec<i64>,
        sets: Vec<Vec<u64>>,
    },
    Interval {
        lo: String,
        hi: String,
    },
}

fn agent(sys: &System, name: &str) -> Result<AgentId, String> {
    sys.agent_id(name)
        .ok_or_else(|| format!("unknown agent {name}"))
}

pub fn point(p: (usize, usize, usize)) -> PointId {
    PointId {
        tree: TreeId(p.0),
        run: p.1,
        time: p.2,
    }
}

pub fn set_answer(set: &kpa_logic::PointSet) -> Answer {
    Answer::Set {
        count: set.len() as i64,
        words: set.as_words().to_vec(),
    }
}

/// The oracle's answers to `items`, in order.
///
/// # Errors
///
/// Parse or evaluation failures, as strings: the generated inputs are
/// chosen so that none occurs.
pub fn oracle(
    sys: &System,
    assign: &Assignment,
    items: &[QueryItem],
) -> Result<Vec<Answer>, String> {
    kpa_pool::with_threads(1, || {
        let pa = ProbAssignment::new(sys, assign.clone());
        let model = Model::new(&pa);
        items
            .iter()
            .map(|item| {
                let src = crate::gen::formula_of(&item.kind);
                let f = parse_in(src, sys).map_err(|e| format!("{src}: {e}"))?;
                let sat = |g: &kpa_logic::Formula| model.sat(g).map_err(|e| format!("{g}: {e}"));
                Ok(match &item.kind {
                    QueryKind::Sat { .. } => set_answer(&*sat(&f)?),
                    QueryKind::Holds { point: p, .. } => {
                        Answer::Holds(sat(&f)?.contains(point(*p)))
                    }
                    QueryKind::Everywhere { .. } => {
                        Answer::Holds(model.holds_everywhere(&f).map_err(|e| e.to_string())?)
                    }
                    QueryKind::Knows { agent: a, .. } => {
                        set_answer(&*sat(&f.known_by(agent(sys, a)?))?)
                    }
                    QueryKind::PrGe {
                        agent: a, alpha, ..
                    } => set_answer(&*sat(&f.pr_ge(agent(sys, a)?, *alpha))?),
                    QueryKind::PrGeFamily {
                        agent: a, alphas, ..
                    } => {
                        let a = agent(sys, a)?;
                        let mut counts = Vec::new();
                        let mut sets = Vec::new();
                        for &alpha in alphas {
                            let s = sat(&f.clone().pr_ge(a, alpha))?;
                            counts.push(s.len() as i64);
                            sets.push(s.as_words().to_vec());
                        }
                        Answer::Family { counts, sets }
                    }
                    QueryKind::Interval {
                        agent: a, point: p, ..
                    } => {
                        let (lo, hi) = model
                            .prob_interval(agent(sys, a)?, point(*p), &f)
                            .map_err(|e| e.to_string())?;
                        Answer::Interval {
                            lo: lo.to_string(),
                            hi: hi.to_string(),
                        }
                    }
                })
            })
            .collect()
    })
}

fn words(v: Option<&Json>) -> Result<Vec<u64>, String> {
    v.and_then(Json::arr)
        .ok_or("missing word array")?
        .iter()
        .map(|w| match w {
            Json::Str(s) if s.len() == 16 => {
                u64::from_str_radix(s, 16).map_err(|_| format!("bad hex word {s:?}"))
            }
            _ => Err("words must be 16-digit hex strings".to_string()),
        })
        .collect()
}

fn int(v: Option<&Json>) -> Result<i64, String> {
    match v {
        Some(Json::Num(n)) => n.parse().map_err(|_| format!("bad integer {n}")),
        _ => Err("missing integer".to_string()),
    }
}

fn string(v: Option<&Json>) -> Result<String, String> {
    match v {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err("missing string".to_string()),
    }
}

/// Decodes the single-item reply `line` to `item`.
///
/// # Errors
///
/// Error frames, a wrong echoed id, and malformed payloads.
pub fn decode_reply(line: &[u8], item: &QueryItem) -> Result<Answer, String> {
    let frame = Json::parse(line)?;
    if frame.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "error frame: {}",
            String::from_utf8_lossy(&line[..line.len().min(200)])
        ));
    }
    let rows = frame
        .get("results")
        .and_then(Json::arr)
        .ok_or("reply lacks results")?;
    let [row] = rows else {
        return Err(format!("expected one result row, got {}", rows.len()));
    };
    if int(row.get("id")) != Ok(item.id) {
        return Err("result row does not echo the item id".into());
    }
    Ok(match &item.kind {
        QueryKind::Sat { .. } | QueryKind::Knows { .. } | QueryKind::PrGe { .. } => Answer::Set {
            count: int(row.get("count"))?,
            words: words(row.get("words"))?,
        },
        QueryKind::Holds { .. } | QueryKind::Everywhere { .. } => match row.get("holds") {
            Some(Json::Bool(b)) => Answer::Holds(*b),
            _ => return Err("missing holds".into()),
        },
        QueryKind::PrGeFamily { .. } => {
            let arr = |k: &str| row.get(k).and_then(Json::arr).ok_or(format!("missing {k}"));
            Answer::Family {
                counts: arr("counts")?
                    .iter()
                    .map(|c| int(Some(c)))
                    .collect::<Result<_, _>>()?,
                sets: arr("sets")?
                    .iter()
                    .map(|s| words(Some(s)))
                    .collect::<Result<_, _>>()?,
            }
        }
        QueryKind::Interval { .. } => Answer::Interval {
            lo: string(row.get("lo"))?,
            hi: string(row.get("hi"))?,
        },
    })
}

/// A minimal JSON reader for reply frames, linear in the input (the
/// checker must stay cheap on replies of a few hundred kilobytes).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(bytes: &[u8]) -> Result<Json, String> {
        let mut pos = 0;
        let v = Json::value(bytes, &mut pos)?;
        Json::ws(bytes, &mut pos);
        if pos == bytes.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at {pos}"))
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while b.get(*pos).is_some_and(u8::is_ascii_whitespace) {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        Json::ws(b, pos);
        let at = *pos;
        let bad = || format!("malformed JSON at byte {at}");
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    Json::ws(b, pos);
                    if b.get(*pos) == Some(&b'}') && fields.is_empty() {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    let Json::Str(key) = Json::value(b, pos)? else {
                        return Err(bad());
                    };
                    Json::ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(bad());
                    }
                    *pos += 1;
                    fields.push((key, Json::value(b, pos)?));
                    Json::ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(bad()),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Json::ws(b, pos);
                    if b.get(*pos) == Some(&b']') && items.is_empty() {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    items.push(Json::value(b, pos)?);
                    Json::ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(bad()),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut out = Vec::new();
                loop {
                    match b.get(*pos) {
                        Some(b'"') => break,
                        Some(b'\\') => {
                            let esc = b.get(*pos + 1).ok_or_else(bad)?;
                            out.push(match esc {
                                b'n' => b'\n',
                                b't' => b'\t',
                                b'r' => b'\r',
                                other => *other,
                            });
                            *pos += 2;
                        }
                        Some(&c) => {
                            out.push(c);
                            *pos += 1;
                        }
                        None => return Err(bad()),
                    }
                }
                *pos += 1;
                String::from_utf8(out).map(Json::Str).map_err(|_| bad())
            }
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = *pos;
                while b
                    .get(*pos)
                    .is_some_and(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
                {
                    *pos += 1;
                }
                Ok(Json::Num(
                    String::from_utf8_lossy(&b[start..*pos]).into_owned(),
                ))
            }
            _ => Err(bad()),
        }
    }
}

/// A 64-bit digest of a reply's `results` payload — the part that is
/// the same every time one query is answered (the frame id and the
/// server-minted `trace_id` are not). `None` when the reply carries no
/// results (an error frame).
pub fn digest(line: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"results\":";
    let start = line.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let tail = &line[start..];
    let end = tail
        .windows(12)
        .rposition(|w| w == b",\"trace_id\":")
        .unwrap_or(tail.len().saturating_sub(1));
    Some(hash(&tail[..end]))
}

/// A fast 64-bit hash (8-byte lanes, multiply-xorshift mixing).
fn hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_frame_id_and_trace_id() {
        let a = br#"{"id":1,"ok":true,"op":"query","results":[{"holds":true,"id":4}],"trace_id":"00000000000000aa"}"#;
        let b = br#"{"id":9,"ok":true,"op":"query","results":[{"holds":true,"id":4}],"trace_id":"00000000000000bb"}"#;
        let c = br#"{"id":9,"ok":true,"op":"query","results":[{"holds":false,"id":4}],"trace_id":"00000000000000bb"}"#;
        assert_eq!(digest(a), digest(b));
        assert_ne!(digest(a), digest(c));
        assert_eq!(digest(br#"{"ok":false,"error":"x"}"#), None);
    }

    #[test]
    fn reply_decoding_reads_every_kind() {
        let item = |kind| QueryItem { id: 4, kind };
        let f = || "c0=h".to_string();
        let words = br#"{"id":1,"ok":true,"op":"query","results":[{"count":2,"id":4,"words":["0000000000000003"]}],"trace_id":"00000000000000aa"}"#;
        assert_eq!(
            decode_reply(words, &item(QueryKind::Sat { formula: f() })),
            Ok(Answer::Set {
                count: 2,
                words: vec![3]
            })
        );
        let family = br#"{"ok":true,"results":[{"counts":[1,0],"id":4,"sets":[["0000000000000001"],["0000000000000000"]]}]}"#;
        let fam = QueryKind::PrGeFamily {
            agent: "p1".into(),
            alphas: vec![],
            formula: f(),
        };
        assert_eq!(
            decode_reply(family, &item(fam)),
            Ok(Answer::Family {
                counts: vec![1, 0],
                sets: vec![vec![1], vec![0]]
            })
        );
        let interval = br#"{"ok":true,"results":[{"hi":"1","id":4,"lo":"1/2"}]}"#;
        let int = QueryKind::Interval {
            agent: "p1".into(),
            point: (0, 0, 0),
            formula: f(),
        };
        assert_eq!(
            decode_reply(interval, &item(int)),
            Ok(Answer::Interval {
                lo: "1/2".into(),
                hi: "1".into()
            })
        );
        let error = br#"{"error":"parse_error","fatal":false,"ok":false}"#;
        assert!(decode_reply(error, &item(QueryKind::Sat { formula: f() })).is_err());
        let wrong_id = br#"{"ok":true,"results":[{"holds":true,"id":5}]}"#;
        assert!(decode_reply(wrong_id, &item(QueryKind::Everywhere { formula: f() })).is_err());
    }
}
