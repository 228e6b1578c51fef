//! The three workloads, generated from the workload seed, and the RAM
//! oracle that checks them.
//!
//! * `serve`: the `engine` batch (20 instances of each of six shapes at
//!   n = 256) plus three cyclic `general` shapes, served on one engine.
//! * `bulk`: two large joins through the same engine.
//! * `maintain`: registered views absorbing 1% signed update batches.
//!
//! Generators that take no seed (`fig3::one_sided`, the `scaling` binary
//! join) are made seed-dependent by a value relabelling (XOR with a
//! seed-derived mask, a bijection, so joins and `OUT` are unchanged) and a
//! seeded row shuffle (which moves tuples between servers).

use aj_core::dist::DistRelation;
use aj_instancegen::randquery::{self, QueryShape};
use aj_relation::delta::UpdateBatch;
use aj_relation::{ram, Attr, Database, Query, Tuple};

/// Servers per cluster in every workload.
pub const P: usize = 8;

/// One query served by `serve` or `bulk`.
pub struct Case {
    pub label: String,
    pub query: Query,
    pub db: Database,
}

/// One registered view of `maintain` with its update cycle.
pub struct ViewCase {
    pub label: String,
    pub query: Query,
    pub db: Database,
    /// Forward batches `b_0 … b_{B-1}`; the view replays them forwards and
    /// then their inverses backwards, so the cycle returns to `db` and the
    /// stream can run for as long as the measurement lasts.
    pub forward: Vec<UpdateBatch>,
    /// `inverse[j]` undoes `forward[j]`.
    pub inverse: Vec<UpdateBatch>,
}

impl ViewCase {
    /// Ops in one cycle of this view.
    pub fn cycle_len(&self) -> usize {
        2 * self.forward.len()
    }

    /// The batch at cycle position `c`.
    pub fn batch(&self, c: usize) -> &UpdateBatch {
        let b = self.forward.len();
        if c < b {
            &self.forward[c]
        } else {
            &self.inverse[2 * b - 1 - c]
        }
    }

    /// Forward batches in effect after the view absorbed `ops` ops: the
    /// oracle state its output must match.
    pub fn applied(&self, ops: usize) -> usize {
        let b = self.forward.len();
        let r = ops % (2 * b);
        if r <= b {
            r
        } else {
            2 * b - r
        }
    }
}

pub enum Inputs {
    Queries(Vec<Case>),
    Views(Vec<ViewCase>),
}

pub const WORKLOADS: [&str; 3] = ["serve", "bulk", "maintain"];

/// The inputs of a workload for a seed.
pub fn generate(workload: &str, seed: u64) -> Inputs {
    match workload {
        "serve" => Inputs::Queries(serve(seed)),
        "bulk" => Inputs::Queries(bulk(seed)),
        "maintain" => Inputs::Views(maintain(seed)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// SplitMix64: the benchmark's own seed stream.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Relabel every value by a seed-derived XOR mask and shuffle every
/// relation's rows with a seeded Fisher–Yates pass.
fn relabel(mut db: Database, seed: u64) -> Database {
    let mask = splitmix(seed) & 0xf_ffff;
    let mut state = splitmix(seed ^ 0x5151);
    for rel in &mut db.relations {
        for t in &mut rel.tuples {
            let vals: Vec<u64> = t.values().iter().map(|v| v ^ mask).collect();
            *t = Tuple::new(vals);
        }
        for i in (1..rel.tuples.len()).rev() {
            state = splitmix(state);
            rel.tuples.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
    db
}

fn dedup(mut db: Database) -> Database {
    db.dedup_all();
    db
}

fn serve(seed: u64) -> Vec<Case> {
    const PER_SHAPE: u64 = 20;
    const N: u64 = 256;
    let s = |group: u64, i: u64| splitmix(seed ^ (group << 32) ^ i);
    let mut cases = Vec::new();
    let mut push = |label: &str, query: &Query, db: Database| {
        cases.push(Case {
            label: label.to_string(),
            query: query.clone(),
            db,
        })
    };
    let star = aj_instancegen::shapes::star_query(3);
    let rh = aj_instancegen::shapes::rh_example_query();
    let tf = aj_instancegen::shapes::tall_flat_q1();
    let line = aj_instancegen::line_query(3);
    let tri = aj_instancegen::shapes::triangle_query();
    use aj_instancegen::random::random_instance;
    for i in 0..PER_SHAPE {
        push(
            "star3",
            &star,
            dedup(random_instance(&star, N as usize, N / 4, s(1, i))),
        );
    }
    for i in 0..PER_SHAPE {
        push(
            "r-hier",
            &rh,
            dedup(random_instance(&rh, N as usize, N / 3, s(2, i))),
        );
    }
    for i in 0..PER_SHAPE {
        push(
            "tall-flat",
            &tf,
            dedup(random_instance(&tf, N as usize, 6, s(3, i))),
        );
    }
    for i in 0..PER_SHAPE {
        let inst = aj_instancegen::fig3::one_sided(N, N * N / (4 + 4 * (i % 4)));
        push("line3-big-out", &line, relabel(inst.db, s(4, i)));
    }
    for i in 0..PER_SHAPE {
        let inst = aj_instancegen::fig3::sparse_small_out(N, s(5, i) % 1024);
        push("line3-small-out", &line, inst.db);
    }
    for i in 0..PER_SHAPE {
        push(
            "triangle",
            &tri,
            aj_instancegen::fig6::generate(N, 2 * N, s(6, i)).db,
        );
    }
    // The `general` shapes on which GHD's measured load is well below
    // HyperCube's; the query shapes are fixed, the instances seeded.
    for (shape, attachments, qseed) in [
        (QueryShape::EvenCycle, 0, 0xa1),
        (QueryShape::Theta, 0, 0xa4),
        (QueryShape::Clique, 1, 0xa5),
    ] {
        let q = randquery::random_query_of(shape, attachments, qseed);
        let db = randquery::uniform_instance(&q, 200, 40, s(7, qseed));
        push(&format!("{shape:?}+{attachments}"), &q, db);
    }
    cases
}

fn bulk(seed: u64) -> Vec<Case> {
    // `scaling`'s binary join: 48k tuples a side, fanout 12 on 4000 keys,
    // so IN = 96k and OUT = 576k.
    let n = 48_000u64;
    let keys = n / 12;
    let q2 = aj_instancegen::line_query(2);
    let binary = aj_relation::database_from_rows(
        &q2,
        &[
            (0..n).map(|i| vec![i, i % keys]).collect(),
            (0..n).map(|i| vec![i % keys, 10_000_000 + i]).collect(),
        ],
    );
    // A one-sided Figure-3 line-3 in the Theorem-7 regime: IN = 3·n,
    // OUT = 1.2M.
    let line3 = aj_instancegen::fig3::one_sided(12_000, 1_200_000);
    vec![
        Case {
            label: "binary".into(),
            query: q2,
            db: relabel(binary, splitmix(seed ^ 0xb1)),
        },
        Case {
            label: "line3".into(),
            query: line3.query,
            db: relabel(line3.db, splitmix(seed ^ 0xb2)),
        },
    ]
}

/// Forward 1% batches per view; the cycle is twice this long.
const BATCHES: usize = 20;
/// Update fraction of every batch.
const FRACTION: f64 = 0.01;

fn maintain(seed: u64) -> Vec<ViewCase> {
    const N: u64 = 2000;
    let s = |k: u64| splitmix(seed ^ (k << 40));
    let mut views = Vec::new();
    let mut push = |label: &str, query: Query, db: Database, zipf: f64, k: u64| {
        let db = dedup(db);
        let forward =
            aj_instancegen::updates::update_stream(&query, &db, BATCHES, FRACTION, zipf, s(k));
        let inverse = forward.iter().map(invert).collect();
        views.push(ViewCase {
            label: label.to_string(),
            query,
            db,
            forward,
            inverse,
        });
    };
    let inst = aj_instancegen::fig3::one_sided(N, N * 4);
    push("fig3-line3", inst.query, relabel(inst.db, s(1)), 0.0, 11);
    let inst = aj_instancegen::fig4::generate(N, N * 2, s(2));
    push("fig4-line3", inst.query, inst.db, 0.0, 12);
    let star = aj_instancegen::shapes::star_query(3);
    let db = aj_instancegen::random::random_instance(&star, N as usize, N / 6, s(3));
    push("star3-zipf", star, db, 1.0, 13);
    let inst = aj_instancegen::fig6::generate(N / 2, N, s(4));
    push("triangle", inst.query, inst.db, 0.0, 14);
    views
}

fn invert(b: &UpdateBatch) -> UpdateBatch {
    let mut inv = UpdateBatch::empty(b.n_relations());
    for (e, d) in b.deltas.iter().enumerate() {
        inv.deltas[e].inserts = d.deletes.clone();
        inv.deltas[e].deletes = d.inserts.clone();
    }
    inv
}

/// An order-independent digest of a set of tuples: `(count, sum of mixed
/// per-tuple hashes)`, with each tuple's columns read in ascending
/// attribute order so any column layout digests alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub len: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, values: impl Iterator<Item = u64>) {
        let mut h = 0x243f_6a88_85a3_08d3u64;
        for v in values {
            h = splitmix(h ^ v);
        }
        self.len += 1;
        self.sum = self.sum.wrapping_add(splitmix(h));
    }

    pub fn render(&self) -> String {
        format!("{}:{:016x}", self.len, self.sum)
    }

    /// Inverse of [`Digest::render`].
    pub fn parse(s: &str) -> Result<Digest, String> {
        let bad = || format!("bad digest {s:?}");
        let (len, sum) = s.split_once(':').ok_or_else(bad)?;
        Ok(Digest {
            len: len.parse().map_err(|_| bad())?,
            sum: u64::from_str_radix(sum, 16).map_err(|_| bad())?,
        })
    }
}

/// Column positions that read a layout in ascending attribute order.
fn ascending(attrs: &[Attr]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_by_key(|&i| attrs[i]);
    order
}

/// Digest of a distributed engine output.
pub fn digest_dist(out: &DistRelation) -> Digest {
    let order = ascending(&out.attrs);
    let mut d = Digest::default();
    for part in out.parts.iter() {
        for t in part {
            let v = t.values();
            d.add(order.iter().map(|&i| v[i]));
        }
    }
    d
}

/// Digest of a counted view snapshot (every count must be 1 under set
/// semantics; a larger count is folded in so it cannot go unnoticed).
pub fn digest_snapshot(snap: &[(Tuple, u64)]) -> Digest {
    let mut d = Digest::default();
    for (t, c) in snap {
        d.add(t.values().iter().copied().chain((*c != 1).then_some(*c)));
    }
    d
}

/// The RAM oracle's answer for one instance: Yannakakis for acyclic
/// queries, exhaustive search for cyclic ones.
fn oracle(q: &Query, db: &Database) -> Digest {
    let tuples = if q.is_acyclic() {
        ram::join(q, db).1
    } else {
        ram::naive_join(q, db)
    };
    let mut d = Digest::default();
    for t in &tuples {
        d.add(t.values().iter().copied());
    }
    d
}

/// One line per distinct input: the oracle digest of every query, or of
/// every state `0..=B` of every view's cycle.
pub fn oracle_lines(inputs: &Inputs) -> Vec<String> {
    match inputs {
        Inputs::Queries(cases) => cases
            .iter()
            .map(|c| oracle(&c.query, &c.db).render())
            .collect(),
        Inputs::Views(views) => views
            .iter()
            .map(|v| {
                let mut db = v.db.clone();
                let mut states = vec![oracle(&v.query, &db).render()];
                for b in &v.forward {
                    b.apply_to(&mut db);
                    states.push(oracle(&v.query, &db).render());
                }
                states.join(" ")
            })
            .collect(),
    }
}
