//! The three workloads: their data, their statement mixes and the
//! reference renderings every result is checked against.

use crate::stats::digest;
use std::collections::HashMap;
use tpdb_core::TpJoinKind;
use tpdb_query::{snapshot_summary, Session};
use tpdb_server::protocol::{render_relation_rows, render_schema};
use tpdb_storage::{Catalog, TpRelation, Value};

/// Distinct point-scan keys each workload draws from.
pub const POINT_KEYS: usize = 40;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `Session` at parallelism 1 on meteo-like data: wide
    /// negating disjunctions, so lineage and negating windows dominate.
    MeteoNegation,
    /// In-process `Session` at parallelism 2 on webkit-like data: narrow
    /// negating disjunctions, so windows, fact assembly and the morsel
    /// merge take the larger share.
    WebkitSelective,
    /// `tpdb-server` with two workers and two closed-loop clients on a mix
    /// of prepared and ad-hoc joins, a union, point scans and a periodic
    /// `LOAD SNAPSHOT`.
    ServerMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MeteoNegation,
        Workload::WebkitSelective,
        Workload::ServerMix,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeteoNegation => "meteo-negation",
            Workload::WebkitSelective => "webkit-selective",
            Workload::ServerMix => "server-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tuples per relation at full scale.
    #[must_use]
    pub fn default_tuples(self) -> usize {
        match self {
            Workload::MeteoNegation => 5_000,
            Workload::WebkitSelective => 40_000,
            Workload::ServerMix => 2_000,
        }
    }

    /// Degree of parallelism of the workload's front end (for the server:
    /// the per-statement floor of each worker).
    #[must_use]
    pub fn parallelism(self) -> usize {
        match self {
            Workload::WebkitSelective => 2,
            Workload::MeteoNegation | Workload::ServerMix => 1,
        }
    }

    /// Point scans and `LOAD SNAPSHOT`s an in-process workload runs
    /// between two rounds: each about 5% of a round's time on a 2-core
    /// host. Fixed counts give every run the same mix of samples; counts
    /// sized to a time slice shifted that mix with the host's speed.
    #[must_use]
    pub fn side_work(self) -> (usize, usize) {
        match self {
            Workload::MeteoNegation => (40, 10),
            Workload::WebkitSelective => (4, 1),
            Workload::ServerMix => (0, 0),
        }
    }

    /// Whether the workload runs through `tpdb-server`.
    #[must_use]
    pub fn is_server(self) -> bool {
        self == Workload::ServerMix
    }

    fn is_meteo(self) -> bool {
        self != Workload::WebkitSelective
    }
}

/// Generated input relations of a workload.
#[derive(Debug, Clone)]
pub struct Data {
    /// The positive relation.
    pub r: TpRelation,
    /// The negative relation.
    pub s: TpRelation,
    /// The equi-join column shared by both.
    pub key: &'static str,
}

/// Generates a workload's relations from the seed.
#[must_use]
pub fn generate(workload: Workload, tuples: usize, seed: u64) -> Data {
    if workload.is_meteo() {
        let (r, s) = tpdb_datagen::meteo_like(tuples, seed);
        Data {
            r,
            s,
            key: "Metric",
        }
    } else {
        let (r, s) = tpdb_datagen::webkit_like(tuples, seed);
        Data { r, s, key: "Key" }
    }
}

/// What a statement computes, for the per-layer replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A TP join of `r` with `s` on the key.
    Join(TpJoinKind),
    /// `r UNION s`.
    Union,
    /// A point scan of `r` on the key.
    Scan,
}

/// How the front end receives a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Via {
    /// Ad-hoc text.
    Text,
    /// A statement prepared once per connection under `name` and executed
    /// with `params`.
    Prepared {
        /// The connection-local statement name.
        name: &'static str,
        /// The text with `$n` slots.
        template: String,
        /// One value per slot.
        params: Vec<Value>,
    },
}

/// One statement of a mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Short label for reports (`loj`, `anti`, `point`, ...).
    pub label: &'static str,
    /// The equivalent ad-hoc text; also the key of its reference.
    pub sql: String,
    /// What it computes.
    pub op: Op,
    /// How it is sent.
    pub via: Via,
}

impl Stmt {
    /// Whether this is a cheap point scan.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.op == Op::Scan
    }
}

/// The statement texts of one workload's data.
#[derive(Debug, Clone)]
pub struct Texts {
    /// The positive relation's name.
    pub r: String,
    /// The negative relation's name.
    pub s: String,
    /// The join column.
    pub key: &'static str,
}

impl Texts {
    /// Texts over `data`'s relations.
    #[must_use]
    pub fn new(data: &Data) -> Self {
        Self {
            r: data.r.name().to_owned(),
            s: data.s.name().to_owned(),
            key: data.key,
        }
    }

    /// The TP join text of `kind`.
    #[must_use]
    pub fn join(&self, kind: TpJoinKind) -> String {
        let kw = match kind {
            TpJoinKind::Inner => "INNER",
            TpJoinKind::LeftOuter => "LEFT",
            TpJoinKind::Anti => "ANTI",
            TpJoinKind::RightOuter => "RIGHT",
            TpJoinKind::FullOuter => "FULL",
        };
        let (r, s, k) = (&self.r, &self.s, self.key);
        format!("SELECT * FROM {r} TP {kw} JOIN {s} ON {r}.{k} = {s}.{k}")
    }

    /// The union text.
    #[must_use]
    pub fn union(&self) -> String {
        format!("SELECT * FROM {} UNION SELECT * FROM {}", self.r, self.s)
    }

    /// The ad-hoc point scan text for key `k`.
    #[must_use]
    pub fn point(&self, k: i64) -> String {
        format!("SELECT * FROM {} WHERE {} = {k}", self.r, self.key)
    }

    /// The parameterized point scan text.
    #[must_use]
    pub fn point_template(&self) -> String {
        format!("SELECT * FROM {} WHERE {} = $1", self.r, self.key)
    }

    /// A join statement, ad hoc or prepared under `name`.
    #[must_use]
    pub fn join_stmt(
        &self,
        label: &'static str,
        kind: TpJoinKind,
        prepared: Option<&'static str>,
    ) -> Stmt {
        let sql = self.join(kind);
        let via = match prepared {
            Some(name) => Via::Prepared {
                name,
                template: sql.clone(),
                params: Vec::new(),
            },
            None => Via::Text,
        };
        Stmt {
            label,
            sql,
            op: Op::Join(kind),
            via,
        }
    }

    /// A point scan for key `k`, ad hoc or through the prepared `pt`.
    #[must_use]
    pub fn point_stmt(&self, k: i64, prepared: bool) -> Stmt {
        let via = if prepared {
            Via::Prepared {
                name: "pt",
                template: self.point_template(),
                params: vec![Value::Int(k)],
            }
        } else {
            Via::Text
        };
        Stmt {
            label: if prepared {
                "point-prepared"
            } else {
                "point-adhoc"
            },
            sql: self.point(k),
            op: Op::Scan,
            via,
        }
    }
}

/// The heavy statements of a workload's closed-loop round. Server rounds
/// append point scans with keys drawn per round.
#[must_use]
pub fn heavy_mix(workload: Workload, texts: &Texts) -> Vec<Stmt> {
    use TpJoinKind::{Anti, Inner, LeftOuter};
    match workload {
        Workload::MeteoNegation => vec![
            texts.join_stmt("loj", LeftOuter, None),
            texts.join_stmt("anti", Anti, None),
        ],
        Workload::WebkitSelective => vec![
            texts.join_stmt("inner", Inner, None),
            texts.join_stmt("loj", LeftOuter, None),
        ],
        Workload::ServerMix => vec![
            texts.join_stmt("loj", LeftOuter, Some("lo")),
            texts.join_stmt("anti", Anti, Some("an")),
            texts.join_stmt("inner", Inner, None),
            Stmt {
                label: "union",
                sql: texts.union(),
                op: Op::Union,
                via: Via::Text,
            },
        ],
    }
}

/// The [`POINT_KEYS`] key values point scans draw from: every metric on
/// meteo-like data, evenly spaced file keys on webkit-like data.
#[must_use]
pub fn point_keys(data: &Data) -> Vec<i64> {
    let col = data
        .r
        .schema()
        .index_of(data.key)
        .expect("key column exists");
    let values: Vec<i64> = data
        .r
        .distinct_values(col)
        .into_iter()
        .filter_map(|v| match v {
            Value::Int(i) => Some(i),
            _ => None,
        })
        .collect();
    let step = (values.len() / POINT_KEYS).max(1);
    values.into_iter().step_by(step).take(POINT_KEYS).collect()
}

/// The expected answer of one statement.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The result relation of a serial in-process run.
    pub relation: TpRelation,
    /// Its rendered schema line.
    pub schema: String,
    /// Its rendered rows (kept only when a server response is compared).
    pub rows: Vec<String>,
    /// Digest of the rendered schema and rows.
    pub digest: u64,
}

impl Reference {
    fn of(relation: TpRelation, keep_rows: bool) -> Self {
        let schema = render_schema(relation.schema());
        let rows = render_relation_rows(&relation);
        let digest = digest(&schema, &rows);
        Self {
            relation,
            schema,
            rows: if keep_rows { rows } else { Vec::new() },
            digest,
        }
    }

    /// Makes the reference wrong (drops its last tuple and row) — the
    /// self-test's injected fault.
    pub fn corrupt(&mut self) {
        let mut rel = TpRelation::new(self.relation.name(), self.relation.schema().clone());
        let keep = self.relation.len().saturating_sub(1);
        for t in self.relation.tuples().iter().take(keep) {
            rel.push_unchecked(t.clone());
        }
        self.relation = rel;
        self.rows.pop();
        self.digest ^= 1;
    }
}

/// Reference answers keyed by the statement's ad-hoc text, plus the
/// summary a `LOAD SNAPSHOT` of the saved catalog returns.
#[derive(Debug, Clone)]
pub struct References {
    /// Statement text → expected answer.
    pub by_sql: HashMap<String, Reference>,
    /// The `LOAD SNAPSHOT` summary.
    pub load: Reference,
}

impl References {
    /// Computes every reference with a serial in-process session over
    /// `catalog`. Untimed set-up work.
    #[must_use]
    pub fn compute(catalog: &Catalog, stmts: &[Stmt], keep_rows: bool) -> Self {
        let mut session = Session::new(catalog.clone());
        session.set_parallelism(1);
        let mut by_sql = HashMap::new();
        for stmt in stmts {
            if by_sql.contains_key(&stmt.sql) {
                continue;
            }
            let rel = session
                .execute(&stmt.sql)
                .expect("reference statement runs");
            by_sql.insert(stmt.sql.clone(), Reference::of(rel, keep_rows));
        }
        let load = Reference::of(
            snapshot_summary(catalog).expect("snapshot summary"),
            keep_rows,
        );
        Self { by_sql, load }
    }

    /// The reference of `stmt`.
    #[must_use]
    pub fn of(&self, stmt: &Stmt) -> &Reference {
        &self.by_sql[&stmt.sql]
    }
}
