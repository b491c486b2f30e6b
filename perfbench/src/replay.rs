//! The traced per-layer replay: each statement of a workload's mix is
//! decomposed into calls of the layers' public functions, each call inside
//! its own span, and the layers' work is counted where it happens.

use crate::front::{client_exec, prepare_all, same_rows, Tally};
use crate::stats::digest;
use crate::trace::Tracer;
use crate::workload::{Op, Reference, References, Stmt, Texts, Via};
use std::path::Path;
use tpdb_core::{
    tp_join_parallel, tp_join_with_engine, tp_union, LawanStream, LawauStream, OverlapWindowStream,
    ThetaCondition, TpJoinKind, WindowKind,
};
use tpdb_lineage::{Lineage, LineageNode};
use tpdb_query::{parse_query, plan_query_with, QueryOptions, Session};
use tpdb_server::protocol::{render_relation_rows, render_schema, rows_response};
use tpdb_server::{Client, ClientError, Rows, Server, ServerConfig};
use tpdb_storage::{Catalog, TpRelation};

/// Everything the replay measures. Times are in milliseconds, summed over
/// the statements of one replayed round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// `Catalog::probability_engine`, once per join or set-op statement.
    pub engine_build_ms: f64,
    /// `Catalog::load_snapshot` of the saved snapshot.
    pub snapshot_load_ms: f64,
    /// Size of the saved snapshot file.
    pub snapshot_bytes: u64,
    /// `parse_query` (plus parameter binding).
    pub parse_ms: f64,
    /// `plan_query_with`.
    pub plan_ms: f64,
    /// Draining the planned operator tree.
    pub exec_ms: f64,
    /// Plan-cache hits in the single-client cache replay.
    pub cache_hits: u64,
    /// Plan-cache misses in the single-client cache replay.
    pub cache_misses: u64,
    /// The window pipeline of each join, drained and counted.
    pub windows_ms: f64,
    /// Overlapping windows.
    pub windows_wo: u64,
    /// Unmatched windows.
    pub windows_wu: u64,
    /// Negating windows.
    pub windows_wn: u64,
    /// Serial `tp_join_with_engine`.
    pub join_ms: f64,
    /// `tp_join_parallel` at degree 2.
    pub join_p2_ms: f64,
    /// Join output tuples.
    pub output_tuples: u64,
    /// Re-interning the join outputs' lineages in a fresh engine.
    pub intern_ms: f64,
    /// Pricing the interned lineages.
    pub prob_ms: f64,
    /// Converting the interned lineages back to trees.
    pub to_tree_ms: f64,
    /// `intern_ms + prob_ms` over join statements only (for `core.rest_ms`).
    pub join_lineage_ms: f64,
    /// Arena nodes the re-interning created.
    pub arena_nodes: u64,
    /// Shannon expansions the pricing made.
    pub shannon_expansions: u64,
    /// Negated sub-formulas seen under `NOT`.
    pub neg_count: u64,
    /// Sum of their widths (operands of the negated disjunction).
    pub neg_width_sum: u64,
    /// Widest negated disjunction.
    pub neg_width_max: u64,
    /// `render_relation_rows`.
    pub render_ms: f64,
    /// Bytes of the rendered response frames (schema line and rows).
    pub wire_bytes: u64,
    /// Client round-trip time of each statement.
    pub rtt_ms: f64,
    /// Round-trip time minus in-process execute and render.
    pub overhead_ms: f64,
    /// `LOAD SNAPSHOT` through the server.
    pub load_ms: f64,
    /// Outcomes of every replayed operation.
    pub tally: Tally,
}

/// What the replay runs against.
pub struct ReplayInput<'a> {
    /// The workload's data.
    pub catalog: &'a Catalog,
    /// The relations' names and join key.
    pub texts: &'a Texts,
    /// The replayed statements.
    pub stmts: &'a [Stmt],
    /// Their references.
    pub refs: &'a References,
    /// Degree of parallelism of the query-layer execution.
    pub parallelism: usize,
    /// The saved snapshot.
    pub snap_path: &'a Path,
    /// `LOAD SNAPSHOT '<snap_path>'`.
    pub load_sql: &'a str,
    /// Whether the workload's front end is the server (it then also
    /// provides the cache counts).
    pub server_front: bool,
}

/// Runs the replay, recording spans into `tracer`.
pub fn replay(input: &ReplayInput<'_>, tracer: &mut Tracer) -> Layers {
    let mut out = Layers::default();
    let catalog = input.catalog;
    let r = catalog.relation(&input.texts.r).expect("r registered");
    let s = catalog.relation(&input.texts.s).expect("s registered");
    let key = input.texts.key;
    let theta = ThetaCondition::column_equals(key, key);
    let options = QueryOptions {
        parallelism: input.parallelism,
    };
    tracer.set_round(1);
    // Per statement: in-process execute and render time, for the server's
    // overhead.
    let mut local_ms = Vec::with_capacity(input.stmts.len());
    for stmt in input.stmts {
        tracer.begin("bench.statement");
        let want = input.refs.of(stmt);
        let (rel, mut ms) = query_layer(catalog, stmt, &options, tracer, &mut out, want);
        match stmt.op {
            Op::Join(kind) => {
                out.engine_build_ms += tracer
                    .timed("storage.engine_build", || catalog.probability_engine())
                    .1;
                windows(&r, &s, &theta, kind, tracer, &mut out);
                // Core results name their columns differently from the query
                // layer's, so only their tuples are compared.
                let mut engine = catalog.probability_engine();
                let (joined, join_ms) = tracer.timed("core.join", || {
                    tp_join_with_engine(&r, &s, &theta, kind, &mut engine).expect("θ binds")
                });
                out.join_ms += join_ms;
                out.output_tuples += joined.len() as u64;
                check(&mut out.tally, joined.tuples() == want.relation.tuples());
                drop(joined);
                let (joined, p2_ms) = tracer.timed("core.join_p2", || {
                    tp_join_parallel(&r, &s, &theta, kind, 2).expect("θ binds")
                });
                out.join_p2_ms += p2_ms;
                check(&mut out.tally, joined.tuples() == want.relation.tuples());
                let before = out.intern_ms + out.prob_ms;
                lineage_layer(catalog, &rel, tracer, &mut out);
                out.join_lineage_ms += out.intern_ms + out.prob_ms - before;
            }
            Op::Union => {
                out.engine_build_ms += tracer
                    .timed("storage.engine_build", || catalog.probability_engine())
                    .1;
                let unioned =
                    tracer.span("core.union", || tp_union(&r, &s).expect("union-compatible"));
                check(&mut out.tally, unioned.tuples() == want.relation.tuples());
                lineage_layer(catalog, &rel, tracer, &mut out);
            }
            Op::Scan => {}
        }
        let (rows, render_ms) = tracer.timed("server.render", || render_relation_rows(&rel));
        out.render_ms += render_ms;
        ms += render_ms;
        let schema = render_schema(rel.schema());
        // The exact frame the server writes, built outside any span.
        out.wire_bytes += rows_response(&rel).encode().len() as u64;
        check(&mut out.tally, digest(&schema, &rows) == want.digest);
        local_ms.push(ms);
        tracer.end();
    }

    let mut probe = Catalog::new();
    let (loaded, load_ms) = tracer.timed("storage.load_snapshot", || {
        probe.load_snapshot(input.snap_path)
    });
    out.snapshot_load_ms = load_ms;
    check(&mut out.tally, loaded.is_ok());
    out.snapshot_bytes = std::fs::metadata(input.snap_path).map_or(0, |m| m.len());

    server_layer(input, &local_ms, tracer, &mut out);
    if !input.server_front {
        session_cache(input, &mut out);
    }
    out
}

/// Counts one check of a replayed result.
fn check(tally: &mut Tally, ok: bool) {
    tally.attempted += 1;
    if !ok {
        tally.mismatches += 1;
    }
}

/// Parse, plan and execute through the query layer's public functions.
fn query_layer(
    catalog: &Catalog,
    stmt: &Stmt,
    options: &QueryOptions,
    tracer: &mut Tracer,
    out: &mut Layers,
    want: &Reference,
) -> (TpRelation, f64) {
    let (plan, parse_ms) = tracer.timed("query.parse", || {
        let (text, params) = match &stmt.via {
            Via::Text => (stmt.sql.as_str(), &[][..]),
            Via::Prepared {
                template, params, ..
            } => (template.as_str(), params.as_slice()),
        };
        let plan = parse_query(text).expect("statement parses");
        plan.bind_parameters(params).expect("parameters bind")
    });
    out.parse_ms += parse_ms;
    let (mut root, plan_ms) = tracer.timed("query.plan", || {
        plan_query_with(catalog, &plan, options).expect("statement plans")
    });
    out.plan_ms += plan_ms;
    let (rel, exec_ms) = tracer.timed("query.exec", || root.collect("result"));
    out.exec_ms += exec_ms;
    let rel = rel.expect("statement executes");
    check(&mut out.tally, same_rows(&rel, &want.relation));
    (rel, exec_ms)
}

/// Drains the window pipeline a join of `kind` runs, counting windows by
/// kind: the overlap join alone for inner joins, overlap join → LAWAU →
/// LAWAN for joins with negation.
fn windows(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    tracer: &mut Tracer,
    out: &mut Layers,
) {
    let (counts, ms) = tracer.timed("core.windows", || {
        let wo = OverlapWindowStream::new(r, s, theta).expect("θ binds");
        let mut counts = [0u64; 3];
        let mut count = |k: WindowKind| {
            counts[match k {
                WindowKind::Overlapping => 0,
                WindowKind::Unmatched => 1,
                WindowKind::Negating => 2,
            }] += 1;
        };
        if kind == TpJoinKind::Inner {
            wo.for_each(|w| count(w.kind));
        } else {
            LawanStream::new(LawauStream::new(wo, r)).for_each(|w| count(w.kind));
        }
        counts
    });
    out.windows_ms += ms;
    out.windows_wo += counts[0];
    out.windows_wu += counts[1];
    out.windows_wn += counts[2];
}

/// Re-interns and re-prices a result's lineages in a fresh engine, converts
/// them back to trees, and measures the width of every negated disjunction.
fn lineage_layer(catalog: &Catalog, rel: &TpRelation, tracer: &mut Tracer, out: &mut Layers) {
    let mut engine = catalog.probability_engine();
    let nodes_before = engine.interner().len();
    let (ids, ms) = tracer.timed("lineage.intern", || {
        rel.tuples()
            .iter()
            .map(|t| engine.intern(t.lineage()))
            .collect::<Vec<_>>()
    });
    out.intern_ms += ms;
    out.arena_nodes += (engine.interner().len() - nodes_before) as u64;
    let expansions_before = engine.expansions();
    let (probs, ms) = tracer.timed("lineage.prob", || {
        ids.iter()
            .map(|&id| engine.probability_ref(id))
            .collect::<Vec<_>>()
    });
    out.prob_ms += ms;
    out.shannon_expansions += engine.expansions() - expansions_before;
    let (trees, ms) = tracer.timed("lineage.to_tree", || {
        ids.iter()
            .map(|&id| engine.to_lineage(id))
            .collect::<Vec<_>>()
    });
    out.to_tree_ms += ms;
    let mut agree = true;
    for ((t, p), tree) in rel.tuples().iter().zip(&probs).zip(&trees) {
        agree &= (t.probability() - p).abs() <= 1e-9 && tree == t.lineage();
        negation_widths(t.lineage(), out);
    }
    check(&mut out.tally, agree);
}

/// Walks a lineage and records the width of each sub-formula under `NOT`.
fn negation_widths(lineage: &Lineage, out: &mut Layers) {
    match lineage.node() {
        LineageNode::Not(inner) => {
            let width = match inner.node() {
                LineageNode::Or(ops) => ops.len() as u64,
                _ => 1,
            };
            out.neg_count += 1;
            out.neg_width_sum += width;
            out.neg_width_max = out.neg_width_max.max(width);
            negation_widths(inner, out);
        }
        LineageNode::And(ops) | LineageNode::Or(ops) => {
            for op in ops {
                negation_widths(op, out);
            }
        }
        LineageNode::True | LineageNode::False | LineageNode::Var(_) => {}
    }
}

/// Counts one server answer, compared with the reference by digest.
fn wire_check(tally: &mut Tally, got: Result<Rows, ClientError>, want: &Reference) {
    match got {
        Ok(rows) => check(tally, digest(&rows.schema, &rows.rows) == want.digest),
        Err(e) => {
            tally.attempted += 1;
            tally.server_error(&e);
        }
    }
}

/// The server replay: a fresh one-worker server and one client. One worker
/// runs each statement at the replay's own degree of parallelism (a wider
/// pool would widen idle-time statements), so the round trip minus the
/// in-process execute and render is the server's own overhead. Round 1 is
/// timed statement by statement; rounds 2 and 3, with a `LOAD SNAPSHOT`
/// between them, complete the deterministic cache replay.
fn server_layer(input: &ReplayInput<'_>, local_ms: &[f64], tracer: &mut Tracer, out: &mut Layers) {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 4,
        parallelism: input.parallelism,
    };
    let server = tracer.span("server.start", || {
        Server::start(input.catalog.clone(), config).expect("server starts")
    });
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    if let Err(e) = prepare_all(&mut client, input.stmts) {
        out.tally.attempted += 1;
        out.tally.server_error(&e);
    }
    for round in 1..=3u32 {
        tracer.set_round(round);
        for (stmt, &local) in input.stmts.iter().zip(local_ms) {
            let (got, rtt) = tracer.timed("server.request", || client_exec(&mut client, stmt));
            if round == 1 {
                out.rtt_ms += rtt;
                out.overhead_ms += rtt - local;
            }
            wire_check(&mut out.tally, got, input.refs.of(stmt));
        }
        if round == 2 {
            let (got, ms) = tracer.timed("server.load", || client.query(input.load_sql));
            out.load_ms = ms;
            wire_check(&mut out.tally, got, &input.refs.load);
        }
    }
    drop(client.close());
    let stats = server.shutdown();
    if input.server_front {
        out.cache_hits = stats.cache_hits;
        out.cache_misses = stats.cache_misses;
    }
}

/// The in-process cache replay: a fresh session looks up the mix three
/// times, with a `LOAD SNAPSHOT` between the second and third pass.
fn session_cache(input: &ReplayInput<'_>, out: &mut Layers) {
    let mut session = Session::new(input.catalog.clone());
    session.set_parallelism(input.parallelism);
    for pass in 1..=3 {
        for stmt in input.stmts {
            let text = match &stmt.via {
                Via::Text => &stmt.sql,
                Via::Prepared { template, .. } => template,
            };
            check(&mut out.tally, session.prepare(text).is_ok());
        }
        if pass == 2 {
            check(
                &mut out.tally,
                session.execute_statement(input.load_sql).is_ok(),
            );
        }
    }
    let stats = session.stats();
    out.cache_hits = stats.cache_hits;
    out.cache_misses = stats.cache_misses;
}
