//! The two front ends a workload drives — an in-process `Session` and
//! `tpdb-server` clients — with every answer checked against its
//! reference.

use crate::trace::Tracer;
use crate::workload::{Reference, References, Stmt, Via};
use tpdb_query::{Session, TpdbError};
use tpdb_server::{Client, ClientError, ErrorCode, Rows};
use tpdb_storage::TpRelation;

/// Operations attempted and how the failed ones failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Answers that differed from their reference.
    pub mismatches: u64,
    /// Requests refused with `ServerBusy`.
    pub busy: u64,
    /// Engine or server errors other than `ServerBusy`.
    pub errors: u64,
    /// Server errors of any kind (subset of `busy + errors`).
    pub server_errors: u64,
}

impl Tally {
    /// Failed operations: wrong, refused or erroring.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.mismatches + self.busy + self.errors
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.mismatches += other.mismatches;
        self.busy += other.busy;
        self.errors += other.errors;
        self.server_errors += other.server_errors;
    }

    /// Counts one in-process answer; returns its tuple count.
    pub fn session_answer(
        &mut self,
        got: Result<TpRelation, TpdbError>,
        want: &Reference,
    ) -> usize {
        self.attempted += 1;
        match got {
            Ok(rel) if same_rows(&rel, &want.relation) => rel.len(),
            Ok(rel) => {
                self.mismatches += 1;
                rel.len()
            }
            Err(_) => {
                self.errors += 1;
                0
            }
        }
    }

    /// Counts one server answer, compared byte for byte with the rendered
    /// reference rows; returns its row count.
    pub fn server_answer(&mut self, got: Result<Rows, ClientError>, want: &Reference) -> usize {
        self.attempted += 1;
        match got {
            Ok(rows) => {
                if rows.schema != want.schema || rows.rows != want.rows {
                    self.mismatches += 1;
                }
                rows.rows.len()
            }
            Err(e) => {
                self.server_error(&e);
                0
            }
        }
    }

    /// Counts a failed server request.
    pub fn server_error(&mut self, e: &ClientError) {
        self.server_errors += 1;
        if e.server_code() == Some(ErrorCode::ServerBusy) {
            self.busy += 1;
        } else {
            self.errors += 1;
        }
    }
}

/// Whether two relations hold the same schema and tuples (names aside).
#[must_use]
pub fn same_rows(a: &TpRelation, b: &TpRelation) -> bool {
    a.schema() == b.schema() && a.tuples() == b.tuples()
}

/// Runs a statement through a session.
pub fn session_exec(session: &Session, stmt: &Stmt) -> Result<TpRelation, TpdbError> {
    match &stmt.via {
        Via::Text => session.execute(&stmt.sql),
        Via::Prepared {
            template, params, ..
        } => session.prepare(template)?.execute(params),
    }
}

/// Runs a statement through a server connection.
pub fn client_exec(client: &mut Client, stmt: &Stmt) -> Result<Rows, ClientError> {
    match &stmt.via {
        Via::Text => client.query(&stmt.sql),
        Via::Prepared { name, params, .. } => client.execute(name, params),
    }
}

/// Prepares every named statement of `stmts` on a connection.
pub fn prepare_all(client: &mut Client, stmts: &[Stmt]) -> Result<(), ClientError> {
    let mut done: Vec<&str> = Vec::new();
    for stmt in stmts {
        if let Via::Prepared { name, template, .. } = &stmt.via {
            if !done.contains(name) {
                client.prepare(name, template)?;
                done.push(name);
            }
        }
    }
    Ok(())
}

/// What one closed-loop client measured.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Round latencies in milliseconds.
    pub rounds_ms: Vec<f64>,
    /// Point-scan latencies in milliseconds.
    pub point_ms: Vec<f64>,
    /// `LOAD SNAPSHOT` latencies in milliseconds.
    pub write_ms: Vec<f64>,
    /// Statements completed (any outcome).
    pub statements: u64,
    /// Result tuples delivered.
    pub rows: u64,
    /// Outcomes.
    pub tally: Tally,
}

impl ClientRun {
    /// Merges another client's measurements into this one.
    pub fn merge(&mut self, other: ClientRun) {
        self.rounds_ms.extend(other.rounds_ms);
        self.point_ms.extend(other.point_ms);
        self.write_ms.extend(other.write_ms);
        self.statements += other.statements;
        self.rows += other.rows;
        self.tally.add(&other.tally);
    }
}

/// One in-process round: each statement of `round` in order. Returns the
/// round's latency (statement executions only; checks are excluded).
pub fn session_round(
    session: &Session,
    round: &[Stmt],
    refs: &References,
    tracer: &mut Tracer,
    run: &mut ClientRun,
) -> f64 {
    tracer.begin("bench.round");
    let mut round_ms = 0.0;
    for stmt in round {
        let (got, ms) = tracer.timed("query.session_execute", || session_exec(session, stmt));
        round_ms += ms;
        if stmt.is_point() {
            run.point_ms.push(ms);
        }
        run.statements += 1;
        run.rows += run.tally.session_answer(got, refs.of(stmt)) as u64;
    }
    tracer.end();
    round_ms
}

/// One server round by one client. Returns the round's latency.
pub fn client_round(
    client: &mut Client,
    round: &[Stmt],
    refs: &References,
    tracer: &mut Tracer,
    run: &mut ClientRun,
) -> f64 {
    tracer.begin("bench.round");
    let mut round_ms = 0.0;
    for stmt in round {
        let (got, ms) = tracer.timed("server.request", || client_exec(client, stmt));
        round_ms += ms;
        if stmt.is_point() {
            run.point_ms.push(ms);
        }
        run.statements += 1;
        run.rows += run.tally.server_answer(got, refs.of(stmt)) as u64;
    }
    tracer.end();
    round_ms
}

/// One `LOAD SNAPSHOT` through a server connection, checked against the
/// reference summary.
pub fn client_load(
    client: &mut Client,
    load_sql: &str,
    refs: &References,
    tracer: &mut Tracer,
    run: &mut ClientRun,
) {
    let (got, ms) = tracer.timed("server.load", || client.query(load_sql));
    run.write_ms.push(ms);
    run.statements += 1;
    run.rows += run.tally.server_answer(got, &refs.load) as u64;
}
