//! # tpdb-perfbench
//!
//! The repository's benchmark: TP-join latency and throughput on three
//! workloads, driven through the public APIs of `tpdb_query::Session` and
//! `tpdb_server::{Server, Client}`, with every answer checked.
//!
//! An untraced run ([`run`] with `trace = false`) reports the end-to-end
//! metrics. A traced run reports the per-layer metrics: it measures the
//! same closed loop with and without spans (the difference is the tracing
//! overhead) and then replays the workload's statements through the
//! layers' public functions (see [`replay`]). See `README.md` for the
//! metrics, the workloads and why each was chosen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod front;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;

use front::{client_load, client_round, prepare_all, session_round, ClientRun, Tally};
use stats::{median, tail, SplitMix};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tpdb_query::Session;
use tpdb_server::{Client, Server, ServerConfig, ServerHandle};
use tpdb_storage::Catalog;
use trace::Tracer;
use workload::{heavy_mix, point_keys, References, Stmt, Texts, Workload};

/// Server rounds between two `LOAD SNAPSHOT`s of client 0.
const LOAD_EVERY: usize = 2;
/// Point scans per server round. They are cheap; eight per round give the
/// point tail over a thousand samples in a run.
const SERVER_POINTS: usize = 8;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs and of the key draws.
    pub seed: u64,
    /// Measured time.
    pub measure: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tuples per relation.
    pub tuples: usize,
    /// Set-ups per run; the median is reported.
    pub setup_reps: usize,
    /// Degree of parallelism of the in-process session.
    pub parallelism: usize,
    /// Where snapshots, traces and result records are written.
    pub out_dir: PathBuf,
    /// Self-test hook: make the first statement's reference wrong.
    pub inject_wrong: bool,
}

impl Config {
    /// Full-scale settings for a workload.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            measure: Duration::from_secs(seconds),
            trace,
            tuples: workload.default_tuples(),
            setup_reps: if trace { 1 } else { 3 },
            parallelism: workload.parallelism(),
            out_dir: PathBuf::from(".bench_out"),
            inject_wrong: false,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable context: host record, tail percentiles and sample
    /// counts, result digests.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every operation succeeded with the expected answer.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of a metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The workload's front end after set-up.
// One front end exists per run; the size difference between the variants
// is irrelevant at that cardinality.
#[allow(clippy::large_enum_variant)]
enum Front {
    /// The session the rounds and point scans run on, and a second session
    /// over the same catalog that takes the `LOAD SNAPSHOT`s. Loading on the
    /// reading session would re-decode its relations between rounds, and
    /// the new memory layout moved the read latencies by a quarter from
    /// run to run.
    Session { reader: Session, writer: Session },
    Server {
        clients: Vec<Client>,
        /// Held so the server runs until the front end is dropped (after
        /// its clients, which are declared first).
        _server: ServerHandle,
    },
}

/// Everything set-up produces.
struct Env {
    catalog: Catalog,
    front: Front,
}

/// Inputs shared by set-up and measurement.
struct Plan {
    config: Config,
    texts: Texts,
    keys: Vec<i64>,
    heavy: Vec<Stmt>,
    refs: References,
    snap_path: PathBuf,
    load_sql: String,
}

impl Plan {
    /// The statements of one server round: the heavy mix, then
    /// [`SERVER_POINTS`] point scans, prepared and ad-hoc in turn, with
    /// keys drawn from `rng`.
    fn server_round(&self, rng: &mut SplitMix) -> Vec<Stmt> {
        let mut round = self.heavy.clone();
        for i in 0..SERVER_POINTS {
            let key = self.keys[rng.below(self.keys.len())];
            round.push(self.texts.point_stmt(key, i % 2 == 0));
        }
        round
    }

    /// The statements the replay decomposes: the heavy mix plus one
    /// prepared and one ad-hoc point scan on fixed keys.
    fn replay_stmts(&self) -> Vec<Stmt> {
        let mut stmts = self.heavy.clone();
        stmts.push(self.texts.point_stmt(self.keys[0], true));
        stmts.push(self.texts.point_stmt(self.keys[self.keys.len() / 2], false));
        stmts
    }
}

/// Runs one benchmark run.
///
/// # Panics
///
/// When set-up fails: the output directory cannot be written, the data
/// cannot be registered or the server cannot start.
#[must_use]
pub fn run(config: &Config) -> Report {
    std::fs::create_dir_all(&config.out_dir).expect("output directory can be created");
    let plan = plan(config);
    let origin = Instant::now();
    let mut setup_tracer = if config.trace {
        Tracer::new(origin, 0)
    } else {
        Tracer::disabled()
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(config.setup_reps);
    let mut env = None;
    for _ in 0..config.setup_reps.max(1) {
        // The previous set-up's server is stopped before the next starts.
        drop(env.take());
        let t0 = Instant::now();
        env = Some(set_up(&plan, &mut setup_tracer, &mut tally));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let mut notes = vec![host_note(config)];
    for stmt in &plan.heavy {
        notes.push(format!(
            "digest {} {:016x} ({} rows)",
            stmt.label,
            plan.refs.of(stmt).digest,
            plan.refs.of(stmt).relation.len()
        ));
    }
    let report = if config.trace {
        traced(&plan, env, setup_tracer, tally, origin, notes)
    } else {
        untraced(&plan, env, tally, &setup_s, notes)
    };
    write_record(config, &report);
    report
}

fn plan(config: &Config) -> Plan {
    let data = workload::generate(config.workload, config.tuples, config.seed);
    let texts = Texts::new(&data);
    let keys = point_keys(&data);
    let heavy = heavy_mix(config.workload, &texts);
    let mut catalog = Catalog::new();
    catalog.register(data.r).expect("fresh catalog");
    catalog.register(data.s).expect("fresh catalog");
    let mut ref_stmts = heavy.clone();
    ref_stmts.extend(keys.iter().map(|&k| texts.point_stmt(k, false)));
    let mut refs = References::compute(&catalog, &ref_stmts, config.workload.is_server());
    if config.inject_wrong {
        if let Some(r) = refs.by_sql.get_mut(&heavy[0].sql) {
            r.corrupt();
        }
    }
    let snap_path = config.out_dir.join(format!(
        "{}-seed{}.snap",
        config.workload.name(),
        config.seed
    ));
    let load_sql = format!("LOAD SNAPSHOT '{}'", snap_path.display());
    Plan {
        config: config.clone(),
        texts,
        keys,
        heavy,
        refs,
        snap_path,
        load_sql,
    }
}

/// One set-up: data generation, catalog build, snapshot save, front-end
/// start and a warm-up pass over the mix.
fn set_up(plan: &Plan, tracer: &mut Tracer, tally: &mut Tally) -> Env {
    let config = &plan.config;
    let data = tracer.span("datagen.generate", || {
        workload::generate(config.workload, config.tuples, config.seed)
    });
    let mut catalog = Catalog::new();
    tracer.span("storage.register", || {
        catalog.register(data.r).expect("fresh catalog");
        catalog.register(data.s).expect("fresh catalog");
    });
    tracer
        .span("storage.save_snapshot", || {
            catalog.save_snapshot(&plan.snap_path)
        })
        .expect("snapshot can be saved");
    let mut warm = ClientRun::default();
    let mut off = Tracer::disabled();
    let front = if config.workload.is_server() {
        let handle = tracer.span("server.start", || {
            let config = ServerConfig {
                workers: 2,
                queue_depth: 4,
                parallelism: 1,
            };
            Server::start(catalog.clone(), config).expect("server starts")
        });
        let mut rng = SplitMix::new(config.seed, 0);
        let round = plan.server_round(&mut rng);
        let mut clients = Vec::with_capacity(2);
        for _ in 0..2 {
            let mut client = Client::connect(handle.local_addr()).expect("client connects");
            prepare_all(&mut client, &round).expect("statements prepare");
            client_round(&mut client, &round, &plan.refs, &mut off, &mut warm);
            clients.push(client);
        }
        Front::Server {
            clients,
            _server: handle,
        }
    } else {
        let mut reader = Session::new(catalog.clone());
        reader.set_parallelism(config.parallelism);
        let mut writer = Session::new(catalog.clone());
        session_round(&reader, &plan.heavy, &plan.refs, &mut off, &mut warm);
        let mut rng = SplitMix::new(config.seed, 0);
        side_slice(plan, &reader, &mut writer, &mut rng, &mut warm);
        Front::Session { reader, writer }
    };
    tally.add(&warm.tally);
    Env { catalog, front }
}

/// What the closed loop measured.
struct LoopRun {
    run: ClientRun,
    /// In process: the point scans and loads between rounds.
    side: ClientRun,
    /// Seconds the loop's throughput is computed over.
    seconds: f64,
    tracers: Vec<Tracer>,
}

impl LoopRun {
    fn qps(&self) -> f64 {
        self.run.statements as f64 / self.seconds
    }

    /// Every point-scan latency, inside the rounds and between them.
    fn points(&self) -> Vec<f64> {
        let mut points = self.run.point_ms.clone();
        points.extend(&self.side.point_ms);
        points
    }
}

/// The closed loop for `budget`. In process, one client runs rounds and
/// throughput is over the rounds' own time (checks between statements are
/// excluded); through the server, two clients run concurrently and
/// throughput is over the loop's wall time.
fn closed_loop(plan: &Plan, front: &mut Front, budget: Duration, tracer: &Tracer) -> LoopRun {
    match front {
        Front::Session { reader, writer } => {
            let mut tr = tracer.child(0);
            let mut run = ClientRun::default();
            let mut side = ClientRun::default();
            let mut rng = SplitMix::new(plan.config.seed, 0);
            let start = Instant::now();
            let mut round = 0;
            while round == 0 || start.elapsed() < budget {
                round += 1;
                tr.set_round(round);
                let ms = session_round(reader, &plan.heavy, &plan.refs, &mut tr, &mut run);
                run.rounds_ms.push(ms);
                side_slice(plan, reader, writer, &mut rng, &mut side);
            }
            let seconds = run.rounds_ms.iter().sum::<f64>() / 1e3;
            LoopRun {
                run,
                side,
                seconds,
                tracers: vec![tr],
            }
        }
        Front::Server { clients, .. } => {
            let start = Instant::now();
            let results: Vec<(ClientRun, Tracer)> = std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, client)| {
                        let mut tr = tracer.child(i as u32 + 1);
                        scope.spawn(move || {
                            let mut rng = SplitMix::new(plan.config.seed, i as u64 + 1);
                            let mut run = ClientRun::default();
                            let mut round = 0;
                            while round == 0 || start.elapsed() < budget {
                                round += 1;
                                tr.set_round(round as u32);
                                let stmts = plan.server_round(&mut rng);
                                let ms =
                                    client_round(client, &stmts, &plan.refs, &mut tr, &mut run);
                                run.rounds_ms.push(ms);
                                if i == 0 && round % LOAD_EVERY == 0 {
                                    client_load(
                                        client,
                                        &plan.load_sql,
                                        &plan.refs,
                                        &mut tr,
                                        &mut run,
                                    );
                                }
                            }
                            (run, tr)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread finishes"))
                    .collect()
            });
            let seconds = start.elapsed().as_secs_f64();
            let mut run = ClientRun::default();
            let mut tracers = Vec::new();
            for (r, t) in results {
                run.merge(r);
                tracers.push(t);
            }
            LoopRun {
                run,
                side: ClientRun::default(),
                seconds,
                tracers,
            }
        }
    }
}

/// The in-process work between two rounds: the workload's
/// [`side_work`](Workload::side_work) of `LOAD SNAPSHOT`s, then of point
/// scans, prepared and ad-hoc in turn. The loads go first: they re-grow the
/// heap the round's results just freed, so the scans that follow measure a
/// scan rather than that transient. Spreading these samples over the whole
/// run, instead of one phase, averages out the host's slower moments.
fn side_slice(
    plan: &Plan,
    reader: &Session,
    writer: &mut Session,
    rng: &mut SplitMix,
    side: &mut ClientRun,
) {
    let (scans, loads) = plan.config.workload.side_work();
    for _ in 0..loads {
        let t0 = Instant::now();
        let got = writer.execute_statement(&plan.load_sql);
        side.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        side.statements += 1;
        side.rows += side.tally.session_answer(got, &plan.refs.load) as u64;
    }
    let mut off = Tracer::disabled();
    for i in 0..scans {
        let stmt = plan
            .texts
            .point_stmt(plan.keys[rng.below(plan.keys.len())], i % 2 == 0);
        session_round(reader, &[stmt], &plan.refs, &mut off, side);
    }
}

fn untraced(
    plan: &Plan,
    mut env: Env,
    mut tally: Tally,
    setup_s: &[f64],
    mut notes: Vec<String>,
) -> Report {
    let main = closed_loop(
        plan,
        &mut env.front,
        plan.config.measure,
        &Tracer::disabled(),
    );
    drop(env);
    tally.add(&main.run.tally);
    tally.add(&main.side.tally);
    let mut writes = main.run.write_ms.clone();
    writes.extend(&main.side.write_ms);
    let round_tail = tail(&main.run.rounds_ms);
    notes.push(format!(
        "round_ms_tail is p{:.1} of {} rounds; write_ms_p50 over {} loads",
        round_tail.percentile,
        round_tail.samples,
        writes.len()
    ));
    notes.push(format!(
        "loop: {} statements, {} rows in {:.3} s; failures: {} wrong, {} busy, {} errors",
        main.run.statements,
        main.run.rows,
        main.seconds,
        tally.mismatches,
        tally.busy,
        tally.errors
    ));
    let ok_rate = if tally.attempted == 0 {
        0.0
    } else {
        (tally.attempted - tally.failed()) as f64 / tally.attempted as f64
    };
    let m = |name, value, unit| Metric { name, value, unit };
    Report {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics: vec![
            m("setup_s", median(setup_s), "s"),
            m("qps", main.qps(), "1/s"),
            m("rows_per_s", main.run.rows as f64 / main.seconds, "rows/s"),
            m("round_ms_p50", median(&main.run.rounds_ms), "ms"),
            m("round_ms_tail", round_tail.value_ms, "ms"),
            m("write_ms_p50", median(&writes), "ms"),
            m("ok_rate", ok_rate, "ratio"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        notes,
    }
}

fn traced(
    plan: &Plan,
    mut env: Env,
    setup_tracer: Tracer,
    mut tally: Tally,
    origin: Instant,
    mut notes: Vec<String>,
) -> Report {
    let half = plan.config.measure.mul_f64(0.5);
    let untraced = closed_loop(plan, &mut env.front, half, &Tracer::disabled());
    let traced = closed_loop(plan, &mut env.front, half, &Tracer::new(origin, 0));
    let (untraced_qps, traced_qps) = (untraced.qps(), traced.qps());
    let point_tail = tail(&untraced.points());
    notes.push(format!(
        "point_ms_p50 and point_ms_tail (p{:.1}) over {} point scans of the untraced half",
        point_tail.percentile, point_tail.samples
    ));
    let overhead_pct = (untraced_qps - traced_qps) / untraced_qps * 100.0;
    let catalog = env.catalog.clone();
    drop(env);
    for l in [&untraced, &traced] {
        tally.add(&l.run.tally);
        tally.add(&l.side.tally);
    }

    let stmts = plan.replay_stmts();
    let mut replay_tracer = Tracer::new(origin, 0);
    let layers = replay::replay(
        &replay::ReplayInput {
            catalog: &catalog,
            texts: &plan.texts,
            stmts: &stmts,
            refs: &plan.refs,
            parallelism: plan.config.parallelism,
            snap_path: &plan.snap_path,
            load_sql: &plan.load_sql,
            server_front: plan.config.workload.is_server(),
        },
        &mut replay_tracer,
    );
    tally.add(&layers.tally);

    // Self time covers set-up and replay: the loop's spans wrap whole
    // front-end calls and would book every layer to the front end.
    let mut all = setup_tracer;
    let datagen_ms = all.total_ms("datagen.generate");
    let register_ms = all.total_ms("storage.register");
    let save_ms = all.total_ms("storage.save_snapshot");
    all.absorb(replay_tracer);
    let self_ms = all.self_ms_by_layer();
    for t in traced.tracers {
        all.absorb(t);
    }
    let trace_path = plan.config.out_dir.join(format!(
        "{}-seed{}.trace.tsv",
        plan.config.workload.name(),
        plan.config.seed
    ));
    if let Err(e) = all.write_tsv(&trace_path) {
        notes.push(format!("trace not written: {e}"));
    } else {
        notes.push(format!(
            "trace: {} spans in {}",
            all.spans().len(),
            trace_path.display()
        ));
    }
    let busy = untraced.run.tally.busy + traced.run.tally.busy + layers.tally.busy;
    let server_errors = untraced.run.tally.server_errors
        + traced.run.tally.server_errors
        + layers.tally.server_errors
        - busy;
    let lookups = layers.cache_hits + layers.cache_misses;
    notes.push(format!(
        "qps untraced {:.4} traced {:.4}; cache hit ratio base {} lookups; \
         parallel speedup base core.join_ms / core.join_p2_ms",
        untraced_qps, traced_qps, lookups
    ));
    let l = &layers;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit| Metric { name, value, unit };
    let c = |v: u64| v as f64;
    let mut metrics = vec![
        m("datagen.gen_ms", datagen_ms, "ms"),
        m("storage.register_ms", register_ms, "ms"),
        m("storage.snapshot_save_ms", save_ms, "ms"),
        m("storage.engine_build_ms", l.engine_build_ms, "ms"),
        m("storage.snapshot_load_ms", l.snapshot_load_ms, "ms"),
        m("storage.snapshot_bytes", c(l.snapshot_bytes), "bytes"),
        m("query.parse_ms", l.parse_ms, "ms"),
        m("query.plan_ms", l.plan_ms, "ms"),
        m("query.exec_ms", l.exec_ms, "ms"),
        m("query.cache_hits", c(l.cache_hits), "count"),
        m("query.cache_misses", c(l.cache_misses), "count"),
        m("query.cache_lookups", c(lookups), "count"),
        m(
            "query.cache_hit_ratio",
            ratio(c(l.cache_hits), c(lookups)),
            "ratio",
        ),
        m("core.windows_ms", l.windows_ms, "ms"),
        m("core.windows_wo", c(l.windows_wo), "count"),
        m("core.windows_wu", c(l.windows_wu), "count"),
        m("core.windows_wn", c(l.windows_wn), "count"),
        m("core.join_ms", l.join_ms, "ms"),
        m("core.join_p2_ms", l.join_p2_ms, "ms"),
        m(
            "core.parallel_speedup",
            ratio(l.join_ms, l.join_p2_ms),
            "ratio",
        ),
        m("core.output_tuples", c(l.output_tuples), "count"),
        m(
            "core.rest_ms",
            l.join_ms - l.windows_ms - l.join_lineage_ms,
            "ms",
        ),
        m("lineage.intern_ms", l.intern_ms, "ms"),
        m("lineage.prob_ms", l.prob_ms, "ms"),
        m("lineage.to_tree_ms", l.to_tree_ms, "ms"),
        m("lineage.arena_nodes", c(l.arena_nodes), "count"),
        m(
            "lineage.shannon_expansions",
            c(l.shannon_expansions),
            "count",
        ),
        m(
            "lineage.neg_width_mean",
            ratio(c(l.neg_width_sum), c(l.neg_count)),
            "operands",
        ),
        m("lineage.neg_width_max", c(l.neg_width_max), "operands"),
        m("server.render_ms", l.render_ms, "ms"),
        m("server.wire_bytes", c(l.wire_bytes), "bytes"),
        m("server.rtt_ms", l.rtt_ms, "ms"),
        m("server.overhead_ms", l.overhead_ms, "ms"),
        m("server.load_ms", l.load_ms, "ms"),
        m("server.busy_rejects", c(busy), "count"),
        m("server.errors", c(server_errors), "count"),
        m("point_ms_p50", median(&untraced.points()), "ms"),
        m("point_ms_tail", point_tail.value_ms, "ms"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ];
    for (layer, name) in trace::LAYERS.iter().zip(SELF_METRICS) {
        metrics.push(m(name, self_ms[layer], "ms"));
    }
    Report {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
        notes,
    }
}

/// Self-time metric of each layer of [`trace::LAYERS`], in that order.
const SELF_METRICS: [&str; 6] = [
    "datagen.self_ms",
    "storage.self_ms",
    "query.self_ms",
    "core.self_ms",
    "lineage.self_ms",
    "server.self_ms",
];

/// The host record every result carries.
fn host_note(config: &Config) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host nproc={nproc} profile={profile} workload={} seed={} tuples={} parallelism={} trace={}",
        config.workload.name(),
        config.seed,
        config.tuples,
        config.parallelism,
        u8::from(config.trace)
    )
}

/// Peak resident memory of this process (`VmHWM`) in MiB; `0` where the
/// proc file system is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the notes and the result line next to the run's other outputs.
fn write_record(config: &Config, report: &Report) {
    let path = config.out_dir.join(format!(
        "{}-seed{}-trace{}.txt",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    ));
    let mut text = report.notes.join("\n");
    text.push('\n');
    text.push_str(&report.json());
    text.push('\n');
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("result record not written to {}: {e}", path.display());
    }
}
