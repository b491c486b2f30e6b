//! Bit-exact probability fixture: the output probabilities of a small
//! meteo-like TP LEFT OUTER and ANTI join, and of a correlated union of two
//! relations derived from the same base tuples, are pinned as `f64::to_bits`
//! together with the engine's Shannon-expansion count.
//!
//! The equivalence suites compare the engine against itself (serial ≡
//! parallel, interned ≡ tree) or against exact enumeration within a
//! tolerance. This fixture pins the *arithmetic order*: an optimisation of
//! the probability engine that regroups a product, or visits independent
//! components in another order, changes a last bit here even when every
//! tolerance-based check stays green.
//!
//! Regenerate (only when a change of the arithmetic is intended) with
//! `cargo test -p tpdb-core --test probability_fixture -- --ignored`.

use std::fmt::Write as _;
use tpdb_core::{tp_join_with_engine, ThetaCondition, TpJoinKind, TpSetOpKind, TpSetOpStream};
use tpdb_datagen::meteo_like;
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{TpRelation, TpTuple, Value};

const FIXTURE_PATH: &str = "tests/fixtures/probability_bits.txt";
const FIXTURE: &str = include_str!("fixtures/probability_bits.txt");

fn base_engine(relations: &[&TpRelation]) -> ProbabilityEngine {
    let mut engine = ProbabilityEngine::new();
    for r in relations {
        r.register_probabilities(&mut engine);
    }
    engine
}

fn section(out: &mut String, name: &str, result: &TpRelation, engine: &ProbabilityEngine) {
    writeln!(
        out,
        "# {name} tuples={} expansions={}",
        result.len(),
        engine.expansions()
    )
    .unwrap();
    for t in result.tuples() {
        writeln!(out, "{:016x}", t.probability().to_bits()).unwrap();
    }
}

/// Renders the fixture text from the current engine.
fn render() -> String {
    // Five stations, four metrics: every negating window disjoins up to
    // five concurrent s tuples of the same metric.
    let (r, s) = meteo_like(2000, 3);
    let few_metrics = |t: &TpTuple| t.fact(1) < &Value::Int(4);
    let (r, s) = (r.filter(few_metrics), s.filter(few_metrics));
    let theta = ThetaCondition::column_equals("Metric", "Metric");
    let mut out = String::new();
    for (name, kind) in [
        ("meteo-left-outer", TpJoinKind::LeftOuter),
        ("meteo-anti", TpJoinKind::Anti),
    ] {
        let mut engine = base_engine(&[&r, &s]);
        let result = tp_join_with_engine(&r, &s, &theta, kind, &mut engine).unwrap();
        section(&mut out, name, &result, &engine);
    }

    // (r ∖ s) ∪ (r ∩ s): both sides derive from the same r tuples, so the
    // union's lineages `(λr ∧ ¬λs…) ∨ (λr ∧ λs)` share variables and take
    // the Shannon path.
    let set_op = |left: &TpRelation, right: &TpRelation, kind, engine: &mut ProbabilityEngine| {
        TpSetOpStream::with_engine_and_plan(left, right, kind, None, engine)
            .unwrap()
            .collect_relation()
    };
    let mut engine = base_engine(&[&r, &s]);
    let difference = set_op(&r, &s, TpSetOpKind::Difference, &mut engine);
    let intersection = set_op(&r, &s, TpSetOpKind::Intersection, &mut engine);
    let mut engine = base_engine(&[&r, &s]);
    let union = set_op(&difference, &intersection, TpSetOpKind::Union, &mut engine);
    section(&mut out, "meteo-correlated-union", &union, &engine);
    out
}

#[test]
fn output_probabilities_are_bit_identical_to_the_fixture() {
    let rendered = render();
    assert!(
        rendered
            .lines()
            .any(|l| l.contains("expansions=") && !l.ends_with("expansions=0")),
        "the correlated union must exercise Shannon expansion"
    );
    for (i, (got, want)) in rendered.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "{FIXTURE_PATH}:{}: output differs", i + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        FIXTURE.lines().count(),
        "{FIXTURE_PATH}: line count differs"
    );
}

/// Rewrites the fixture from the current engine (run explicitly with
/// `--ignored`; see the module docs).
#[test]
#[ignore = "regenerates the fixture file"]
fn record_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_PATH);
    std::fs::write(path, render()).unwrap();
}
