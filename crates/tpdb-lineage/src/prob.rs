//! Exact probability computation for lineage formulas.

use crate::formula::Lineage;
use crate::intern::{FxHashMap, InternedNode, LineageInterner, LineageRef};
use crate::symbols::VarId;
use std::fmt;
use std::sync::Arc;

/// The marginal probability of every registered base-tuple variable.
///
/// A hash map, not a vector indexed by [`VarId`]: variable ids are not
/// dense (generated relations number their variables from 10⁸ up).
pub type Marginals = FxHashMap<VarId, f64>;

/// Errors produced by the probability engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbabilityError {
    /// A variable occurring in the formula has no registered probability.
    MissingVariable(VarId),
    /// A probability outside `[0, 1]` was supplied.
    OutOfRange(f64),
}

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbabilityError::MissingVariable(v) => {
                write!(f, "no probability registered for variable {v}")
            }
            ProbabilityError::OutOfRange(p) => {
                write!(f, "probability {p} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ProbabilityError {}

/// Exact probability computation under tuple independence.
///
/// Base tuples of a TP database are independent boolean random variables;
/// the probability of a derived tuple is `Pr(λ)` for its lineage `λ`. The
/// engine computes this exactly:
///
/// 1. structural cases (`true`, `false`, variables, negation),
/// 2. *independent decomposition*: the children of an `And`/`Or` are grouped
///    into connected components over shared variables; distinct components
///    are mutually independent, so their probabilities combine by
///    multiplication (`And`) or inclusion-exclusion on the complement (`Or`).
///    Hash-consing gives every variable exactly one arena node, so two
///    children share a variable exactly when their sub-DAG walks meet at a
///    common node; the walks stamp node ids in scratch vectors the engine
///    reuses, and allocate nothing,
/// 3. a *Shannon expansion* fallback for components whose children share
///    variables, expanding on the most frequent variable and memoizing
///    intermediate results.
///
/// The lineages produced by TP joins with negation are of the shapes
/// `λr ∧ λs`, `λr`, and `λr ∧ ¬(s₁ ∨ s₂ ∨ …)` over *distinct base tuples*,
/// so in practice the decomposition path answers almost every query without
/// expansion; the Shannon fallback keeps the engine exact for arbitrarily
/// correlated lineages (e.g. after self-joins).
///
/// # Representation
///
/// The engine owns a [`LineageInterner`]: formulas are evaluated in
/// hash-consed form ([`LineageRef`]), and the memo is a dense vector
/// indexed by node id (`NaN` marking absent entries) instead of a map
/// keyed by deep structural hashes of trees. Marginal probabilities live
/// behind an [`Arc`] with copy-on-write semantics, so cloning an engine —
/// as the query layer does once per execution, and the parallel join does
/// once per worker — is cheap and shares the registered probabilities
/// until one side writes. A catalog that keeps its [`Marginals`] in an
/// `Arc` hands them over the same way ([`with_marginals`](Self::with_marginals)).
///
/// Callers on the hot path intern once ([`intern`](Self::intern) or the
/// interned stream constructors) and evaluate with
/// [`probability_ref`](Self::probability_ref); [`probability`](Self::probability)
/// accepts legacy trees and interns on the fly.
#[derive(Debug, Clone, Default)]
pub struct ProbabilityEngine {
    probs: Arc<Marginals>,
    interner: LineageInterner,
    /// Dense memo indexed by node id; `NaN` marks an absent entry. Cleared
    /// when a registered probability changes.
    memo: Vec<f64>,
    /// Sticky per-node flag: every variable under this node has a
    /// registered probability. Registration only ever adds or overwrites
    /// variables, so a `true` entry stays valid forever.
    verified: Vec<bool>,
    /// Counts Shannon expansions performed (exposed for the ablation bench).
    expansions: u64,
    /// When true, the decomposition shortcuts are disabled and every
    /// compound formula goes through Shannon expansion. Only used by the
    /// ablation experiment; keeps results identical, only slower.
    force_shannon: bool,
    /// Reusable buffers of the sub-DAG walks.
    scratch: Scratch,
}

/// Epoch-stamped per-node scratch of the sub-DAG walks (component
/// grouping, variable checks, branching-variable counts).
///
/// A walk begins a new epoch; `stamp[id] == epoch` means node `id` was
/// reached in the current walk and `mark[id]` holds what the walk recorded
/// for it. Starting a walk is O(1) — nothing is cleared — and the vectors
/// only grow with the arena, so a walk allocates nothing once they have.
#[derive(Debug, Clone, Default)]
struct Scratch {
    epoch: u32,
    stamp: Vec<u32>,
    mark: Vec<u32>,
    stack: Vec<LineageRef>,
    /// Nodes collected by a walk (checked nodes, counted variables).
    list: Vec<LineageRef>,
    /// Union-find parents over the children of one `And`/`Or`.
    parent: Vec<u32>,
}

impl Scratch {
    /// Starts a walk over an arena of `arena_len` nodes.
    fn begin(&mut self, arena_len: usize) {
        if self.stamp.len() < arena_len {
            self.stamp.resize(arena_len, 0);
            self.mark.resize(arena_len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.list.clear();
    }

    /// Reaches node `i` with `value`: the value it was first reached with
    /// in this walk, or `None` (recording `value`) on the first visit.
    fn reach(&mut self, i: usize, value: u32) -> Option<u32> {
        if self.stamp[i] == self.epoch {
            Some(self.mark[i])
        } else {
            self.stamp[i] = self.epoch;
            self.mark[i] = value;
            None
        }
    }

    fn find(&mut self, i: u32) -> u32 {
        let mut root = i;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = i;
        while cur != root {
            let up = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = up;
        }
        root
    }

    /// Groups `children` into connected components over shared variables,
    /// leaving the union-find forest in `parent`. Returns `true` when every
    /// child is its own component.
    ///
    /// Child `i` walks its sub-DAG marking nodes with `i`; reaching a node
    /// another child marked means the two share that node, hence a
    /// variable below it (every node under an `And`/`Or` mentions one),
    /// and the walk does not descend further — the owner already covered
    /// that sub-DAG.
    fn group(&mut self, interner: &LineageInterner, children: &[LineageRef]) -> bool {
        self.begin(interner.len());
        self.parent.clear();
        self.parent.extend(0..children.len() as u32);
        let mut independent = true;
        for (i, &child) in children.iter().enumerate() {
            let i = i as u32;
            self.stack.push(child);
            while let Some(cur) = self.stack.pop() {
                match self.reach(cur.index(), i) {
                    None => push_children(interner, cur, &mut self.stack),
                    Some(owner) if owner == i => {}
                    Some(owner) => {
                        let (a, b) = (self.find(i), self.find(owner));
                        if a != b {
                            self.parent[a as usize] = b;
                        }
                        independent = false;
                    }
                }
            }
        }
        independent
    }
}

/// Pushes the children of `r` (none for constants and variables).
fn push_children(interner: &LineageInterner, r: LineageRef, stack: &mut Vec<LineageRef>) {
    match interner.node(r) {
        InternedNode::True | InternedNode::False | InternedNode::Var(_) => {}
        InternedNode::Not(c) => stack.push(*c),
        InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend(cs.iter().copied()),
    }
}

impl ProbabilityEngine {
    /// Creates an engine with no registered variables.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine over shared marginals: the map is not copied
    /// until the engine registers a changed probability.
    #[must_use]
    pub fn with_marginals(probs: Arc<Marginals>) -> Self {
        Self {
            probs,
            ..Self::default()
        }
    }

    /// Registers (or overwrites) the marginal probability of a variable.
    ///
    /// # Panics
    /// Panics if `p` is not within `[0, 1]`. Use [`ProbabilityEngine::try_set`]
    /// for a fallible variant.
    pub fn set(&mut self, var: VarId, p: f64) {
        self.try_set(var, p).expect("probability must be in [0, 1]");
    }

    /// Registers the marginal probability of a variable, validating range.
    /// The memo is invalidated only if the value actually changes.
    pub fn try_set(&mut self, var: VarId, p: f64) -> Result<(), ProbabilityError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(ProbabilityError::OutOfRange(p));
        }
        if self.probs.get(&var) == Some(&p) {
            return Ok(());
        }
        Arc::make_mut(&mut self.probs).insert(var, p);
        self.memo.clear();
        Ok(())
    }

    /// Registers a batch of marginal probabilities, clearing the memo at
    /// most **once** (single-variable [`set`](Self::set) pays the memo
    /// invalidation per call, making bulk registration `O(n · memo)`).
    /// Registrations that change nothing — the common case when the query
    /// layer re-registers catalog-known probabilities per execution — leave
    /// both the memo and the shared probability map untouched.
    ///
    /// # Panics
    /// Panics if any probability is not within `[0, 1]`. Use
    /// [`ProbabilityEngine::try_set_all`] for a fallible variant.
    pub fn set_all<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        self.try_set_all(items)
            .expect("probability must be in [0, 1]");
    }

    /// Registers a batch of marginal probabilities, validating ranges and
    /// clearing the memo at most once. On error nothing is modified.
    pub fn try_set_all<I>(&mut self, items: I) -> Result<(), ProbabilityError>
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let mut changed: Vec<(VarId, f64)> = Vec::new();
        for (var, p) in items {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ProbabilityError::OutOfRange(p));
            }
            if self.probs.get(&var) != Some(&p) {
                changed.push((var, p));
            }
        }
        if changed.is_empty() {
            return Ok(());
        }
        let probs = Arc::make_mut(&mut self.probs);
        for (var, p) in changed {
            probs.insert(var, p);
        }
        self.memo.clear();
        Ok(())
    }

    /// The registered probability of a variable.
    #[must_use]
    pub fn get(&self, var: VarId) -> Option<f64> {
        self.probs.get(&var).copied()
    }

    /// Number of registered variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Is the engine empty (no variables registered)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Number of Shannon expansions performed so far.
    #[must_use]
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Disables the independence-decomposition shortcuts (ablation only).
    pub fn set_force_shannon(&mut self, force: bool) {
        self.force_shannon = force;
        self.memo.clear();
    }

    /// The formula arena backing this engine.
    #[must_use]
    pub fn interner(&self) -> &LineageInterner {
        &self.interner
    }

    /// Mutable access to the formula arena (the interned window streams
    /// build their lineages directly in the engine's arena so the refs they
    /// produce can be priced without conversion).
    pub fn interner_mut(&mut self) -> &mut LineageInterner {
        &mut self.interner
    }

    /// Interns a legacy lineage tree into the engine's arena.
    pub fn intern(&mut self, lineage: &Lineage) -> LineageRef {
        self.interner.intern(lineage)
    }

    /// Converts an interned formula back into a legacy tree (cached).
    pub fn to_lineage(&mut self, r: LineageRef) -> Lineage {
        self.interner.to_lineage(r)
    }

    /// Computes `Pr(λ)`.
    ///
    /// # Panics
    /// Panics if a variable of `λ` has no registered probability. Use
    /// [`ProbabilityEngine::try_probability`] for a fallible variant.
    #[must_use]
    pub fn probability(&mut self, lineage: &Lineage) -> f64 {
        self.try_probability(lineage)
            .expect("all lineage variables must have probabilities")
    }

    /// Computes `Pr(λ)`, reporting missing variables as errors.
    pub fn try_probability(&mut self, lineage: &Lineage) -> Result<f64, ProbabilityError> {
        let r = self.interner.intern(lineage);
        self.try_probability_ref(r)
    }

    /// Computes `Pr(λ)` for an interned formula.
    ///
    /// # Panics
    /// Panics if a variable of `λ` has no registered probability. Use
    /// [`ProbabilityEngine::try_probability_ref`] for a fallible variant.
    #[must_use]
    pub fn probability_ref(&mut self, r: LineageRef) -> f64 {
        self.try_probability_ref(r)
            .expect("all lineage variables must have probabilities")
    }

    /// Computes `Pr(λ)` for an interned formula, reporting missing
    /// variables as errors (the *smallest* missing variable is reported,
    /// matching the tree-walk order of the legacy engine).
    pub fn try_probability_ref(&mut self, r: LineageRef) -> Result<f64, ProbabilityError> {
        self.check_vars(r)?;
        Ok(self.prob_rec(r))
    }

    /// Verifies every variable under `r` has a registered probability.
    /// Nodes that pass are marked in the sticky `verified` table, so
    /// re-pricing formulas over already-checked sub-DAGs is `O(1)`.
    fn check_vars(&mut self, root: LineageRef) -> Result<(), ProbabilityError> {
        if self.verified.len() < self.interner.len() {
            self.verified.resize(self.interner.len(), false);
        }
        if self.verified[root.index()] {
            return Ok(());
        }
        let scratch = &mut self.scratch;
        scratch.begin(self.interner.len());
        scratch.stack.push(root);
        let mut missing: Option<VarId> = None;
        while let Some(cur) = scratch.stack.pop() {
            let i = cur.index();
            if self.verified[i] || scratch.reach(i, 0).is_some() {
                continue;
            }
            scratch.list.push(cur);
            if let InternedNode::Var(v) = self.interner.node(cur) {
                if !self.probs.contains_key(v) {
                    missing = Some(missing.map_or(*v, |m| m.min(*v)));
                }
            }
            push_children(&self.interner, cur, &mut scratch.stack);
        }
        if let Some(v) = missing {
            return Err(ProbabilityError::MissingVariable(v));
        }
        for r in &scratch.list {
            self.verified[r.index()] = true;
        }
        Ok(())
    }

    /// Checks the engine's arena and memo invariants, returning a
    /// description of the first violation (`Ok(())` when healthy):
    /// the owned interner passes [`LineageInterner::verify_arena`], the
    /// id-keyed side tables never outgrow the arena, every present memo
    /// entry is a probability in `[0, 1]`, and the two constants — when
    /// memoized — carry their exact probabilities.
    ///
    /// `O(arena size)`; intended for debug builds and property tests.
    // The constants are seeded with exactly 1.0/0.0, so the sentinel check
    // is a legitimate exact comparison.
    #[allow(clippy::float_cmp)]
    // A diagnostic self-check like the interner's: the String payload is an
    // assertion message, not an error callers match on.
    // tpdb-lint: allow(error-taxonomy)
    pub fn verify_arena(&self) -> Result<(), String> {
        self.interner.verify_arena()?;
        if self.memo.len() > self.interner.len() {
            return Err(format!(
                "memo has {} entries for {} arena nodes",
                self.memo.len(),
                self.interner.len()
            ));
        }
        if self.verified.len() > self.interner.len() {
            return Err(format!(
                "verified table has {} entries for {} arena nodes",
                self.verified.len(),
                self.interner.len()
            ));
        }
        for (i, &p) in self.memo.iter().enumerate() {
            if p.is_nan() {
                continue; // NaN is the absent-entry sentinel
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("memo[{i}] = {p} is outside [0, 1]"));
            }
            if (i == 0 && p != 1.0) || (i == 1 && p != 0.0) {
                return Err(format!("constant node {i} memoized with probability {p}"));
            }
        }
        Ok(())
    }

    fn memo_get(&self, r: LineageRef) -> Option<f64> {
        self.memo.get(r.index()).copied().filter(|p| !p.is_nan())
    }

    fn memo_insert(&mut self, r: LineageRef, p: f64) {
        let i = r.index();
        if self.memo.len() <= i {
            self.memo.resize(self.interner.len().max(i + 1), f64::NAN);
        }
        self.memo[i] = p;
    }

    fn prob_rec(&mut self, r: LineageRef) -> f64 {
        let is_and = match self.interner.node(r) {
            InternedNode::True => return 1.0,
            InternedNode::False => return 0.0,
            InternedNode::Var(v) => return self.probs[v],
            InternedNode::Not(c) => {
                let c = *c;
                return 1.0 - self.prob_rec(c);
            }
            InternedNode::And(_) => true,
            InternedNode::Or(_) => false,
        };
        if let Some(p) = self.memo_get(r) {
            return p;
        }
        let p = if self.force_shannon {
            self.shannon(r)
        } else {
            self.prob_nary(r, is_and)
        };
        self.memo_insert(r, p);
        p
    }

    /// Probability of the n-ary conjunction (`is_and`) or disjunction `r`.
    fn prob_nary(&mut self, r: LineageRef, is_and: bool) -> f64 {
        let children = children_of(&self.interner, r);
        let n = children.len();
        // Group children into connected components over shared variables.
        if self.scratch.group(&self.interner, children) {
            // Every child is its own component: combine them in order.
            let mut acc = 1.0;
            for k in 0..n {
                let p = self.prob_rec(children_of(&self.interner, r)[k]);
                acc *= if is_and { p } else { 1.0 - p };
            }
            return if is_and { acc } else { 1.0 - acc };
        }
        // Some children share variables: one group per component, ordered
        // by its first child, members in child order.
        let mut groups: Vec<Vec<LineageRef>> = Vec::new();
        let mut group_of_root = vec![usize::MAX; n];
        for (i, &child) in children.iter().enumerate() {
            let root = self.scratch.find(i as u32) as usize;
            if group_of_root[root] == usize::MAX {
                group_of_root[root] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of_root[root]].push(child);
        }
        let mut acc = 1.0;
        for group in groups {
            let p = if let [single] = group[..] {
                self.prob_rec(single)
            } else {
                // children in this group share variables: expand the joint
                // sub-formula with Shannon.
                let joint = if is_and {
                    self.interner.and(&group)
                } else {
                    self.interner.or(&group)
                };
                self.shannon(joint)
            };
            acc *= if is_and { p } else { 1.0 - p };
        }
        if is_and {
            acc
        } else {
            1.0 - acc
        }
    }

    /// Shannon expansion on the most frequent variable.
    fn shannon(&mut self, r: LineageRef) -> f64 {
        match self.interner.node(r) {
            InternedNode::True => return 1.0,
            InternedNode::False => return 0.0,
            InternedNode::Var(v) => return self.probs[v],
            InternedNode::Not(c) => {
                let c = *c;
                return 1.0 - self.shannon(c);
            }
            _ => {}
        }
        if let Some(p) = self.memo_get(r) {
            return p;
        }
        let var = self
            .most_frequent_var(r)
            .expect("compound formula must mention a variable");
        self.expansions += 1;
        let p_var = self.probs[&var];
        let pos = self.interner.condition(r, var, true);
        let neg = self.interner.condition(r, var, false);
        let p =
            p_var * self.shannon_or_decompose(pos) + (1.0 - p_var) * self.shannon_or_decompose(neg);
        self.memo_insert(r, p);
        p
    }

    /// After conditioning, the cofactor frequently becomes decomposable
    /// again; route it through the main recursion unless the ablation flag
    /// forces pure Shannon.
    fn shannon_or_decompose(&mut self, r: LineageRef) -> f64 {
        if self.force_shannon {
            self.shannon(r)
        } else {
            self.prob_rec(r)
        }
    }

    /// Exact probability by enumerating all assignments of the formula's
    /// variables. Exponential; intended only for tests and documentation.
    pub fn probability_by_enumeration(&self, lineage: &Lineage) -> Result<f64, ProbabilityError> {
        let vars: Vec<VarId> = lineage.vars().into_iter().collect();
        for v in &vars {
            if !self.probs.contains_key(v) {
                return Err(ProbabilityError::MissingVariable(*v));
            }
        }
        assert!(
            vars.len() <= 24,
            "enumeration is only meant for small formulas"
        );
        let mut total = 0.0;
        for mask in 0u64..(1u64 << vars.len()) {
            let assignment = |v: VarId| {
                vars.iter()
                    .position(|x| *x == v)
                    .map(|i| mask & (1 << i) != 0)
                    .unwrap_or(false)
            };
            if lineage.evaluate(assignment) {
                let mut w = 1.0;
                for (i, v) in vars.iter().enumerate() {
                    let p = self.probs[v];
                    w *= if mask & (1 << i) != 0 { p } else { 1.0 - p };
                }
                total += w;
            }
        }
        Ok(total)
    }

    /// The variable occurring in the largest number of sub-formulas (a
    /// standard branching heuristic for Shannon expansion), ties going to
    /// the smallest id. Occurrences are counted with multiplicity — each
    /// appearance in the formula tree counts, not each distinct node.
    fn most_frequent_var(&mut self, r: LineageRef) -> Option<VarId> {
        let scratch = &mut self.scratch;
        scratch.begin(self.interner.len());
        scratch.stack.push(r);
        while let Some(cur) = scratch.stack.pop() {
            let i = cur.index();
            if let InternedNode::Var(_) = self.interner.node(cur) {
                match scratch.reach(i, 1) {
                    Some(count) => scratch.mark[i] = count + 1,
                    None => scratch.list.push(cur),
                }
            }
            push_children(&self.interner, cur, &mut scratch.stack);
        }
        let interner = &self.interner;
        scratch
            .list
            .iter()
            .filter_map(|&r| match interner.node(r) {
                InternedNode::Var(v) => Some((*v, scratch.mark[r.index()])),
                _ => None,
            })
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .map(|(v, _)| v)
    }

    #[cfg(test)]
    fn memo_entries(&self) -> usize {
        self.memo.iter().filter(|p| !p.is_nan()).count()
    }
}

/// The children of the `And`/`Or` node `r`.
fn children_of(interner: &LineageInterner, r: LineageRef) -> &[LineageRef] {
    match interner.node(r) {
        InternedNode::And(cs) | InternedNode::Or(cs) => cs,
        _ => &[],
    }
}

#[cfg(test)]
// Tests assert bit-exact values on purpose (reproducibility contract).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> Lineage {
        Lineage::var(VarId(i))
    }

    fn engine(ps: &[f64]) -> ProbabilityEngine {
        let mut e = ProbabilityEngine::new();
        for (i, &p) in ps.iter().enumerate() {
            e.set(VarId(i as u32), p);
        }
        e
    }

    #[test]
    fn constants_and_vars() {
        let mut e = engine(&[0.3]);
        assert_eq!(e.probability(&Lineage::tru()), 1.0);
        assert_eq!(e.probability(&Lineage::fls()), 0.0);
        assert!((e.probability(&v(0)) - 0.3).abs() < 1e-12);
        assert!((e.probability(&Lineage::not(v(0))) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn independent_and_or() {
        let mut e = engine(&[0.5, 0.4]);
        let and = Lineage::and2(v(0), v(1));
        let or = Lineage::or2(v(0), v(1));
        assert!((e.probability(&and) - 0.2).abs() < 1e-12);
        assert!((e.probability(&or) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn paper_running_example_probabilities() {
        // a1 = 0.7, b2 = 0.6, b3 = 0.7 (Fig. 1a)
        let mut syms = crate::SymbolTable::new();
        let a1 = syms.intern("a1");
        let b2 = syms.intern("b2");
        let b3 = syms.intern("b3");
        let mut e = ProbabilityEngine::new();
        e.set(a1, 0.7);
        e.set(b2, 0.6);
        e.set(b3, 0.7);

        // ('Ann, ZAK, hotel1', a1 ∧ b3) = 0.49
        let t1 = Lineage::and_concat(&Lineage::var(a1), &Lineage::var(b3));
        assert!((e.probability(&t1) - 0.49).abs() < 1e-12);
        // ('Ann, ZAK, hotel2', a1 ∧ b2) = 0.42
        let t2 = Lineage::and_concat(&Lineage::var(a1), &Lineage::var(b2));
        assert!((e.probability(&t2) - 0.42).abs() < 1e-12);
        // (a1 ∧ ¬b3) = 0.7 * 0.3 = 0.21
        let t3 = Lineage::and_not_concat(&Lineage::var(a1), &Lineage::var(b3));
        assert!((e.probability(&t3) - 0.21).abs() < 1e-12);
        // (a1 ∧ ¬(b3 ∨ b2)) = 0.7 * 0.3 * 0.4 = 0.084
        let t4 = Lineage::and_not_concat(
            &Lineage::var(a1),
            &Lineage::or(vec![Lineage::var(b3), Lineage::var(b2)]),
        );
        assert!((e.probability(&t4) - 0.084).abs() < 1e-12);
        // (a1 ∧ ¬b2) = 0.7 * 0.4 = 0.28
        let t5 = Lineage::and_not_concat(&Lineage::var(a1), &Lineage::var(b2));
        assert!((e.probability(&t5) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn correlated_formula_requires_expansion() {
        // (x0 ∧ x1) ∨ (x0 ∧ x2): components share x0.
        let mut e = engine(&[0.5, 0.5, 0.5]);
        let f = Lineage::or2(Lineage::and2(v(0), v(1)), Lineage::and2(v(0), v(2)));
        let p = e.probability(&f);
        // exact: P(x0) * P(x1 ∨ x2) = 0.5 * 0.75 = 0.375
        assert!((p - 0.375).abs() < 1e-12);
        assert!(
            e.expansions() > 0,
            "shared-variable formula must trigger expansion"
        );
    }

    #[test]
    fn decomposition_avoids_expansion_for_disjoint_children() {
        let mut e = engine(&[0.5, 0.5, 0.5, 0.5]);
        let f = Lineage::or2(Lineage::and2(v(0), v(1)), Lineage::and2(v(2), v(3)));
        let p = e.probability(&f);
        assert!((p - (1.0 - 0.75 * 0.75)).abs() < 1e-12);
        assert_eq!(e.expansions(), 0);
    }

    #[test]
    fn missing_variable_is_reported() {
        let mut e = engine(&[0.5]);
        let err = e.try_probability(&Lineage::and2(v(0), v(7))).unwrap_err();
        assert_eq!(err, ProbabilityError::MissingVariable(VarId(7)));
    }

    #[test]
    fn smallest_missing_variable_is_reported() {
        let mut e = engine(&[0.5]);
        let f = Lineage::and(vec![v(0), v(9), v(3), v(6)]);
        let err = e.try_probability(&f).unwrap_err();
        assert_eq!(err, ProbabilityError::MissingVariable(VarId(3)));
    }

    #[test]
    fn out_of_range_probability_is_rejected() {
        let mut e = ProbabilityEngine::new();
        assert!(e.try_set(VarId(0), 1.5).is_err());
        assert!(e.try_set(VarId(0), -0.1).is_err());
        assert!(e.try_set(VarId(0), f64::NAN).is_err());
        assert!(e.try_set(VarId(0), 1.0).is_ok());
    }

    #[test]
    fn force_shannon_gives_identical_results() {
        let f = Lineage::or(vec![
            Lineage::and2(v(0), v(1)),
            Lineage::and2(v(2), Lineage::not(v(3))),
            Lineage::and2(v(0), v(4)),
        ]);
        let mut fast = engine(&[0.3, 0.6, 0.2, 0.8, 0.5]);
        let mut slow = engine(&[0.3, 0.6, 0.2, 0.8, 0.5]);
        slow.set_force_shannon(true);
        assert!((fast.probability(&f) - slow.probability(&f)).abs() < 1e-12);
    }

    #[test]
    fn enumeration_reference_small_formula() {
        let f = Lineage::and_not_concat(&v(0), &Lineage::or2(v(1), v(2)));
        let e = engine(&[0.7, 0.6, 0.7]);
        let p = e.probability_by_enumeration(&f).unwrap();
        assert!((p - 0.7 * 0.4 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn memo_is_invalidated_when_probabilities_change() {
        let mut e = engine(&[0.5, 0.5]);
        let f = Lineage::and2(v(0), v(1));
        assert!((e.probability(&f) - 0.25).abs() < 1e-12);
        e.set(VarId(0), 1.0);
        assert!((e.probability(&f) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unchanged_registration_preserves_the_memo() {
        let mut e = engine(&[0.5, 0.5]);
        let f = Lineage::and2(v(0), v(1));
        assert!((e.probability(&f) - 0.25).abs() < 1e-12);
        assert!(e.memo_entries() > 0);
        // re-registering identical values must keep memoized results
        e.set(VarId(0), 0.5);
        e.set_all([(VarId(0), 0.5), (VarId(1), 0.5)]);
        assert!(e.memo_entries() > 0);
        // a real change through either path invalidates
        e.set_all([(VarId(0), 1.0), (VarId(1), 0.5)]);
        assert_eq!(e.memo_entries(), 0);
        assert!((e.probability(&f) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_all_validates_before_mutating() {
        let mut e = engine(&[0.5]);
        let err = e
            .try_set_all([(VarId(1), 0.4), (VarId(2), 1.5)])
            .unwrap_err();
        assert_eq!(err, ProbabilityError::OutOfRange(1.5));
        assert_eq!(e.get(VarId(1)), None, "failed batch must not apply");
        assert_eq!(e.get(VarId(0)), Some(0.5));
    }

    #[test]
    fn probability_ref_matches_tree_probability() {
        let f = Lineage::or(vec![
            Lineage::and2(v(0), v(1)),
            Lineage::and2(v(0), Lineage::not(v(2))),
            v(3),
        ]);
        let mut by_tree = engine(&[0.3, 0.6, 0.2, 0.8]);
        let mut by_ref = engine(&[0.3, 0.6, 0.2, 0.8]);
        let r = by_ref.intern(&f);
        assert_eq!(by_tree.probability(&f), by_ref.probability_ref(r));
        assert_eq!(by_ref.to_lineage(r), f);
    }

    #[test]
    fn children_sharing_a_sub_node_are_one_component() {
        // ¬(x0 ∨ x1) is one arena node under both disjuncts.
        let shared = Lineage::not(Lineage::or2(v(0), v(1)));
        let f = Lineage::or2(
            Lineage::and2(shared.clone(), v(2)),
            Lineage::and2(shared, v(3)),
        );
        let mut e = engine(&[0.3, 0.6, 0.2, 0.8]);
        let p = e.probability(&f);
        let exact = e.probability_by_enumeration(&f).unwrap();
        assert!((p - exact).abs() < 1e-12);
        assert!(
            e.expansions() > 0,
            "a shared sub-node correlates the disjuncts"
        );
    }

    #[test]
    fn engines_over_shared_marginals_copy_on_write() {
        let marginals: Arc<Marginals> =
            Arc::new([(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect());
        let mut a = ProbabilityEngine::with_marginals(Arc::clone(&marginals));
        let b = ProbabilityEngine::with_marginals(Arc::clone(&marginals));
        assert!((a.probability(&Lineage::and2(v(0), v(1))) - 0.2).abs() < 1e-12);
        a.set(VarId(0), 1.0);
        assert_eq!(b.get(VarId(0)), Some(0.5));
        assert_eq!(marginals.get(&VarId(0)), Some(&0.5));
        assert_eq!(a.get(VarId(0)), Some(1.0));
    }

    #[test]
    fn cloned_engines_share_probabilities_until_write() {
        let mut base = engine(&[0.5, 0.4]);
        let mut fork = base.clone();
        fork.set(VarId(0), 0.9);
        assert_eq!(base.get(VarId(0)), Some(0.5), "clone must copy on write");
        assert_eq!(fork.get(VarId(0)), Some(0.9));
        assert!((base.probability(&Lineage::and2(v(0), v(1))) - 0.2).abs() < 1e-12);
    }

    fn arb_lineage() -> impl Strategy<Value = Lineage> {
        let leaf = (0u32..5).prop_map(|i| Lineage::var(VarId(i)));
        leaf.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(Lineage::not),
                proptest::collection::vec(inner.clone(), 2..4).prop_map(Lineage::and),
                proptest::collection::vec(inner, 2..4).prop_map(Lineage::or),
            ]
        })
    }

    /// A DAG-shaped formula over the variables `0..6`: a pool starts with
    /// the variables, and every step appends the negation, conjunction or
    /// disjunction of earlier pool entries. Later entries reuse whole
    /// sub-formulas, so once interned, `And`/`Or` children share sub-nodes
    /// and not only variables. The formula combines the last three entries.
    fn arb_dag() -> impl Strategy<Value = Lineage> {
        let step = (0u8..3, proptest::collection::vec(0usize..64, 2..4));
        (proptest::collection::vec(step, 1..8), any::<bool>()).prop_map(|(steps, top_and)| {
            let mut pool: Vec<Lineage> = (0..6).map(v).collect();
            for (kind, picks) in steps {
                let picked: Vec<Lineage> = picks
                    .iter()
                    .map(|&k| pool[k % pool.len()].clone())
                    .collect();
                pool.push(match kind {
                    0 => Lineage::not(picked[0].clone()),
                    1 => Lineage::and(picked),
                    _ => Lineage::or(picked),
                });
            }
            let top = pool[pool.len() - 3..].to_vec();
            if top_and {
                Lineage::and(top)
            } else {
                Lineage::or(top)
            }
        })
    }

    /// Marginals with the degenerate probabilities 0 and 1 drawn as often
    /// as an interior value.
    fn arb_marginals() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0], 6)
    }

    proptest! {
        #[test]
        fn prop_dag_probability_matches_enumeration(f in arb_dag(), ps in arb_marginals()) {
            let mut e = engine(&ps);
            let exact = e.probability_by_enumeration(&f).unwrap();
            let computed = e.probability(&f);
            prop_assert!((exact - computed).abs() < 1e-9, "exact {exact} vs computed {computed} for {f:?}");
            // Shannon alone (no component grouping) agrees as well.
            let mut slow = engine(&ps);
            slow.set_force_shannon(true);
            let shannon = slow.probability(&f);
            prop_assert!((exact - shannon).abs() < 1e-9, "exact {exact} vs Shannon {shannon} for {f:?}");
        }

        #[test]
        fn prop_probability_matches_enumeration(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            for (i, &p) in ps.iter().enumerate() {
                e.set(VarId(i as u32), p);
            }
            let exact = e.probability_by_enumeration(&f).unwrap();
            let computed = e.probability(&f);
            prop_assert!((exact - computed).abs() < 1e-9, "exact {exact} vs computed {computed} for {f:?}");
        }

        #[test]
        fn prop_probability_is_within_bounds(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            for (i, &p) in ps.iter().enumerate() {
                e.set(VarId(i as u32), p);
            }
            let p = e.probability(&f);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p));
        }

        #[test]
        fn prop_complement_rule(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            for (i, &p) in ps.iter().enumerate() {
                e.set(VarId(i as u32), p);
            }
            let p = e.probability(&f);
            let not_p = e.probability(&Lineage::not(f));
            prop_assert!((p + not_p - 1.0).abs() < 1e-9);
        }
    }
}
