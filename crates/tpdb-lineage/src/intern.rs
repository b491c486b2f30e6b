//! Hash-consed lineage arena.
//!
//! The window pipeline builds and prices the *same* sub-formulas over and
//! over: every window of an `r`-tuple group carries that tuple's `λr`,
//! every negating window re-disjoins the lineages of the active `s`
//! tuples, and the probability memo is consulted once per output tuple.
//! Representing those formulas as [`Lineage`] trees makes every equality
//! check, hash and memo lookup a full structural traversal.
//!
//! A [`LineageInterner`] stores each structurally distinct formula node
//! exactly once in a flat arena and hands out dense `u32` ids
//! ([`LineageRef`]). Hash-consing turns structural equality into id
//! equality (`O(1)`), makes cloning a formula a `Copy`, and lets the
//! probability engine key its memo by id instead of deep hashing. The
//! cons table is keyed by cached per-node structural hashes using a
//! vendored FxHash-style hasher (the dependency-free mix used by rustc's
//! `FxHashMap`), so interning a node costs one multiply-rotate per child.
//! It maps each hash to the newest node carrying it; older nodes with the
//! same hash hang off an intrusive `next` chain stored beside the arena,
//! so a table entry owns no heap memory of its own.
//!
//! The constructors flatten and deduplicate their operands in a buffer the
//! interner reuses, and look the candidate node up *before* boxing its
//! children: re-interning an existing formula allocates nothing.
//!
//! The arena only ever grows: ids stay valid for the interner's lifetime,
//! which is the lifetime of one join/set-operation execution (the
//! [`crate::ProbabilityEngine`] owns the interner and both are dropped
//! together). The legacy [`Lineage`] tree remains the *conversion
//! boundary*: output tuples, serde and the equality-based tests convert
//! back through [`LineageInterner::to_lineage`], which caches conversions
//! per node so shared sub-formulas become shared `Arc`s.

use crate::formula::{Lineage, LineageNode};
use crate::symbols::VarId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the FxHash mix (the 64-bit golden-ratio constant used
/// by rustc's `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// A vendored FxHash-style hasher (multiply-rotate mix, no allocation, no
/// external dependency). Not cryptographic — used only for the interner's
/// cons table and id-keyed side tables, whose keys are small integers.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = fx_mix(self.hash, u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = fx_mix(self.hash, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.hash = fx_mix(self.hash, i as u64);
    }
}

/// A `HashMap` using the vendored [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using the vendored [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A dense id referring to a node in a [`LineageInterner`].
///
/// Refs are `Copy`, compare in `O(1)` (hash-consing makes structural
/// equality id equality *within one interner*) and index the engine's
/// probability memo directly. A ref is only meaningful together with the
/// interner that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineageRef(u32);

impl LineageRef {
    /// The position of the node in the arena (usable as a dense table
    /// index).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of an interned lineage formula. Children are [`LineageRef`]s
/// into the same arena; the same normalization invariants as
/// [`LineageNode`] hold (`And`/`Or` have ≥ 2 deduplicated, constant-free,
/// non-nested children; `Not` never wraps a constant or another `Not`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InternedNode {
    /// The formula that is true in every possible world.
    True,
    /// The formula that is false in every possible world.
    False,
    /// A base-tuple variable.
    Var(VarId),
    /// Negation of a sub-formula.
    Not(LineageRef),
    /// Conjunction of at least two sub-formulas.
    And(Box<[LineageRef]>),
    /// Disjunction of at least two sub-formulas.
    Or(Box<[LineageRef]>),
}

/// Operand lists up to this length are deduplicated by a linear scan; a
/// longer list builds a hash set once it passes the bound.
const LINEAR_DEDUP_MAX: usize = 16;

/// Order-preserving duplicate elimination over refs (the interned
/// counterpart of the tree constructors' `Deduper`). Operand lists are
/// mostly short — a negating window disjoins its few concurrent `λs` — so
/// membership is a scan of the list itself until it outgrows
/// [`LINEAR_DEDUP_MAX`].
struct RefDedup {
    ordered: Vec<LineageRef>,
    seen: Option<FxHashSet<LineageRef>>,
}

impl RefDedup {
    /// Starts deduplicating into `buffer` (cleared first, capacity kept).
    fn new(mut buffer: Vec<LineageRef>) -> Self {
        buffer.clear();
        Self {
            ordered: buffer,
            seen: None,
        }
    }

    fn push(&mut self, r: LineageRef) {
        match &mut self.seen {
            Some(seen) => {
                if seen.insert(r) {
                    self.ordered.push(r);
                }
            }
            None => {
                if !self.ordered.contains(&r) {
                    self.ordered.push(r);
                    if self.ordered.len() > LINEAR_DEDUP_MAX {
                        self.seen = Some(self.ordered.iter().copied().collect());
                    }
                }
            }
        }
    }
}

/// A hash-consed arena of lineage formula nodes.
///
/// Structurally equal formulas intern to the same [`LineageRef`]; the
/// constructors apply exactly the structural simplifications of the
/// [`Lineage`] tree constructors (flattening, unit elimination, ordered
/// deduplication, double-negation elimination), so a formula built in
/// interned space converts back ([`to_lineage`](Self::to_lineage)) to the
/// very tree the legacy constructors would have produced.
#[derive(Debug, Clone)]
pub struct LineageInterner {
    nodes: Vec<InternedNode>,
    /// Cached structural hash per node (mixes the tag with the *child
    /// hashes*, so it is stable across interners).
    hashes: Vec<u64>,
    /// Cons table: structural hash → the newest node id with that hash.
    heads: FxHashMap<u64, u32>,
    /// Intrusive collision chains of the cons table: `next[id]` is the
    /// next older node with the same structural hash ([`NIL`] ends the
    /// chain).
    next: Vec<u32>,
    /// Conversion cache: interned node → legacy tree (shared `Arc`s).
    legacy: Vec<Option<Lineage>>,
    /// Reusable operand buffer of the n-ary constructors.
    operands: Vec<LineageRef>,
    /// Reusable child-ref stack of [`intern`](Self::intern).
    interning: Vec<LineageRef>,
}

/// End of a cons-table collision chain.
const NIL: u32 = u32::MAX;

/// The pre-interned constant `true` (id 0 in every interner).
const TRUE: LineageRef = LineageRef(0);
/// The pre-interned constant `false` (id 1 in every interner).
const FALSE: LineageRef = LineageRef(1);

impl Default for LineageInterner {
    fn default() -> Self {
        let mut interner = Self {
            nodes: Vec::new(),
            hashes: Vec::new(),
            heads: FxHashMap::default(),
            next: Vec::new(),
            legacy: Vec::new(),
            operands: Vec::new(),
            interning: Vec::new(),
        };
        let t = interner.intern_node(InternedNode::True);
        let f = interner.intern_node(InternedNode::False);
        debug_assert_eq!((t, f), (TRUE, FALSE));
        interner
    }
}

impl LineageInterner {
    /// Creates an empty arena (the two constants are pre-interned).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes in the arena (the exclusive upper bound of
    /// all ref indices — size id-keyed side tables with this).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the arena empty? (Never true: the constants are pre-interned.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node a ref points at.
    #[must_use]
    pub fn node(&self, r: LineageRef) -> &InternedNode {
        &self.nodes[r.index()]
    }

    /// Is this the constant-true formula?
    #[must_use]
    pub fn is_true(&self, r: LineageRef) -> bool {
        r == TRUE
    }

    /// Is this the constant-false formula?
    #[must_use]
    pub fn is_false(&self, r: LineageRef) -> bool {
        r == FALSE
    }

    // ----- constructors (mirror the `Lineage` tree constructors) ---------

    /// The constant-true lineage.
    #[must_use]
    pub fn tru(&self) -> LineageRef {
        TRUE
    }

    /// The constant-false lineage.
    #[must_use]
    pub fn fls(&self) -> LineageRef {
        FALSE
    }

    /// An atomic lineage: a single base-tuple variable.
    pub fn var(&mut self, v: VarId) -> LineageRef {
        self.intern_node(InternedNode::Var(v))
    }

    /// Negation with structural simplification:
    /// `¬true = false`, `¬false = true`, `¬¬φ = φ`.
    pub fn not(&mut self, operand: LineageRef) -> LineageRef {
        match &self.nodes[operand.index()] {
            InternedNode::True => FALSE,
            InternedNode::False => TRUE,
            InternedNode::Not(inner) => *inner,
            _ => self.intern_node(InternedNode::Not(operand)),
        }
    }

    /// N-ary conjunction with flattening, unit elimination and
    /// deduplication (deduplication is by ref — hash-consing makes that
    /// structural). `and(&[])` is `true`; a conjunction containing `false`
    /// collapses to `false`.
    pub fn and(&mut self, operands: &[LineageRef]) -> LineageRef {
        self.nary(true, operands)
    }

    /// N-ary disjunction with flattening, unit elimination and
    /// deduplication. `or(&[])` is `false`; a disjunction containing
    /// `true` collapses to `true`.
    pub fn or(&mut self, operands: &[LineageRef]) -> LineageRef {
        self.nary(false, operands)
    }

    /// Builds a disjunction from operands that are already flattened (no
    /// nested `Or`, no constants) and deduplicated, skipping the
    /// flattening pass of [`or`](Self::or). This is the emission path of
    /// [`InternedDisjunction`].
    pub fn or_flattened(&mut self, operands: impl IntoIterator<Item = LineageRef>) -> LineageRef {
        let mut flat = std::mem::take(&mut self.operands);
        flat.clear();
        flat.extend(operands);
        debug_assert!(
            flat.iter().all(|o| !matches!(
                self.nodes[o.index()],
                InternedNode::Or(_) | InternedNode::True | InternedNode::False
            )),
            "or_flattened operands must be flattened and constant-free"
        );
        let r = match flat.len() {
            0 => FALSE,
            1 => flat[0],
            _ => self.intern_nary(false, &flat),
        };
        self.operands = flat;
        r
    }

    /// The shared body of [`and`](Self::and) (`is_and`) and
    /// [`or`](Self::or): flatten one level, drop the unit, absorb on the
    /// absorbing constant, deduplicate in order.
    fn nary(&mut self, is_and: bool, operands: &[LineageRef]) -> LineageRef {
        let (unit, absorbing) = if is_and { (TRUE, FALSE) } else { (FALSE, TRUE) };
        let mut flat = RefDedup::new(std::mem::take(&mut self.operands));
        for &op in operands {
            if op == unit {
                continue;
            }
            if op == absorbing {
                self.operands = flat.ordered;
                return absorbing;
            }
            match (is_and, &self.nodes[op.index()]) {
                (true, InternedNode::And(children)) | (false, InternedNode::Or(children)) => {
                    for &c in children.iter() {
                        flat.push(c);
                    }
                }
                _ => flat.push(op),
            }
        }
        let flat = flat.ordered;
        let r = match flat.len() {
            0 => unit,
            1 => flat[0],
            _ => self.intern_nary(is_and, &flat),
        };
        self.operands = flat;
        r
    }

    /// Binary conjunction convenience wrapper.
    pub fn and2(&mut self, a: LineageRef, b: LineageRef) -> LineageRef {
        self.and(&[a, b])
    }

    /// Binary disjunction convenience wrapper.
    pub fn or2(&mut self, a: LineageRef, b: LineageRef) -> LineageRef {
        self.or(&[a, b])
    }

    /// The `andNot` concatenation function used for negating windows:
    /// `λr ∧ ¬λs`.
    pub fn and_not(&mut self, lambda_r: LineageRef, lambda_s: LineageRef) -> LineageRef {
        let neg = self.not(lambda_s);
        self.and(&[lambda_r, neg])
    }

    // ----- conversion boundary -------------------------------------------

    /// Interns a legacy tree, re-normalizing through the interned
    /// constructors (idempotent on already-normalized trees — which every
    /// [`Lineage`] built through its own constructors is).
    pub fn intern(&mut self, lineage: &Lineage) -> LineageRef {
        let mut stack = std::mem::take(&mut self.interning);
        let r = self.intern_rec(lineage, &mut stack);
        self.interning = stack;
        r
    }

    /// [`intern`](Self::intern) with the children's refs collected on one
    /// shared `stack` instead of a vector per node.
    fn intern_rec(&mut self, lineage: &Lineage, stack: &mut Vec<LineageRef>) -> LineageRef {
        match lineage.node() {
            LineageNode::True => TRUE,
            LineageNode::False => FALSE,
            LineageNode::Var(v) => self.var(*v),
            LineageNode::Not(c) => {
                let inner = self.intern_rec(c, stack);
                self.not(inner)
            }
            LineageNode::And(cs) | LineageNode::Or(cs) => {
                let start = stack.len();
                for c in cs {
                    let r = self.intern_rec(c, stack);
                    stack.push(r);
                }
                let is_and = matches!(lineage.node(), LineageNode::And(_));
                let r = self.nary(is_and, &stack[start..]);
                stack.truncate(start);
                r
            }
        }
    }

    /// Converts an interned formula back into a legacy [`Lineage`] tree.
    ///
    /// Conversions are cached per node, so the trees of shared
    /// sub-formulas (every `λr` of a window group, every disjunction
    /// operand) are shared `Arc`s — converting `n` output tuples allocates
    /// `O(distinct nodes)`, not `O(total tree size)`. An interned node is
    /// already in the tree constructors' normal form, so the converted
    /// children are wrapped as they are, without re-running the
    /// flattening and deduplication of [`Lineage::and`]/[`Lineage::or`].
    pub fn to_lineage(&mut self, r: LineageRef) -> Lineage {
        convert(&self.nodes, &mut self.legacy, r)
    }

    // ----- inspection -----------------------------------------------------

    /// Conditions the formula on `var = value` (Shannon cofactor),
    /// mirroring [`Lineage::condition`] in interned space.
    pub fn condition(&mut self, r: LineageRef, var: VarId, value: bool) -> LineageRef {
        match self.nodes[r.index()].clone() {
            InternedNode::True | InternedNode::False => r,
            InternedNode::Var(v) => {
                if v == var {
                    if value {
                        TRUE
                    } else {
                        FALSE
                    }
                } else {
                    r
                }
            }
            InternedNode::Not(c) => {
                let inner = self.condition(c, var, value);
                self.not(inner)
            }
            InternedNode::And(cs) => {
                let conditioned: Vec<LineageRef> =
                    cs.iter().map(|&c| self.condition(c, var, value)).collect();
                self.and(&conditioned)
            }
            InternedNode::Or(cs) => {
                let conditioned: Vec<LineageRef> =
                    cs.iter().map(|&c| self.condition(c, var, value)).collect();
                self.or(&conditioned)
            }
        }
    }

    /// Exhaustively checks the arena invariants, returning a description
    /// of the first violation found (`Ok(())` on a healthy arena).
    ///
    /// Checked invariants:
    ///
    /// * the parallel tables (`nodes`, `hashes`, conversion cache) have
    ///   equal lengths;
    /// * ids 0/1 are the pre-interned constants `true`/`false`, and no
    ///   other node is a constant (the constructors always return the
    ///   canonical ids);
    /// * every child ref points strictly below its parent — the arena is
    ///   topologically ordered and can contain no dangling refs;
    /// * `And`/`Or` hold ≥ 2 deduplicated children, none a constant or a
    ///   nested node of the same kind; `Not` wraps neither a constant nor
    ///   another `Not` (the canonical normal form of the tree
    ///   constructors);
    /// * every cached hash equals the recomputed structural hash and the
    ///   cons table lists the id under it (a mismatch would make
    ///   hash-consing silently duplicate nodes, breaking `O(1)` equality);
    /// * every cached legacy conversion has the same top-level shape as
    ///   the node it was converted from.
    ///
    /// The check is `O(arena size)` and intended for debug builds and
    /// property tests; the engine's hot paths never call it.
    // A diagnostic self-check, not an operational API: the payload is a
    // free-form description of the first broken invariant, for assertion
    // messages. tpdb-lint: allow(error-taxonomy)
    pub fn verify_arena(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if self.hashes.len() != n || self.next.len() != n || self.legacy.len() != n {
            return Err(format!(
                "parallel tables out of sync: {n} nodes, {} hashes, {} chain links, \
                 {} cached conversions",
                self.hashes.len(),
                self.next.len(),
                self.legacy.len()
            ));
        }
        if self.nodes.first() != Some(&InternedNode::True)
            || self.nodes.get(1) != Some(&InternedNode::False)
        {
            return Err("ids 0/1 are not the pre-interned true/false constants".to_owned());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(problem) = self.check_node_shape(i, node) {
                return Err(format!("node {i}: {problem}"));
            }
            let expected = self.structural_hash(node);
            if self.hashes[i] != expected {
                return Err(format!(
                    "node {i}: cached hash {:#x} != recomputed structural hash {expected:#x}",
                    self.hashes[i]
                ));
            }
            if let Some(cached) = &self.legacy[i] {
                let shape_matches = matches!(
                    (node, cached.node()),
                    (InternedNode::True, LineageNode::True)
                        | (InternedNode::False, LineageNode::False)
                        | (InternedNode::Var(_), LineageNode::Var(_))
                        | (InternedNode::Not(_), LineageNode::Not(_))
                        | (InternedNode::And(_), LineageNode::And(_))
                        | (InternedNode::Or(_), LineageNode::Or(_))
                );
                if !shape_matches {
                    return Err(format!(
                        "node {i}: cached legacy conversion has a different top-level shape"
                    ));
                }
            }
        }
        self.verify_chains()
    }

    /// Walks every cons-table chain: each node must be reachable from the
    /// head of its own structural hash exactly once, and no chain may
    /// cycle. A node reachable from no head would be duplicated by the
    /// next interning of its structure.
    // Part of the diagnostic self-check above. tpdb-lint: allow(error-taxonomy)
    fn verify_chains(&self) -> Result<(), String> {
        let n = self.nodes.len();
        // The chain (1-based position in the walk) each node was reached in.
        let mut reached_in = vec![0usize; n];
        for (chain, (&hash, &head)) in self.heads.iter().enumerate() {
            let chain = chain + 1;
            let mut id = head;
            while id != NIL {
                let i = id as usize;
                if i >= n {
                    return Err(format!(
                        "cons-table chain of hash {hash:#x} links to {i} outside the arena"
                    ));
                }
                if self.hashes[i] != hash {
                    return Err(format!(
                        "node {i} (hash {:#x}) is chained under hash {hash:#x}",
                        self.hashes[i]
                    ));
                }
                match reached_in[i] {
                    0 => reached_in[i] = chain,
                    seen if seen == chain => {
                        return Err(format!(
                            "cons-table chain of hash {hash:#x} cycles at node {i}"
                        ));
                    }
                    _ => return Err(format!("node {i} is reachable from two cons-table heads")),
                }
                id = self.next[i];
            }
        }
        match reached_in.iter().position(|&c| c == 0) {
            Some(i) => Err(format!(
                "node {i} is unreachable from its cons-table head — interning its structure \
                 again would allocate a duplicate id"
            )),
            None => Ok(()),
        }
    }

    /// Structural invariants of a single node at position `i` (children
    /// interned below it, canonical normal form). `None` when healthy.
    fn check_node_shape(&self, i: usize, node: &InternedNode) -> Option<String> {
        let child_ok = |c: LineageRef| c.index() < i;
        match node {
            InternedNode::True | InternedNode::False => {
                (i >= 2).then(|| "constant interned outside the canonical ids 0/1".to_owned())
            }
            InternedNode::Var(_) => None,
            InternedNode::Not(c) => {
                if !child_ok(*c) {
                    return Some(format!("child {} does not precede its parent", c.index()));
                }
                matches!(
                    self.nodes[c.index()],
                    InternedNode::True | InternedNode::False | InternedNode::Not(_)
                )
                .then(|| "Not wraps a constant or another Not".to_owned())
            }
            InternedNode::And(cs) | InternedNode::Or(cs) => {
                if cs.len() < 2 {
                    return Some(format!("{}-ary connective", cs.len()));
                }
                let mut seen: FxHashSet<LineageRef> = HashSet::default();
                for &c in cs.iter() {
                    if !child_ok(c) {
                        return Some(format!("child {} does not precede its parent", c.index()));
                    }
                    if !seen.insert(c) {
                        return Some(format!("duplicated child {}", c.index()));
                    }
                    let child = &self.nodes[c.index()];
                    let nested_same_kind = match node {
                        InternedNode::And(_) => matches!(child, InternedNode::And(_)),
                        _ => matches!(child, InternedNode::Or(_)),
                    };
                    if matches!(child, InternedNode::True | InternedNode::False) {
                        return Some(format!("constant child {}", c.index()));
                    }
                    if nested_same_kind {
                        return Some(format!("un-flattened nested child {}", c.index()));
                    }
                }
                None
            }
        }
    }

    // ----- internals ------------------------------------------------------

    /// The cached structural hash of a node (mixes child hashes, so equal
    /// structures hash equal across interners).
    fn structural_hash(&self, node: &InternedNode) -> u64 {
        match node {
            InternedNode::True => fx_mix(0, 1),
            InternedNode::False => fx_mix(0, 2),
            InternedNode::Var(v) => fx_mix(fx_mix(0, 3), u64::from(v.0)),
            InternedNode::Not(c) => fx_mix(fx_mix(0, 4), self.hashes[c.index()]),
            InternedNode::And(cs) => self.nary_hash(true, cs),
            InternedNode::Or(cs) => self.nary_hash(false, cs),
        }
    }

    fn nary_hash(&self, is_and: bool, children: &[LineageRef]) -> u64 {
        let tag = if is_and { 5 } else { 6 };
        children
            .iter()
            .fold(fx_mix(0, tag), |h, c| fx_mix(h, self.hashes[c.index()]))
    }

    /// The node with structural hash `hash` that satisfies `is_match`, if
    /// one is interned.
    fn find(&self, hash: u64, is_match: impl Fn(&InternedNode) -> bool) -> Option<LineageRef> {
        let mut id = *self.heads.get(&hash)?;
        while id != NIL {
            if is_match(&self.nodes[id as usize]) {
                return Some(LineageRef(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    fn intern_node(&mut self, node: InternedNode) -> LineageRef {
        let hash = self.structural_hash(&node);
        match self.find(hash, |n| *n == node) {
            Some(r) => r,
            None => self.push(node, hash),
        }
    }

    /// Interns the conjunction (`is_and`) or disjunction of already
    /// normalized `children`, boxing them only when the node is new.
    fn intern_nary(&mut self, is_and: bool, children: &[LineageRef]) -> LineageRef {
        let hash = self.nary_hash(is_and, children);
        let found = self.find(hash, |n| match (is_and, n) {
            (true, InternedNode::And(cs)) | (false, InternedNode::Or(cs)) => **cs == *children,
            _ => false,
        });
        match found {
            Some(r) => r,
            None => {
                let children = children.into();
                let node = if is_and {
                    InternedNode::And(children)
                } else {
                    InternedNode::Or(children)
                };
                self.push(node, hash)
            }
        }
    }

    /// Appends a node that is not yet interned and links it at the head of
    /// its hash chain.
    fn push(&mut self, node: InternedNode, hash: u64) -> LineageRef {
        // In debug builds every freshly interned node is checked against
        // the canonical-form invariants (`verify_arena` documents them);
        // checking only the new node keeps interning O(node size).
        #[cfg(debug_assertions)]
        if self.nodes.len() >= 2 {
            if let Some(problem) = self.check_node_shape(self.nodes.len(), &node) {
                debug_assert!(false, "interning a malformed node: {problem}");
            }
        }
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != NIL)
            .expect("interner arena exceeds u32 ids");
        self.nodes.push(node);
        self.hashes.push(hash);
        self.legacy.push(None);
        self.next.push(self.heads.insert(hash, id).unwrap_or(NIL));
        LineageRef(id)
    }
}

/// The body of [`LineageInterner::to_lineage`], over the two tables it
/// touches so the recursion can read nodes while filling the cache.
fn convert(nodes: &[InternedNode], legacy: &mut [Option<Lineage>], r: LineageRef) -> Lineage {
    if let Some(l) = &legacy[r.index()] {
        return l.clone();
    }
    let lineage = match &nodes[r.index()] {
        InternedNode::True => Lineage::tru(),
        InternedNode::False => Lineage::fls(),
        InternedNode::Var(v) => Lineage::var(*v),
        InternedNode::Not(c) => {
            Lineage::from_normalized(LineageNode::Not(convert(nodes, legacy, *c)))
        }
        InternedNode::And(cs) => Lineage::from_normalized(LineageNode::And(
            cs.iter().map(|&c| convert(nodes, legacy, c)).collect(),
        )),
        InternedNode::Or(cs) => Lineage::from_normalized(LineageNode::Or(
            cs.iter().map(|&c| convert(nodes, legacy, c)).collect(),
        )),
    };
    legacy[r.index()] = Some(lineage.clone());
    lineage
}

/// The id-keyed counterpart of [`crate::IncrementalDisjunction`]: a
/// multiset of interned lineages with an incrementally maintained
/// disjunction. Operands are kept in first-activation order with
/// reference counts (identical slot/compaction discipline, so the emitted
/// operand order — and therefore the converted trees — match the legacy
/// sweep exactly); membership checks hash a single `u32` instead of a
/// formula tree.
#[derive(Debug, Clone, Default)]
pub struct InternedDisjunction {
    /// Distinct non-constant operands in first-insertion order with their
    /// reference counts; `None` marks an expired (tombstoned) slot.
    slots: Vec<Option<(LineageRef, usize)>>,
    /// Operand → slot position.
    index: FxHashMap<LineageRef, usize>,
    /// Number of live (non-tombstone) slots.
    live: usize,
    /// How many inserted lineages were the constant `true`.
    true_count: usize,
}

impl InternedDisjunction {
    /// Creates an empty disjunction (`∨ ∅ = false`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `lineage` to the multiset. `Or` operands are flattened,
    /// constant `false` contributes nothing and constant `true` forces the
    /// disjunction to `true` until removed.
    pub fn insert(&mut self, lineage: LineageRef, interner: &LineageInterner) {
        match interner.node(lineage) {
            InternedNode::False => {}
            InternedNode::True => self.true_count += 1,
            InternedNode::Or(children) => {
                // Children of a normalized Or are themselves neither Or
                // nor constants, so one level of flattening suffices.
                for &c in children.iter() {
                    self.insert_operand(c);
                }
            }
            _ => self.insert_operand(lineage),
        }
    }

    /// Removes one previously [`insert`](Self::insert)ed occurrence of
    /// `lineage`. Removing a lineage that was never inserted is a logic
    /// error (debug-asserted).
    pub fn remove(&mut self, lineage: LineageRef, interner: &LineageInterner) {
        match interner.node(lineage) {
            InternedNode::False => {}
            InternedNode::True => {
                debug_assert!(self.true_count > 0, "removing ⊤ that was never inserted");
                self.true_count = self.true_count.saturating_sub(1);
            }
            InternedNode::Or(children) => {
                for &c in children.iter() {
                    self.remove_operand(c);
                }
            }
            _ => self.remove_operand(lineage),
        }
    }

    fn insert_operand(&mut self, operand: LineageRef) {
        if let Some(&slot) = self.index.get(&operand) {
            let entry = self.slots[slot].as_mut().expect("indexed slot is live");
            entry.1 += 1;
        } else {
            self.index.insert(operand, self.slots.len());
            self.slots.push(Some((operand, 1)));
            self.live += 1;
        }
    }

    fn remove_operand(&mut self, operand: LineageRef) {
        let Some(&slot) = self.index.get(&operand) else {
            debug_assert!(false, "removing operand that was never inserted");
            return;
        };
        let entry = self.slots[slot].as_mut().expect("indexed slot is live");
        entry.1 -= 1;
        if entry.1 == 0 {
            self.slots[slot] = None;
            self.index.remove(&operand);
            self.live -= 1;
            // Compact when tombstones dominate, re-pointing the index at
            // the surviving slots (amortized O(1) per removal).
            if self.slots.len() > 8 && self.slots.len() >= 2 * self.live.max(1) {
                self.slots.retain(Option::is_some);
                for (pos, s) in self.slots.iter().enumerate() {
                    let (l, _) = s.as_ref().expect("retained slots are live");
                    *self.index.get_mut(l).expect("live operand is indexed") = pos;
                }
            }
        }
    }

    /// Is the disjunction `false` (no live operand, no `true`
    /// contributor)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0 && self.true_count == 0
    }

    /// Number of distinct live operands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// The current disjunction as an interned formula.
    pub fn disjunction(&self, interner: &mut LineageInterner) -> LineageRef {
        if self.true_count > 0 {
            return interner.tru();
        }
        interner.or_flattened(self.slots.iter().flatten().map(|&(l, _)| l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> Lineage {
        Lineage::var(VarId(i))
    }

    /// Random trees built through the tree constructors (hence normalized),
    /// with constants among the leaves and operand lists wide enough to
    /// pass [`LINEAR_DEDUP_MAX`] after flattening.
    fn arb_lineage() -> impl Strategy<Value = Lineage> {
        let leaf = prop_oneof![
            (0u32..12).prop_map(v),
            Just(Lineage::tru()),
            Just(Lineage::fls()),
        ];
        leaf.prop_recursive(3, 48, 6, |inner| {
            prop_oneof![
                inner.clone().prop_map(Lineage::not),
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Lineage::and),
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Lineage::or),
                proptest::collection::vec(inner, 12..30).prop_map(Lineage::or),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_round_trip_is_identity(l in arb_lineage()) {
            let mut i = LineageInterner::new();
            let r = i.intern(&l);
            prop_assert_eq!(i.to_lineage(r), l.clone());
            // Interning again finds every node: same id, no new node.
            let len = i.len();
            prop_assert_eq!(i.intern(&l), r);
            prop_assert_eq!(i.len(), len);
            prop_assert_eq!(i.verify_arena(), Ok(()));
        }

        #[test]
        fn prop_constructors_match_tree_constructors(ls in proptest::collection::vec(arb_lineage(), 0..40)) {
            let mut i = LineageInterner::new();
            let refs: Vec<LineageRef> = ls.iter().map(|l| i.intern(l)).collect();
            let and = i.and(&refs);
            let or = i.or(&refs);
            prop_assert_eq!(i.to_lineage(and), Lineage::and(ls.clone()));
            prop_assert_eq!(i.to_lineage(or), Lineage::or(ls));
            prop_assert_eq!(i.verify_arena(), Ok(()));
        }
    }

    #[test]
    fn verify_arena_reports_broken_cons_chains() {
        let mut i = LineageInterner::new();
        let f = Lineage::and2(v(0), Lineage::not(Lineage::or2(v(1), v(2))));
        let _ = i.intern(&f);
        assert_eq!(i.verify_arena(), Ok(()));
        let last = i.len() - 1;

        // A self-loop: the chain of the newest node cycles.
        let mut cyclic = i.clone();
        cyclic.next[last] = last as u32;
        let err = cyclic.verify_arena().unwrap_err();
        assert!(err.contains("cycles"), "{err}");

        // A link into another hash's chain: the target is reached twice.
        let mut crossed = i.clone();
        crossed.next[last] = 2;
        let err = crossed.verify_arena().unwrap_err();
        assert!(err.contains("chained under hash"), "{err}");

        // A link past the arena.
        let mut dangling = i.clone();
        dangling.next[last] = last as u32 + 7;
        let err = dangling.verify_arena().unwrap_err();
        assert!(err.contains("outside the arena"), "{err}");

        // A dropped head: its node can no longer be found.
        let mut orphaned = i.clone();
        orphaned.heads.remove(&orphaned.hashes[last]);
        let err = orphaned.verify_arena().unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    #[test]
    fn colliding_hashes_chain_and_stay_distinct() {
        // Force a collision: re-key a second node under the first one's
        // hash, the way two structures with equal hashes would be chained.
        let mut i = LineageInterner::new();
        let a = i.var(VarId(1));
        let b = i.var(VarId(2));
        let hash = i.hashes[a.index()];
        i.heads.remove(&i.hashes[b.index()]);
        i.hashes[b.index()] = hash;
        i.next[b.index()] = a.0;
        i.heads.insert(hash, b.0);
        assert_eq!(
            i.verify_arena().map_err(|e| e.contains("recomputed")),
            Err(true)
        );
        assert_eq!(i.find(hash, |n| *n == InternedNode::Var(VarId(1))), Some(a));
        assert_eq!(i.find(hash, |n| *n == InternedNode::Var(VarId(2))), Some(b));
    }

    #[test]
    fn constants_are_preinterned() {
        let mut i = LineageInterner::new();
        assert_eq!(i.tru(), i.intern(&Lineage::tru()));
        assert_eq!(i.fls(), i.intern(&Lineage::fls()));
        assert!(i.is_true(i.tru()));
        assert!(i.is_false(i.fls()));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn structurally_equal_formulas_share_one_id() {
        let mut i = LineageInterner::new();
        let f = Lineage::and2(v(1), Lineage::not(Lineage::or2(v(2), v(3))));
        let g = Lineage::and2(v(1), Lineage::not(Lineage::or2(v(2), v(3))));
        assert_eq!(i.intern(&f), i.intern(&g));
        let nodes_after_first = i.len();
        let _ = i.intern(&g);
        assert_eq!(i.len(), nodes_after_first, "re-interning allocates nothing");
    }

    #[test]
    fn constructors_mirror_tree_normalization() {
        let mut i = LineageInterner::new();
        // and: flattening, unit elimination, dedup, absorbing false
        let a = i.intern(&v(1));
        let b = i.intern(&v(2));
        let t = i.tru();
        let f = i.fls();
        assert_eq!(i.and(&[]), t);
        assert_eq!(i.and(&[a]), a);
        assert_eq!(i.and(&[a, t]), a);
        assert_eq!(i.and(&[a, f]), f);
        assert_eq!(i.and(&[a, a]), a);
        let ab = i.and(&[a, b]);
        let c = i.intern(&v(3));
        let flat = i.and(&[ab, c]);
        assert_eq!(
            i.to_lineage(flat),
            Lineage::and(vec![v(1), v(2), v(3)]),
            "nested conjunction flattens one level"
        );
        // or duals
        assert_eq!(i.or(&[]), f);
        assert_eq!(i.or(&[a, f]), a);
        assert_eq!(i.or(&[a, t]), t);
        // not simplifications
        assert_eq!(i.not(t), f);
        assert_eq!(i.not(f), t);
        let na = i.not(a);
        assert_eq!(i.not(na), a);
    }

    #[test]
    fn round_trip_matches_legacy_trees() {
        let mut i = LineageInterner::new();
        let formulas = [
            Lineage::tru(),
            Lineage::fls(),
            v(7),
            Lineage::not(v(1)),
            Lineage::and2(v(0), Lineage::not(Lineage::or2(v(1), v(2)))),
            Lineage::or(vec![v(5), Lineage::and2(v(1), v(2)), Lineage::not(v(3))]),
        ];
        for f in formulas {
            let r = i.intern(&f);
            assert_eq!(i.to_lineage(r), f, "round trip of {f:?}");
        }
    }

    #[test]
    fn to_lineage_shares_arcs_through_the_cache() {
        let mut i = LineageInterner::new();
        let shared = Lineage::or2(v(1), v(2));
        let f = Lineage::and2(v(0), shared.clone());
        let g = Lineage::and2(v(3), shared.clone());
        let rf = i.intern(&f);
        let rg = i.intern(&g);
        let tf = i.to_lineage(rf);
        let tg = i.to_lineage(rg);
        assert_eq!(tf, f);
        assert_eq!(tg, g);
    }

    #[test]
    fn condition_matches_legacy_condition() {
        let mut i = LineageInterner::new();
        let f = Lineage::and2(v(0), Lineage::or2(v(1), v(2)));
        let r = i.intern(&f);
        for (var, value) in [(0, false), (0, true), (1, true), (2, false)] {
            let cond = i.condition(r, VarId(var), value);
            assert_eq!(
                i.to_lineage(cond),
                f.condition(VarId(var), value),
                "condition on x{var}={value}"
            );
        }
    }

    #[test]
    fn interned_disjunction_matches_incremental_disjunction() {
        use crate::IncrementalDisjunction;
        let mut interner = LineageInterner::new();
        let mut interned = InternedDisjunction::new();
        let mut legacy = IncrementalDisjunction::new();
        assert!(interned.is_empty());

        // Same churn pattern as the legacy heavy-churn test.
        for i in 0..64 {
            let l = v(i);
            let r = interner.intern(&l);
            interned.insert(r, &interner);
            legacy.insert(&l);
        }
        for i in 0..63 {
            let l = v(i);
            let r = interner.intern(&l);
            interned.remove(r, &interner);
            legacy.remove(&l);
        }
        for i in 100..104 {
            let l = v(i);
            let r = interner.intern(&l);
            interned.insert(r, &interner);
            legacy.insert(&l);
        }
        assert_eq!(interned.len(), legacy.len());
        let d = interned.disjunction(&mut interner);
        assert_eq!(interner.to_lineage(d), legacy.disjunction());
    }

    #[test]
    fn interned_disjunction_flattens_and_handles_constants() {
        let mut interner = LineageInterner::new();
        let mut d = InternedDisjunction::new();
        let or = interner.intern(&Lineage::or2(v(1), v(2)));
        d.insert(or, &interner);
        let two = interner.intern(&v(2));
        d.insert(two, &interner);
        assert_eq!(d.len(), 2);
        let fls = interner.fls();
        d.insert(fls, &interner);
        assert_eq!(d.len(), 2);
        let tru = interner.tru();
        d.insert(tru, &interner);
        let dis = d.disjunction(&mut interner);
        assert!(interner.is_true(dis));
        d.remove(tru, &interner);
        let dis = d.disjunction(&mut interner);
        assert_eq!(interner.to_lineage(dis), Lineage::or2(v(1), v(2)));
        d.remove(or, &interner);
        let dis = d.disjunction(&mut interner);
        assert_eq!(interner.to_lineage(dis), v(2));
    }
}
