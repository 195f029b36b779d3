//! Congruence closure over ground terms (EUF), with O(1) backtracking.
//!
//! Implements the classic Nelson–Oppen congruence-closure algorithm over
//! [`Term`]s: variables and literals are constants, applications are
//! congruence nodes. Distinct [`Value`] literals are inherently disequal, so
//! merging two classes with different literal representatives is a
//! contradiction.
//!
//! The closure implements [`EqOracle`], which lets the normalizing rewriter
//! consult learned (dis)equalities — the loop that makes the abstraction
//! rewrite rules context-sensitive (e.g. `MapPut` reordering under a learned
//! key disequality).
//!
//! # Backtracking
//!
//! Incremental solver sessions interleave long-lived fact scopes with
//! goal-local assertions, so the closure is **backtrackable**: every
//! mutation (node creation, union, disequality, literal move) is recorded
//! on an undo trail, [`Congruence::snapshot`] captures the current trail
//! position, and [`Congruence::rollback_to`] restores the closure to that
//! exact state — no cloning, no re-interning. Union-find runs union-by-
//! rank *without* path compression precisely so unions undo in O(1) (see
//! `union_find.rs`); roots, and therefore [`Congruence::class_id`]
//! values, are unaffected.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use commcsl_pure::rewrite::{decide_eq_syntactic, EqOracle};
use commcsl_pure::{Func, Term, Value};

use crate::union_find::{UnionFind, UnionUndo};

#[derive(Debug, Clone)]
enum Node {
    /// A variable or literal (the term itself is the intern-map key).
    Leaf,
    /// An application with child node ids.
    App(Func, Vec<usize>),
}

/// One undoable mutation.
#[derive(Debug, Clone)]
enum TrailOp {
    /// A class union (undone via the union-find's own record).
    Union(UnionUndo),
    /// `uses[node]` gained one entry (a fresh application child-link).
    UsesPush(usize),
    /// All `count` use-entries of `loser` moved to the tail of
    /// `winner`'s list during a merge.
    UsesMove {
        winner: usize,
        loser: usize,
        count: usize,
    },
    /// The class literal moved from `loser` to `winner` during a merge.
    LiteralMove { winner: usize, loser: usize },
}

#[derive(Debug, Default, Clone)]
struct Inner {
    uf: UnionFind,
    nodes: Vec<Node>,
    intern: BTreeMap<Term, usize>,
    /// Interned terms in creation order (rollback removes a suffix).
    intern_order: Vec<Term>,
    /// Signature table: canonical `(f, child classes)` → node id.
    /// Insert-only while live — stale entries are unreachable, never
    /// overwritten — so rollback removes a suffix of `sig_order`.
    sigs: HashMap<(Func, Vec<usize>), usize>,
    sig_order: Vec<(Func, Vec<usize>)>,
    /// For each node id, application nodes that have it as a child.
    uses: Vec<Vec<usize>>,
    /// Literal representative per class root (moved on union).
    literal: Vec<Option<Value>>,
    diseqs: Vec<(usize, usize)>,
    trail: Vec<TrailOp>,
    contradiction: bool,
    /// Bumped on every *semantic* mutation: a class union, a fresh
    /// disequality, or a derived contradiction. Interning alone does not
    /// change what [`Congruence::decide`] answers, but interning can
    /// trigger congruence unions, which do count.
    version: u64,
}

/// A point-in-time marker for [`Congruence::rollback_to`].
///
/// Only meaningful for the closure that produced it, and only while no
/// *earlier* snapshot has been rolled back past; the incremental session
/// uses strictly nested snapshot/rollback pairs.
#[derive(Debug, Clone, Copy)]
pub struct CongruenceSnapshot {
    nodes: usize,
    interned: usize,
    sigs: usize,
    diseqs: usize,
    trail: usize,
    version: u64,
    contradiction: bool,
}

/// A congruence-closure context.
///
/// # Example
///
/// ```
/// use commcsl_pure::Term;
/// use commcsl_smt::congruence::Congruence;
///
/// let cc = Congruence::new();
/// let snap = cc.snapshot();
/// cc.assert_eq(&Term::var("x"), &Term::var("y"));
/// let fx = Term::app(commcsl_pure::Func::SeqLen, [Term::var("x")]);
/// let fy = Term::app(commcsl_pure::Func::SeqLen, [Term::var("y")]);
/// assert_eq!(cc.decide(&fx, &fy), Some(true));
/// cc.rollback_to(&snap);
/// assert_eq!(cc.decide(&fx, &fy), None);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Congruence {
    inner: RefCell<Inner>,
}

impl Congruence {
    /// Creates an empty context.
    pub fn new() -> Self {
        Congruence::default()
    }

    /// Asserts `a = b`.
    pub fn assert_eq(&self, a: &Term, b: &Term) {
        let mut inner = self.inner.borrow_mut();
        let (ia, ib) = (inner.intern_term(a), inner.intern_term(b));
        inner.merge(ia, ib);
        inner.check_diseqs();
    }

    /// Asserts `a ≠ b`. Re-asserting a disequality already separating the
    /// same pair of classes is a no-op (and does not bump the mutation
    /// [`Congruence::version`]).
    pub fn assert_neq(&self, a: &Term, b: &Term) {
        let mut inner = self.inner.borrow_mut();
        let (ia, ib) = (inner.intern_term(a), inner.intern_term(b));
        let (ra, rb) = (inner.uf.find(ia), inner.uf.find(ib));
        if inner.separated(ra, rb) {
            return;
        }
        inner.diseqs.push((ia, ib));
        inner.version += 1;
        inner.check_diseqs();
    }

    /// Returns `true` when the asserted facts are contradictory.
    pub fn contradictory(&self) -> bool {
        self.inner.borrow().contradiction
    }

    /// A counter bumped on every semantic mutation (union, fresh
    /// disequality, contradiction). Two states with the same version that
    /// evolved from a common ancestor answer every [`Congruence::decide`]
    /// query identically, which is what lets the incremental solver
    /// sessions detect a quiescent normalization round and skip the
    /// remaining ones exactly.
    pub fn version(&self) -> u64 {
        self.inner.borrow().version
    }

    /// Captures the current state for a later [`Congruence::rollback_to`].
    pub fn snapshot(&self) -> CongruenceSnapshot {
        let inner = self.inner.borrow();
        CongruenceSnapshot {
            nodes: inner.nodes.len(),
            interned: inner.intern_order.len(),
            sigs: inner.sig_order.len(),
            diseqs: inner.diseqs.len(),
            trail: inner.trail.len(),
            version: inner.version,
            contradiction: inner.contradiction,
        }
    }

    /// Restores the closure to the exact state captured by `snap`:
    /// trailing mutations are undone in reverse, fresh nodes and
    /// disequalities are discarded. O(work since the snapshot), not
    /// O(closure size).
    pub fn rollback_to(&self, snap: &CongruenceSnapshot) {
        let mut inner = self.inner.borrow_mut();
        while inner.trail.len() > snap.trail {
            let op = inner.trail.pop().expect("trail length checked");
            match op {
                TrailOp::Union(undo) => inner.uf.undo_union(undo),
                TrailOp::UsesPush(node) => {
                    inner.uses[node].pop();
                }
                TrailOp::UsesMove {
                    winner,
                    loser,
                    count,
                } => {
                    let at = inner.uses[winner].len() - count;
                    let moved: Vec<usize> = inner.uses[winner].split_off(at);
                    debug_assert!(inner.uses[loser].is_empty());
                    inner.uses[loser] = moved;
                }
                TrailOp::LiteralMove { winner, loser } => {
                    let value = inner.literal[winner].take();
                    inner.literal[loser] = value;
                }
            }
        }
        while inner.intern_order.len() > snap.interned {
            let key = inner.intern_order.pop().expect("length checked");
            inner.intern.remove(&key);
        }
        while inner.sig_order.len() > snap.sigs {
            let key = inner.sig_order.pop().expect("length checked");
            inner.sigs.remove(&key);
        }
        inner.diseqs.truncate(snap.diseqs);
        inner.nodes.truncate(snap.nodes);
        inner.uses.truncate(snap.nodes);
        inner.literal.truncate(snap.nodes);
        inner.uf.truncate(snap.nodes);
        inner.version = snap.version;
        inner.contradiction = snap.contradiction;
    }

    /// Decides `a = b` from the closure: `Some(true)` when congruent,
    /// `Some(false)` when separated by a disequality or distinct literals,
    /// `None` otherwise.
    pub fn decide(&self, a: &Term, b: &Term) -> Option<bool> {
        if let Some(ans) = decide_eq_syntactic(a, b) {
            return Some(ans);
        }
        let mut inner = self.inner.borrow_mut();
        let (ia, ib) = (inner.intern_term(a), inner.intern_term(b));
        let (ra, rb) = (inner.uf.find(ia), inner.uf.find(ib));
        if ra == rb {
            return Some(true);
        }
        match (&inner.literal[ra], &inner.literal[rb]) {
            (Some(x), Some(y)) if x != y => return Some(false),
            _ => {}
        }
        if inner.separated(ra, rb) {
            return Some(false);
        }
        None
    }

    /// Returns the literal value of the class of `t`, if one is known.
    pub fn literal_of(&self, t: &Term) -> Option<Value> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.intern_term(t);
        let root = inner.uf.find(id);
        inner.literal[root].clone()
    }

    /// Returns a stable id for the congruence class of `t` at the time of the
    /// call (classes may merge later). Used by the LIA layer to identify
    /// arithmetic atoms up to congruence.
    pub fn class_id(&self, t: &Term) -> usize {
        let mut inner = self.inner.borrow_mut();
        let id = inner.intern_term(t);
        inner.uf.find(id)
    }
}

impl EqOracle for Congruence {
    fn decide_eq(&self, a: &Term, b: &Term) -> Option<bool> {
        self.decide(a, b)
    }
}

impl Inner {
    /// `true` when an asserted disequality separates the two class roots
    /// (in either orientation). Shared by `assert_neq`'s dedup (which
    /// suppresses the version bump the quiescence skip relies on) and
    /// `decide`'s separation answer, so the two can never drift apart.
    fn separated(&self, ra: usize, rb: usize) -> bool {
        self.diseqs.iter().any(|&(x, y)| {
            let (rx, ry) = (self.uf.find(x), self.uf.find(y));
            (rx == ra && ry == rb) || (rx == rb && ry == ra)
        })
    }

    fn intern_term(&mut self, t: &Term) -> usize {
        if let Some(&id) = self.intern.get(t) {
            return id;
        }
        let node = match t {
            Term::Var(_) | Term::Lit(_) => Node::Leaf,
            Term::App(f, args) => {
                let child_ids: Vec<usize> =
                    args.iter().map(|a| self.intern_term(a)).collect();
                Node::App(f.clone(), child_ids)
            }
        };
        let id = self.push_node(node, t);
        // Congruence check for fresh applications.
        if let Node::App(f, child_ids) = self.nodes[id].clone() {
            for &c in &child_ids {
                let rc = self.uf.find(c);
                self.uses[rc].push(id);
                self.trail.push(TrailOp::UsesPush(rc));
            }
            let sig = self.signature(&f, &child_ids);
            if let Some(&existing) = self.sigs.get(&sig) {
                self.merge(existing, id);
            } else {
                self.sig_order.push(sig.clone());
                self.sigs.insert(sig, id);
            }
        }
        id
    }

    fn push_node(&mut self, node: Node, t: &Term) -> usize {
        let id = self.uf.push();
        debug_assert_eq!(id, self.nodes.len());
        self.nodes.push(node);
        self.uses.push(Vec::new());
        self.literal.push(match t {
            Term::Lit(v) => Some(v.clone()),
            _ => None,
        });
        self.intern_order.push(t.clone());
        self.intern.insert(t.clone(), id);
        id
    }

    fn signature(&mut self, f: &Func, child_ids: &[usize]) -> (Func, Vec<usize>) {
        let canon: Vec<usize> = child_ids.iter().map(|&c| self.uf.find(c)).collect();
        (f.clone(), canon)
    }

    fn merge(&mut self, a: usize, b: usize) {
        let mut queue = vec![(a, b)];
        while let Some((x, y)) = queue.pop() {
            let (rx, ry) = (self.uf.find(x), self.uf.find(y));
            if rx == ry {
                continue;
            }
            // Literal clash ⇒ contradiction.
            if let (Some(lx), Some(ly)) = (&self.literal[rx], &self.literal[ry]) {
                if lx != ly {
                    self.contradiction = true;
                    self.version += 1;
                    return;
                }
            }
            let undo = match self.uf.union(rx, ry) {
                Some(undo) => undo,
                None => continue,
            };
            let winner = undo.winner;
            let loser = undo.loser;
            self.trail.push(TrailOp::Union(undo));
            self.version += 1;
            if self.literal[winner].is_none() && self.literal[loser].is_some() {
                self.literal[winner] = self.literal[loser].take();
                self.trail.push(TrailOp::LiteralMove { winner, loser });
            }
            // Re-canonicalize parents of the losing class.
            let moved: Vec<usize> = std::mem::take(&mut self.uses[loser]);
            let count = moved.len();
            for parent in moved {
                if let Node::App(f, child_ids) = self.nodes[parent].clone() {
                    let sig = self.signature(&f, &child_ids);
                    if let Some(&existing) = self.sigs.get(&sig) {
                        if self.uf.find(existing) != self.uf.find(parent) {
                            queue.push((existing, parent));
                        }
                    } else {
                        self.sig_order.push(sig.clone());
                        self.sigs.insert(sig, parent);
                    }
                }
                self.uses[winner].push(parent);
            }
            if count > 0 {
                self.trail.push(TrailOp::UsesMove {
                    winner,
                    loser,
                    count,
                });
            }
        }
        self.check_diseqs();
    }

    fn check_diseqs(&mut self) {
        if self.contradiction {
            return;
        }
        let clash = self
            .diseqs
            .iter()
            .any(|&(x, y)| self.uf.find(x) == self.uf.find(y));
        if clash {
            self.contradiction = true;
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, args: impl IntoIterator<Item = Term>) -> Term {
        Term::app(Func::Uninterpreted(name.into()), args)
    }

    #[test]
    fn congruence_propagates_through_applications() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(
            cc.decide(&f("g", [Term::var("a")]), &f("g", [Term::var("b")])),
            Some(true)
        );
    }

    #[test]
    fn nested_congruence() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        let gga = f("g", [f("g", [Term::var("a")])]);
        let ggb = f("g", [f("g", [Term::var("b")])]);
        assert_eq!(cc.decide(&gga, &ggb), Some(true));
    }

    #[test]
    fn transitivity() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        cc.assert_eq(&Term::var("b"), &Term::var("c"));
        assert_eq!(cc.decide(&Term::var("a"), &Term::var("c")), Some(true));
    }

    #[test]
    fn disequality_detects_contradiction() {
        let cc = Congruence::new();
        cc.assert_neq(&Term::var("a"), &Term::var("b"));
        assert!(!cc.contradictory());
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert!(cc.contradictory());
    }

    #[test]
    fn distinct_literals_clash() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::int(1));
        cc.assert_eq(&Term::var("b"), &Term::int(2));
        assert_eq!(cc.decide(&Term::var("a"), &Term::var("b")), Some(false));
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert!(cc.contradictory());
    }

    #[test]
    fn congruence_induced_disequality_of_functions() {
        // a ≠ b does NOT let us conclude g(a) ≠ g(b).
        let cc = Congruence::new();
        cc.assert_neq(&Term::var("a"), &Term::var("b"));
        assert_eq!(
            cc.decide(&f("g", [Term::var("a")]), &f("g", [Term::var("b")])),
            None
        );
    }

    #[test]
    fn merge_discovered_by_later_equation() {
        // Intern g(a), g(b) first, merge a=b afterwards: the use lists must
        // propagate the congruence.
        let cc = Congruence::new();
        let (ga, gb) = (f("g", [Term::var("a")]), f("g", [Term::var("b")]));
        assert_eq!(cc.decide(&ga, &gb), None);
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
    }

    #[test]
    fn literal_of_reports_class_literal() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("x"), &Term::int(5));
        assert_eq!(cc.literal_of(&Term::var("x")), Some(Value::Int(5)));
        assert_eq!(cc.literal_of(&Term::var("y")), None);
    }

    #[test]
    fn functions_of_disequal_literals() {
        let cc = Congruence::new();
        // g(1) and g(2) are unknown, but 1 ≠ 2 is decided.
        assert_eq!(cc.decide(&Term::int(1), &Term::int(2)), Some(false));
        assert_eq!(cc.decide(&f("g", [Term::int(1)]), &f("g", [Term::int(2)])), None);
    }

    #[test]
    fn rollback_restores_everything() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        let (ga, gb) = (f("g", [Term::var("a")]), f("g", [Term::var("b")]));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
        let version_before = cc.version();

        let snap = cc.snapshot();
        // Goal-local work: new terms, unions, a literal pin, a diseq, and
        // finally a contradiction.
        cc.assert_eq(&Term::var("c"), &Term::int(7));
        cc.assert_neq(&Term::var("c"), &Term::var("d"));
        cc.assert_eq(&f("h", [Term::var("a")]), &Term::var("d"));
        assert_eq!(cc.decide(&Term::var("c"), &Term::var("d")), Some(false));
        assert_eq!(cc.literal_of(&Term::var("c")), Some(Value::Int(7)));
        cc.assert_eq(&Term::var("c"), &Term::var("d"));
        assert!(cc.contradictory());

        cc.rollback_to(&snap);
        assert!(!cc.contradictory());
        assert_eq!(cc.version(), version_before);
        // Pre-snapshot state survives...
        assert_eq!(cc.decide(&ga, &gb), Some(true));
        // ...and post-snapshot facts are gone.
        assert_eq!(cc.decide(&Term::var("c"), &Term::var("d")), None);
        assert_eq!(cc.literal_of(&Term::var("c")), None);

        // The closure is fully usable after rollback, including re-learning
        // the same facts.
        cc.assert_eq(&Term::var("c"), &Term::int(7));
        assert_eq!(cc.literal_of(&Term::var("c")), Some(Value::Int(7)));
    }

    #[test]
    fn nested_snapshots_roll_back_in_order() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("x"), &Term::var("y"));
        let outer = cc.snapshot();
        cc.assert_eq(&Term::var("y"), &Term::var("z"));
        let inner = cc.snapshot();
        cc.assert_neq(&Term::var("x"), &Term::var("w"));
        assert_eq!(cc.decide(&Term::var("z"), &Term::var("w")), Some(false));
        cc.rollback_to(&inner);
        assert_eq!(cc.decide(&Term::var("z"), &Term::var("w")), None);
        assert_eq!(cc.decide(&Term::var("x"), &Term::var("z")), Some(true));
        cc.rollback_to(&outer);
        assert_eq!(cc.decide(&Term::var("x"), &Term::var("z")), None);
        assert_eq!(cc.decide(&Term::var("x"), &Term::var("y")), Some(true));
    }

    #[test]
    fn rollback_restores_uses_so_later_merges_still_propagate() {
        // Regression shape: the `uses` lists must survive a rollback that
        // undoes a merge, or congruences discovered after the rollback
        // would be missed.
        let cc = Congruence::new();
        let (ga, gb) = (f("g", [Term::var("a")]), f("g", [Term::var("b")]));
        assert_eq!(cc.decide(&ga, &gb), None);
        let snap = cc.snapshot();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
        cc.rollback_to(&snap);
        assert_eq!(cc.decide(&ga, &gb), None);
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
    }
}
