//! Normalizing rewriter for symbolic terms.
//!
//! Resource-specification validity (paper, Def. 3.1) requires proving
//! equalities like
//! `α(f_a'(f_a(v, x), y)) = α(f_a(f_a'(v', y), x))` under the hypothesis
//! `α(v) = α(v')`, for *all* values — a ∀-statement over unbounded domains.
//! The original artifact discharges these with Z3; here a normalizing
//! rewriter reduces both sides to canonical forms so that the subsequent
//! congruence-closure step (in `commcsl-smt`) can close the gap using the
//! hypothesis.
//!
//! The rule set is abstraction-aware: observers are pushed through mutators
//! (`dom(put(m,k,v)) → add(dom(m),k)`, `sum(append(s,e)) → sum(s)+e`, …),
//! commutative chains are sorted into canonical order, linear integer
//! arithmetic is normalized, and if-then-else is distributed and collapsed.
//! Rewriting is *equality-preserving*: every rule is a theorem of the ground
//! semantics in [`Term::eval`], which the test-suite checks by evaluation on
//! random inputs.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::term::{Func, Term};
use crate::value::Value;

/// Oracle answering equality questions about (normalized) terms.
///
/// The rewriter consults the oracle where reordering is only sound under a
/// disequality (e.g. swapping adjacent `MapPut`s needs distinct keys).
/// `None` means "unknown", in which case the rewriter leaves the term alone.
pub trait EqOracle {
    /// Decides whether `a = b` holds (`Some(true)`), definitely does not
    /// hold (`Some(false)`), or is unknown (`None`).
    fn decide_eq(&self, a: &Term, b: &Term) -> Option<bool>;
}

/// The trivial oracle: only syntactically equal terms and unequal literals
/// are decided.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntacticOracle;

impl EqOracle for SyntacticOracle {
    fn decide_eq(&self, a: &Term, b: &Term) -> Option<bool> {
        decide_eq_syntactic(a, b)
    }
}

/// Syntactic equality decision shared by all oracles: equal terms are equal;
/// distinct literals (and distinct constructor applications with decidably
/// distinct fields) are unequal.
pub fn decide_eq_syntactic(a: &Term, b: &Term) -> Option<bool> {
    if a == b {
        return Some(true);
    }
    match (a, b) {
        (Term::Lit(x), Term::Lit(y)) => Some(x == y),
        (Term::App(Func::MkPair, xs), Term::App(Func::MkPair, ys)) => {
            let fst = decide_eq_syntactic(&xs[0], &ys[0]);
            let snd = decide_eq_syntactic(&xs[1], &ys[1]);
            match (fst, snd) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        }
        (Term::App(Func::MkLeft, _), Term::App(Func::MkRight, _))
        | (Term::App(Func::MkRight, _), Term::App(Func::MkLeft, _)) => Some(false),
        (Term::App(Func::MkLeft, xs), Term::App(Func::MkLeft, ys))
        | (Term::App(Func::MkRight, xs), Term::App(Func::MkRight, ys)) => {
            decide_eq_syntactic(&xs[0], &ys[0])
        }
        _ => None,
    }
}

/// Maximum number of full normalization passes before giving up.
///
/// Every rule either strictly shrinks the term or strictly decreases a
/// well-founded sort key, so a fixpoint is reached quickly in practice; the
/// cap is a defensive bound.
const MAX_PASSES: usize = 64;

/// Normalizes a term to a canonical form under the given oracle.
///
/// # Example
///
/// ```
/// use commcsl_pure::rewrite::{normalize, SyntacticOracle};
/// use commcsl_pure::{Func, Term};
///
/// // dom(put(put(m, k2, v2), k1, v1)) and dom(put(put(m, k1, v1), k2, v2))
/// // normalize to the same canonical key-set chain.
/// let m = Term::var("m");
/// let put = |m, k: &str, v: i64| Term::app(Func::MapPut, [m, Term::var(k), Term::int(v)]);
/// let lhs = Term::app(Func::MapDom, [put(put(m.clone(), "k2", 2), "k1", 1)]);
/// let rhs = Term::app(Func::MapDom, [put(put(m, "k1", 1), "k2", 2)]);
/// assert_eq!(normalize(&lhs, &SyntacticOracle), normalize(&rhs, &SyntacticOracle));
/// ```
pub fn normalize(t: &Term, oracle: &dyn EqOracle) -> Term {
    let mut cur = t.clone();
    for _ in 0..MAX_PASSES {
        let next = rewrite_bottom_up(&cur, oracle);
        if next == cur {
            return cur;
        }
        cur = next;
    }
    cur
}

fn rewrite_bottom_up(t: &Term, oracle: &dyn EqOracle) -> Term {
    match t {
        Term::Var(_) | Term::Lit(_) => t.clone(),
        Term::App(f, args) => {
            let args: Vec<Term> = args
                .iter()
                .map(|a| rewrite_bottom_up(a, oracle))
                .collect();
            rewrite_node(f.clone(), args, oracle)
        }
    }
}

/// Applies root rules to an application whose arguments are already
/// normalized.
fn rewrite_node(f: Func, args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    // 1. Constant folding whenever all arguments are literals and the symbol
    //    is interpreted and total on them.
    if !matches!(f, Func::Uninterpreted(_)) && args.iter().all(|a| matches!(a, Term::Lit(_))) {
        let probe = Term::app(f.clone(), args.iter().cloned());
        if let Ok(v) = probe.eval(&BTreeMap::new()) {
            return Term::Lit(v);
        }
    }

    // 2. Distribute strict unary observers over if-then-else so that
    //    case-analysis on action bodies (Either-encoded queues etc.) exposes
    //    per-branch redexes. Collapse trivially equal branches afterwards.
    if args.len() == 1 && distributes_over_ite(&f) {
        if let Term::App(Func::Ite, ite_args) = &args[0] {
            let c = ite_args[0].clone();
            let t1 = rewrite_node(f.clone(), vec![ite_args[1].clone()], oracle);
            let t2 = rewrite_node(f, vec![ite_args[2].clone()], oracle);
            return rewrite_node(Func::Ite, vec![c, t1, t2], oracle);
        }
    }

    match f {
        Func::Ite => rewrite_ite(args, oracle),
        Func::Not => rewrite_not(args),
        Func::And | Func::Or => rewrite_ac_bool(f, args),
        Func::Implies => {
            let [p, q] = two(args);
            match (&p, &q) {
                (Term::Lit(Value::Bool(true)), _) => q,
                (Term::Lit(Value::Bool(false)), _) => Term::tt(),
                (_, Term::Lit(Value::Bool(true))) => Term::tt(),
                (_, Term::Lit(Value::Bool(false))) => rewrite_not(vec![p]),
                _ if p == q => Term::tt(),
                _ => Term::app(Func::Implies, [p, q]),
            }
        }
        Func::Iff => {
            let [p, q] = two(args);
            if p == q {
                Term::tt()
            } else {
                Term::app(Func::Iff, [p, q])
            }
        }
        Func::Eq => rewrite_eq(args, oracle),
        Func::Add | Func::Sub | Func::Neg => linear::normalize_linear(f, args),
        Func::Mul => rewrite_mul(args),
        Func::Lt | Func::Le => rewrite_cmp(f, args),
        Func::Mod => rewrite_mod(args),
        Func::Max | Func::Min => rewrite_ac_minmax(f, args),
        Func::Fst | Func::Snd => rewrite_proj(f, args),
        Func::IsLeft => match &args[0] {
            Term::App(Func::MkLeft, _) => Term::tt(),
            Term::App(Func::MkRight, _) => Term::ff(),
            _ => Term::App(Func::IsLeft, args.into()),
        },
        Func::FromLeft => match &args[0] {
            Term::App(Func::MkLeft, inner) => inner[0].clone(),
            _ => Term::App(Func::FromLeft, args.into()),
        },
        Func::FromRight => match &args[0] {
            Term::App(Func::MkRight, inner) => inner[0].clone(),
            _ => Term::App(Func::FromRight, args.into()),
        },
        Func::SeqLen => rewrite_seq_observer(Func::SeqLen, args, oracle),
        Func::SeqSum => rewrite_seq_observer(Func::SeqSum, args, oracle),
        Func::SeqToMultiset => rewrite_seq_observer(Func::SeqToMultiset, args, oracle),
        Func::SeqToSet => rewrite_seq_observer(Func::SeqToSet, args, oracle),
        Func::SeqMean => {
            // mean(s) ≡ if len(s) = 0 then 0 else sum(s) div len(s); the
            // expansion makes mean a function of the commuting observers.
            let s = args[0].clone();
            let len = rewrite_node(Func::SeqLen, vec![s.clone()], oracle);
            let sum = rewrite_node(Func::SeqSum, vec![s], oracle);
            let cond = rewrite_node(
                Func::Eq,
                vec![len.clone(), Term::int(0)],
                oracle,
            );
            let div = rewrite_node(Func::Div, vec![sum, len], oracle);
            rewrite_node(Func::Ite, vec![cond, Term::int(0), div], oracle)
        }
        Func::SeqSorted => {
            // sorted(s) is a function of the multiset view: expanding it to
            // MsToSortedSeq(to_ms(s)) lets congruence conclude equality of
            // sorted lists from equality of multisets (the Email-Metadata
            // idiom: sorting launders the secret-dependent order away).
            let ms = rewrite_node(Func::SeqToMultiset, args, oracle);
            rewrite_node(Func::MsToSortedSeq, vec![ms], oracle)
        }
        Func::MsToSortedSeq => Term::App(Func::MsToSortedSeq, args.into()),
        Func::SetAdd => rewrite_chain_add(Func::SetAdd, args, /* idempotent */ true),
        Func::MsAdd => rewrite_chain_add(Func::MsAdd, args, false),
        Func::SetUnion | Func::MsUnion => rewrite_ac_union(f, args),
        Func::SetCard => match &args[0] {
            Term::App(Func::SeqToSet, _) => Term::App(Func::SetCard, args.into()),
            _ => Term::App(Func::SetCard, args.into()),
        },
        Func::MsCard => match &args[0] {
            Term::App(Func::MsAdd, inner) => {
                let base = Term::app(Func::MsCard, [inner[0].clone()]);
                linear::normalize_linear(Func::Add, vec![base, Term::int(1)])
            }
            Term::App(Func::MsUnion, inner) => {
                let a = Term::app(Func::MsCard, [inner[0].clone()]);
                let b = Term::app(Func::MsCard, [inner[1].clone()]);
                linear::normalize_linear(Func::Add, vec![a, b])
            }
            _ => Term::App(Func::MsCard, args.into()),
        },
        Func::SetContains => rewrite_member(Func::SetContains, Func::SetAdd, args, oracle),
        Func::MsContains => rewrite_member(Func::MsContains, Func::MsAdd, args, oracle),
        Func::MapPut => rewrite_map_put(args, oracle),
        Func::MapGetOr => rewrite_map_get_or(args, oracle),
        Func::MapDom => match &args[0] {
            Term::App(Func::MapPut, inner) => {
                let dom = rewrite_node(Func::MapDom, vec![inner[0].clone()], oracle);
                rewrite_node(Func::SetAdd, vec![dom, inner[1].clone()], oracle)
            }
            _ => Term::App(Func::MapDom, args.into()),
        },
        Func::MapContains => {
            let [m, k] = two(args);
            match &m {
                Term::App(Func::MapPut, inner) => {
                    let hit = rewrite_node(Func::Eq, vec![k.clone(), inner[1].clone()], oracle);
                    let rest =
                        rewrite_node(Func::MapContains, vec![inner[0].clone(), k], oracle);
                    rewrite_ac_bool(Func::Or, vec![hit, rest])
                }
                _ => Term::app(Func::MapContains, [m, k]),
            }
        }
        Func::MapLen => Term::App(Func::MapLen, args.into()),
        _ => Term::App(f, args.into()),
    }
}

fn distributes_over_ite(f: &Func) -> bool {
    use Func::*;
    matches!(
        f,
        Fst | Snd
            | IsLeft
            | FromLeft
            | FromRight
            | SeqTail
            | SeqLen
            | SeqSum
            | SeqMean
            | SeqSorted
            | SeqToMultiset
            | SeqToSet
            | SetCard
            | SetToSeq
            | MsCard
            | MapDom
            | MapLen
            | Not
            | Neg
    )
}

fn two(args: Vec<Term>) -> [Term; 2] {
    let mut it = args.into_iter();
    let a = it.next().expect("binary symbol");
    let b = it.next().expect("binary symbol");
    [a, b]
}

fn rewrite_ite(args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    let mut it = args.into_iter();
    let c = it.next().expect("ite");
    let t = it.next().expect("ite");
    let e = it.next().expect("ite");
    match &c {
        Term::Lit(Value::Bool(true)) => return t,
        Term::Lit(Value::Bool(false)) => return e,
        _ => {}
    }
    if t == e {
        return t;
    }
    // ite(c, true, false) → c on booleans.
    if t == Term::tt() && e == Term::ff() {
        return c;
    }
    if let Some(known) = oracle_truth(&c, oracle) {
        return if known { t } else { e };
    }
    Term::app(Func::Ite, [c, t, e])
}

/// Asks the oracle about a boolean condition of the shape `a = b` / `¬(a=b)`.
fn oracle_truth(cond: &Term, oracle: &dyn EqOracle) -> Option<bool> {
    match cond {
        Term::App(Func::Eq, xs) => oracle.decide_eq(&xs[0], &xs[1]),
        Term::App(Func::Not, xs) => oracle_truth(&xs[0], oracle).map(|b| !b),
        _ => None,
    }
}

fn rewrite_not(args: Vec<Term>) -> Term {
    match args.into_iter().next().expect("not") {
        Term::Lit(Value::Bool(b)) => Term::bool(!b),
        Term::App(Func::Not, inner) => inner[0].clone(),
        other => Term::app(Func::Not, [other]),
    }
}

/// Flattens, sorts, deduplicates, and unit-reduces `And`/`Or`.
fn rewrite_ac_bool(f: Func, args: Vec<Term>) -> Term {
    let (unit, zero) = match f {
        Func::And => (true, false),
        Func::Or => (false, true),
        _ => unreachable!("rewrite_ac_bool on non-boolean AC symbol"),
    };
    let mut flat = Vec::new();
    let mut stack: Vec<Term> = args;
    stack.reverse();
    while let Some(a) = stack.pop() {
        match a {
            Term::App(ref g, ref inner) if *g == f => {
                for x in inner.iter().rev() {
                    stack.push(x.clone());
                }
            }
            Term::Lit(Value::Bool(b)) => {
                if b == zero {
                    return Term::bool(zero);
                }
                // `unit` literals vanish.
            }
            other => flat.push(other),
        }
    }
    flat.sort();
    flat.dedup();
    // `p ∧ ¬p → false`, `p ∨ ¬p → true`.
    for x in &flat {
        if flat.contains(&Term::not(x.clone())) {
            return Term::bool(zero);
        }
    }
    match flat.len() {
        0 => Term::bool(unit),
        1 => flat.into_iter().next().expect("len checked"),
        _ => Term::App(f, flat.into()),
    }
}

fn rewrite_eq(args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    let [a, b] = two(args);
    if let Some(ans) = oracle.decide_eq(&a, &b) {
        return Term::bool(ans);
    }
    if let Some(ans) = decide_eq_syntactic(&a, &b) {
        return Term::bool(ans);
    }
    // Componentwise equality on pair constructors.
    if let (Term::App(Func::MkPair, xs), Term::App(Func::MkPair, ys)) = (&a, &b) {
        let e1 = rewrite_eq(vec![xs[0].clone(), ys[0].clone()], oracle);
        let e2 = rewrite_eq(vec![xs[1].clone(), ys[1].clone()], oracle);
        return rewrite_ac_bool(Func::And, vec![e1, e2]);
    }
    // Integer equalities: move everything to one side and normalize, so
    // `x + 1 = 1 + x` becomes `0 = 0`.
    if is_int_term(&a) || is_int_term(&b) {
        let diff = linear::normalize_linear(Func::Sub, vec![a.clone(), b.clone()]);
        if let Term::Lit(Value::Int(n)) = diff {
            return Term::bool(n == 0);
        }
        // Canonical orientation: `lin = 0` with the linear part first.
        let (lo, hi) = order_pair(a, b);
        return Term::app(Func::Eq, [lo, hi]);
    }
    let (lo, hi) = order_pair(a, b);
    Term::app(Func::Eq, [lo, hi])
}

fn order_pair(a: Term, b: Term) -> (Term, Term) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn is_int_term(t: &Term) -> bool {
    match t {
        Term::Lit(Value::Int(_)) => true,
        Term::App(f, _) => matches!(
            f,
            Func::Add
                | Func::Sub
                | Func::Mul
                | Func::Div
                | Func::Mod
                | Func::Neg
                | Func::Max
                | Func::Min
                | Func::SeqLen
                | Func::SeqSum
                | Func::SeqMean
                | Func::SetCard
                | Func::MsCard
                | Func::MapLen
                | Func::SeqIndex
                | Func::MapGetOr
        ),
        _ => false,
    }
}

fn rewrite_mul(args: Vec<Term>) -> Term {
    let [a, b] = two(args);
    match (&a, &b) {
        (Term::Lit(Value::Int(0)), _) | (_, Term::Lit(Value::Int(0))) => Term::int(0),
        (Term::Lit(Value::Int(1)), _) => b,
        (_, Term::Lit(Value::Int(1))) => a,
        _ => linear::normalize_linear(Func::Mul, vec![a, b]),
    }
}

fn rewrite_cmp(f: Func, args: Vec<Term>) -> Term {
    let [a, b] = two(args);
    // Normalize to `0 cmp (b - a)` form via linear normalization of b - a.
    let diff = linear::normalize_linear(Func::Sub, vec![b.clone(), a.clone()]);
    if let Term::Lit(Value::Int(n)) = diff {
        return Term::bool(match f {
            Func::Lt => n > 0,
            Func::Le => n >= 0,
            _ => unreachable!("rewrite_cmp"),
        });
    }
    Term::app(f, [a, b])
}

/// `Mod(t, k)` for a literal positive modulus: summands of the linear form
/// of `t` whose coefficient is divisible by `k` vanish, and the constant is
/// reduced mod `k`. Proves facts like `(2·j + 1) mod 2 = 1` symbolically —
/// the disjoint-key-range idiom of the Sales-By-Region example.
fn rewrite_mod(args: Vec<Term>) -> Term {
    let [t, modulus] = two(args);
    let Term::Lit(Value::Int(k)) = modulus else {
        return Term::app(Func::Mod, [t, modulus]);
    };
    if k <= 0 {
        return Term::app(Func::Mod, [t, modulus]);
    }
    // Canonicalize, then drop k-divisible summands.
    let lin = linear::normalize_linear(Func::Add, vec![t]);
    let mut kept: Vec<Term> = Vec::new();
    let mut constant: i64 = 0;
    let mut stack = vec![lin];
    while let Some(part) = stack.pop() {
        match part {
            Term::App(Func::Add, parts) => stack.extend(parts.iter().cloned()),
            Term::Lit(Value::Int(n)) => constant = (constant + n.rem_euclid(k)).rem_euclid(k),
            Term::App(Func::Mul, ref m) => match (&m[0], &m[1]) {
                (Term::Lit(Value::Int(c)), _) | (_, Term::Lit(Value::Int(c)))
                    if c.rem_euclid(k) == 0 => {}
                _ => kept.push(part),
            },
            other => kept.push(other),
        }
    }
    if kept.is_empty() {
        return Term::int(constant);
    }
    let mut sum = {
        let mut it = kept.into_iter();
        let first = it.next().expect("nonempty");
        it.fold(first, |acc, x| Term::app(Func::Add, [acc, x]))
    };
    if constant != 0 {
        sum = Term::app(Func::Add, [sum, Term::int(constant)]);
    }
    Term::app(Func::Mod, [sum, Term::int(k)])
}

fn rewrite_ac_minmax(f: Func, args: Vec<Term>) -> Term {
    let mut flat = Vec::new();
    let mut stack: Vec<Term> = args;
    while let Some(a) = stack.pop() {
        match a {
            Term::App(ref g, ref inner) if *g == f => stack.extend(inner.iter().cloned()),
            other => flat.push(other),
        }
    }
    // Fold literal operands.
    let mut lit: Option<i64> = None;
    let mut rest = Vec::new();
    for t in flat {
        if let Term::Lit(Value::Int(n)) = t {
            lit = Some(match (lit, &f) {
                (None, _) => n,
                (Some(m), Func::Max) => m.max(n),
                (Some(m), Func::Min) => m.min(n),
                _ => unreachable!("minmax literal folding"),
            });
        } else {
            rest.push(t);
        }
    }
    rest.sort();
    rest.dedup();
    if let Some(n) = lit {
        rest.push(Term::int(n));
    }
    match rest.len() {
        0 => unreachable!("minmax of zero operands"),
        1 => rest.into_iter().next().expect("len checked"),
        _ => {
            // Rebuild a left-nested canonical chain.
            let mut it = rest.into_iter();
            let first = it.next().expect("nonempty");
            it.fold(first, |acc, x| Term::app(f.clone(), [acc, x]))
        }
    }
}

fn rewrite_proj(f: Func, args: Vec<Term>) -> Term {
    match &args[0] {
        Term::App(Func::MkPair, inner) => match f {
            Func::Fst => inner[0].clone(),
            Func::Snd => inner[1].clone(),
            _ => unreachable!("rewrite_proj"),
        },
        _ => Term::App(f, args.into()),
    }
}

/// Pushes sequence observers through `SeqAppend`/`SeqConcat`/`SeqSorted` and
/// literal sequences.
fn rewrite_seq_observer(obs: Func, args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    let s = args.into_iter().next().expect("unary observer");
    match (&obs, &s) {
        (Func::SeqLen, Term::App(Func::SeqAppend, inner)) => {
            let base = rewrite_seq_observer(Func::SeqLen, vec![inner[0].clone()], oracle);
            linear::normalize_linear(Func::Add, vec![base, Term::int(1)])
        }
        (Func::SeqLen, Term::App(Func::SeqConcat, inner)) => {
            let a = rewrite_seq_observer(Func::SeqLen, vec![inner[0].clone()], oracle);
            let b = rewrite_seq_observer(Func::SeqLen, vec![inner[1].clone()], oracle);
            linear::normalize_linear(Func::Add, vec![a, b])
        }
        (Func::SeqLen, Term::App(Func::SeqSorted, inner)) => {
            rewrite_seq_observer(Func::SeqLen, vec![inner[0].clone()], oracle)
        }
        (Func::SeqSum, Term::App(Func::SeqAppend, inner)) => {
            let base = rewrite_seq_observer(Func::SeqSum, vec![inner[0].clone()], oracle);
            linear::normalize_linear(Func::Add, vec![base, inner[1].clone()])
        }
        (Func::SeqSum, Term::App(Func::SeqConcat, inner)) => {
            let a = rewrite_seq_observer(Func::SeqSum, vec![inner[0].clone()], oracle);
            let b = rewrite_seq_observer(Func::SeqSum, vec![inner[1].clone()], oracle);
            linear::normalize_linear(Func::Add, vec![a, b])
        }
        (Func::SeqSum, Term::App(Func::SeqSorted, inner)) => {
            rewrite_seq_observer(Func::SeqSum, vec![inner[0].clone()], oracle)
        }
        (Func::SeqToMultiset, Term::App(Func::SeqAppend, inner)) => {
            let base =
                rewrite_seq_observer(Func::SeqToMultiset, vec![inner[0].clone()], oracle);
            rewrite_chain_add(Func::MsAdd, vec![base, inner[1].clone()], false)
        }
        (Func::SeqToMultiset, Term::App(Func::SeqConcat, inner)) => {
            let a = rewrite_seq_observer(Func::SeqToMultiset, vec![inner[0].clone()], oracle);
            let b = rewrite_seq_observer(Func::SeqToMultiset, vec![inner[1].clone()], oracle);
            rewrite_ac_union(Func::MsUnion, vec![a, b])
        }
        (Func::SeqToMultiset, Term::App(Func::SeqSorted, inner)) => {
            rewrite_seq_observer(Func::SeqToMultiset, vec![inner[0].clone()], oracle)
        }
        // to_ms(ms_to_sorted_seq(m)) = m — sorting a multiset's list view
        // round-trips.
        (Func::SeqToMultiset, Term::App(Func::MsToSortedSeq, inner)) => inner[0].clone(),
        (Func::SeqLen, Term::App(Func::MsToSortedSeq, inner)) => {
            rewrite_node(Func::MsCard, vec![inner[0].clone()], oracle)
        }
        (Func::SeqToSet, Term::App(Func::SeqAppend, inner)) => {
            let base = rewrite_seq_observer(Func::SeqToSet, vec![inner[0].clone()], oracle);
            rewrite_chain_add(Func::SetAdd, vec![base, inner[1].clone()], true)
        }
        (Func::SeqToSet, Term::App(Func::SeqConcat, inner)) => {
            let a = rewrite_seq_observer(Func::SeqToSet, vec![inner[0].clone()], oracle);
            let b = rewrite_seq_observer(Func::SeqToSet, vec![inner[1].clone()], oracle);
            rewrite_ac_union(Func::SetUnion, vec![a, b])
        }
        (Func::SeqToSet, Term::App(Func::SeqSorted, inner)) => {
            rewrite_seq_observer(Func::SeqToSet, vec![inner[0].clone()], oracle)
        }
        _ => Term::app(obs, [s]),
    }
}

/// Canonicalizes `add`-chains (`SetAdd`/`MsAdd`): the chain of inserted
/// elements over a common base is sorted, because insertion order is
/// irrelevant for sets and multisets. For sets, syntactic duplicates also
/// collapse.
fn rewrite_chain_add(f: Func, args: Vec<Term>, idempotent: bool) -> Term {
    let [base_arg, elem] = two(args);
    // Collect the full chain below.
    let mut elems = vec![elem];
    let mut base = base_arg;
    while let Term::App(ref g, ref inner) = base {
        if *g == f {
            elems.push(inner[1].clone());
            base = inner[0].clone();
        } else {
            break;
        }
    }
    elems.sort();
    if idempotent {
        elems.dedup();
        // Inserting into a literal set: fold fully when elements are literal.
        if let Term::Lit(Value::Set(s)) = &base {
            let mut s = s.clone();
            let mut remaining = Vec::new();
            for e in elems {
                if let Term::Lit(v) = e {
                    s.insert(v);
                } else {
                    remaining.push(e);
                }
            }
            base = Term::Lit(Value::Set(s));
            elems = remaining;
            // Literal elements may now duplicate set contents; harmless.
        }
    } else if let Term::Lit(Value::Multiset(m)) = &base {
        let mut m = m.clone();
        let mut remaining = Vec::new();
        for e in elems {
            if let Term::Lit(v) = e {
                m.insert(v);
            } else {
                remaining.push(e);
            }
        }
        base = Term::Lit(Value::Multiset(m));
        elems = remaining;
    }
    // Rebuild in sorted order (largest applied last).
    elems
        .into_iter()
        .rev()
        .fold(base, |acc, e| Term::app(f.clone(), [acc, e]))
}

/// Flattens and sorts AC unions; folds literal neighbours.
fn rewrite_ac_union(f: Func, args: Vec<Term>) -> Term {
    let empty = match f {
        Func::SetUnion => Value::set_empty(),
        Func::MsUnion => Value::multiset_empty(),
        _ => unreachable!("rewrite_ac_union"),
    };
    let mut flat = Vec::new();
    let mut stack: Vec<Term> = args;
    while let Some(a) = stack.pop() {
        match a {
            Term::App(ref g, ref inner) if *g == f => stack.extend(inner.iter().cloned()),
            Term::Lit(ref v) if *v == empty => {}
            other => flat.push(other),
        }
    }
    flat.sort();
    match flat.len() {
        0 => Term::Lit(empty),
        1 => flat.into_iter().next().expect("len checked"),
        _ => {
            let mut it = flat.into_iter();
            let first = it.next().expect("nonempty");
            it.fold(first, |acc, x| Term::app(f.clone(), [acc, x]))
        }
    }
}

/// Membership through add-chains:
/// `contains(add(s, e), x) → x = e ∨ contains(s, x)`.
fn rewrite_member(member: Func, adder: Func, args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    let [s, x] = two(args);
    match &s {
        Term::App(g, inner) if *g == adder => {
            let hit = rewrite_eq(vec![x.clone(), inner[1].clone()], oracle);
            let rest = rewrite_member(member, adder, vec![inner[0].clone(), x], oracle);
            rewrite_ac_bool(Func::Or, vec![hit, rest])
        }
        Term::Lit(v) => {
            if let Term::Lit(xl) = &x {
                let contained = match v {
                    Value::Set(set) => Some(set.contains(xl)),
                    Value::Multiset(ms) => Some(ms.contains(xl)),
                    _ => None,
                };
                if let Some(b) = contained {
                    return Term::bool(b);
                }
            }
            Term::app(member, [s, x])
        }
        _ => Term::app(member, [s, x]),
    }
}

/// Canonicalizes `MapPut` chains.
///
/// * Same key (decided by the oracle or syntactically): the inner put is
///   dead — `put(put(m, k, v1), k, v2) → put(m, k, v2)`.
/// * Provably distinct keys: adjacent puts are sorted by key term order
///   (sound because distinct-key puts commute).
fn rewrite_map_put(args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    let mut it = args.into_iter();
    let m = it.next().expect("map_put");
    let k = it.next().expect("map_put");
    let v = it.next().expect("map_put");
    if let Term::App(Func::MapPut, inner) = &m {
        let (m0, k0, v0) = (inner[0].clone(), inner[1].clone(), inner[2].clone());
        match decide_keys(&k0, &k, oracle) {
            Some(true) => {
                // Inner put is overwritten.
                return rewrite_map_put(vec![m0, k, v], oracle);
            }
            Some(false) if key_order(&k, &k0) == Ordering::Less => {
                let inner_new = rewrite_map_put(vec![m0, k, v], oracle);
                return Term::app(Func::MapPut, [inner_new, k0, v0]);
            }
            _ => {}
        }
    }
    // Literal folding: put into a literal map with literal key/value.
    if let (Term::Lit(Value::Map(map)), Term::Lit(kl), Term::Lit(vl)) = (&m, &k, &v) {
        let mut map = map.clone();
        map.insert(kl.clone(), vl.clone());
        return Term::Lit(Value::Map(map));
    }
    Term::app(Func::MapPut, [m, k, v])
}

fn decide_keys(a: &Term, b: &Term, oracle: &dyn EqOracle) -> Option<bool> {
    oracle.decide_eq(a, b).or_else(|| decide_eq_syntactic(a, b))
}

fn key_order(a: &Term, b: &Term) -> Ordering {
    a.cmp(b)
}

/// `get_or(put(m, k, v), k', d)` case-splits on the key equality; the
/// syntactic/oracle fast path avoids introducing an `Ite` when decidable.
fn rewrite_map_get_or(args: Vec<Term>, oracle: &dyn EqOracle) -> Term {
    let mut it = args.into_iter();
    let m = it.next().expect("map_get_or");
    let k = it.next().expect("map_get_or");
    let d = it.next().expect("map_get_or");
    if let Term::App(Func::MapPut, inner) = &m {
        let (m0, k0, v0) = (inner[0].clone(), inner[1].clone(), inner[2].clone());
        match decide_keys(&k, &k0, oracle) {
            Some(true) => return v0,
            Some(false) => return rewrite_map_get_or(vec![m0, k, d], oracle),
            None => {
                let cond = rewrite_eq(vec![k.clone(), k0], oracle);
                let rest = rewrite_map_get_or(vec![m0, k, d], oracle);
                return rewrite_ite(vec![cond, v0, rest], oracle);
            }
        }
    }
    if let (Term::Lit(Value::Map(map)), Term::Lit(kl)) = (&m, &k) {
        return match map.get(kl) {
            Some(v) => Term::Lit(v.clone()),
            None => d,
        };
    }
    Term::app(Func::MapGetOr, [m, k, d])
}

/// Linear integer arithmetic normalization.
mod linear {
    use super::*;

    /// A linear form: `constant + Σ coeff·atom` with canonically ordered
    /// atoms (atoms are arbitrary non-linear integer terms).
    #[derive(Debug, Default)]
    struct Linear {
        constant: i64,
        coeffs: BTreeMap<Term, i64>,
    }

    impl Linear {
        fn add_term(&mut self, t: &Term, scale: i64) {
            if scale == 0 {
                return;
            }
            match t {
                Term::Lit(Value::Int(n)) => {
                    self.constant = self.constant.saturating_add(n.saturating_mul(scale));
                }
                Term::App(Func::Add, args) => {
                    for a in args.iter() {
                        self.add_term(a, scale);
                    }
                }
                Term::App(Func::Sub, args) => {
                    self.add_term(&args[0], scale);
                    self.add_term(&args[1], -scale);
                }
                Term::App(Func::Neg, args) => self.add_term(&args[0], -scale),
                Term::App(Func::Mul, args) => {
                    match (&args[0], &args[1]) {
                        (Term::Lit(Value::Int(n)), other)
                        | (other, Term::Lit(Value::Int(n))) => {
                            self.add_term(other, scale.saturating_mul(*n));
                        }
                        _ => {
                            *self.coeffs.entry(t.clone()).or_insert(0) += scale;
                        }
                    }
                }
                atom => {
                    *self.coeffs.entry(atom.clone()).or_insert(0) += scale;
                }
            }
        }

        fn to_term(&self) -> Term {
            let mut parts: Vec<Term> = Vec::new();
            for (atom, coeff) in &self.coeffs {
                match *coeff {
                    0 => {}
                    1 => parts.push(atom.clone()),
                    c => parts.push(Term::app(Func::Mul, [Term::int(c), atom.clone()])),
                }
            }
            if parts.is_empty() {
                return Term::int(self.constant);
            }
            let mut acc = {
                let mut it = parts.into_iter();
                let first = it.next().expect("nonempty");
                it.fold(first, |acc, x| Term::app(Func::Add, [acc, x]))
            };
            if self.constant != 0 {
                acc = Term::app(Func::Add, [acc, Term::int(self.constant)]);
            }
            acc
        }
    }

    /// Normalizes an `Add`/`Sub`/`Neg`/`Mul` application into canonical
    /// linear form.
    pub(super) fn normalize_linear(f: Func, args: Vec<Term>) -> Term {
        let mut lin = Linear::default();
        lin.add_term(&Term::App(f, args.into()), 1);
        lin.to_term()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Env;

    fn norm(t: &Term) -> Term {
        normalize(t, &SyntacticOracle)
    }

    #[test]
    fn linear_commutes() {
        let lhs = Term::add(Term::add(Term::var("v"), Term::var("a")), Term::var("b"));
        let rhs = Term::add(Term::add(Term::var("v"), Term::var("b")), Term::var("a"));
        assert_eq!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn linear_cancels() {
        let t = Term::sub(
            Term::add(Term::var("x"), Term::int(3)),
            Term::add(Term::var("x"), Term::int(1)),
        );
        assert_eq!(norm(&t), Term::int(2));
    }

    #[test]
    fn eq_of_equal_linear_forms_is_true() {
        let lhs = Term::add(Term::var("x"), Term::int(1));
        let rhs = Term::add(Term::int(1), Term::var("x"));
        assert_eq!(norm(&Term::eq(lhs, rhs)), Term::tt());
    }

    #[test]
    fn dom_of_put_chain_is_canonical() {
        let m = Term::var("m");
        let put = |m, k: &str| Term::app(Func::MapPut, [m, Term::var(k), Term::var("val")]);
        let lhs = Term::app(Func::MapDom, [put(put(m.clone(), "k1"), "k2")]);
        let rhs = Term::app(Func::MapDom, [put(put(m, "k2"), "k1")]);
        assert_eq!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn multiset_view_of_append_chain_commutes() {
        let s = Term::var("s");
        let app = |s, x: &str| Term::app(Func::SeqAppend, [s, Term::var(x)]);
        let lhs = Term::app(Func::SeqToMultiset, [app(app(s.clone(), "a"), "b")]);
        let rhs = Term::app(Func::SeqToMultiset, [app(app(s, "b"), "a")]);
        assert_eq!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn sum_and_len_of_append_chain_commute() {
        let s = Term::var("s");
        let app = |s, x: &str| Term::app(Func::SeqAppend, [s, Term::var(x)]);
        for obs in [Func::SeqSum, Func::SeqLen] {
            let lhs = Term::app(obs.clone(), [app(app(s.clone(), "a"), "b")]);
            let rhs = Term::app(obs, [app(app(s.clone(), "b"), "a")]);
            assert_eq!(norm(&lhs), norm(&rhs));
        }
    }

    #[test]
    fn seq_itself_does_not_commute() {
        let s = Term::var("s");
        let app = |s, x: &str| Term::app(Func::SeqAppend, [s, Term::var(x)]);
        let lhs = app(app(s.clone(), "a"), "b");
        let rhs = app(app(s, "b"), "a");
        assert_ne!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn sorted_is_invariant_under_multiset_observers() {
        let s = Term::var("s");
        let sorted = Term::app(Func::SeqSorted, [s.clone()]);
        let lhs = Term::app(Func::SeqToMultiset, [sorted]);
        let rhs = Term::app(Func::SeqToMultiset, [s]);
        assert_eq!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn get_or_over_put_same_key_projects() {
        let t = Term::app(
            Func::MapGetOr,
            [
                Term::app(
                    Func::MapPut,
                    [Term::var("m"), Term::var("k"), Term::var("v")],
                ),
                Term::var("k"),
                Term::int(0),
            ],
        );
        assert_eq!(norm(&t), Term::var("v"));
    }

    #[test]
    fn get_or_over_put_unknown_key_splits() {
        let t = Term::app(
            Func::MapGetOr,
            [
                Term::app(
                    Func::MapPut,
                    [Term::var("m"), Term::var("k1"), Term::var("v")],
                ),
                Term::var("k2"),
                Term::int(0),
            ],
        );
        assert!(matches!(norm(&t), Term::App(Func::Ite, _)));
    }

    #[test]
    fn histogram_update_commutes_on_same_key() {
        // increment(increment(m, k), k) built both ways is syntactically the
        // same here; the interesting check is that the nested get_or chain
        // resolves.
        let m = Term::var("m");
        let inc = |m: Term, k: &Term| {
            Term::app(
                Func::MapPut,
                [
                    m.clone(),
                    k.clone(),
                    Term::add(
                        Term::app(Func::MapGetOr, [m, k.clone(), Term::int(0)]),
                        Term::int(1),
                    ),
                ],
            )
        };
        let k = Term::var("k");
        let t = inc(inc(m.clone(), &k), &k);
        let expect = Term::app(
            Func::MapPut,
            [
                m.clone(),
                k.clone(),
                Term::add(
                    Term::app(Func::MapGetOr, [m, k, Term::int(0)]),
                    Term::int(2),
                ),
            ],
        );
        assert_eq!(norm(&t), norm(&expect));
    }

    #[test]
    fn ite_same_branches_collapses() {
        let t = Term::ite(Term::var("c"), Term::var("x"), Term::var("x"));
        assert_eq!(norm(&t), Term::var("x"));
    }

    #[test]
    fn observers_distribute_over_ite() {
        // snd(ite(c, pair(a, s), pair(b, s))) → s
        let t = Term::snd(Term::ite(
            Term::var("c"),
            Term::pair(Term::var("a"), Term::var("s")),
            Term::pair(Term::var("b"), Term::var("s")),
        ));
        assert_eq!(norm(&t), Term::var("s"));
    }

    #[test]
    fn mean_expands_to_sum_and_len() {
        let s = Term::var("s");
        let app = |s, x: &str| Term::app(Func::SeqAppend, [s, Term::var(x)]);
        let lhs = Term::app(Func::SeqMean, [app(app(s.clone(), "a"), "b")]);
        let rhs = Term::app(Func::SeqMean, [app(app(s, "b"), "a")]);
        assert_eq!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn and_dedups_and_units() {
        let t = Term::and([Term::var("p"), Term::tt(), Term::var("p")]);
        assert_eq!(norm(&t), Term::var("p"));
        let t = Term::and([Term::var("p"), Term::ff()]);
        assert_eq!(norm(&t), Term::ff());
    }

    #[test]
    fn contradictory_conjunction_collapses() {
        let t = Term::and([Term::var("p"), Term::not(Term::var("p"))]);
        assert_eq!(norm(&t), Term::ff());
    }

    #[test]
    fn max_chain_is_ac() {
        let lhs = Term::app(
            Func::Max,
            [
                Term::app(Func::Max, [Term::var("g"), Term::var("p1")]),
                Term::var("p2"),
            ],
        );
        let rhs = Term::app(
            Func::Max,
            [
                Term::app(Func::Max, [Term::var("g"), Term::var("p2")]),
                Term::var("p1"),
            ],
        );
        assert_eq!(norm(&lhs), norm(&rhs));
    }

    #[test]
    fn normalization_preserves_ground_semantics() {
        // Evaluate a few non-trivial terms before and after normalization.
        let env: Env = [
            ("x".into(), Value::from(7)),
            ("y".into(), Value::from(-3)),
            (
                "s".into(),
                Value::seq([Value::from(1), Value::from(2), Value::from(2)]),
            ),
            (
                "m".into(),
                Value::map([(Value::from(1), Value::from(10))]),
            ),
        ]
        .into_iter()
        .collect();
        let terms = [
            Term::sub(Term::add(Term::var("x"), Term::var("y")), Term::var("y")),
            Term::app(
                Func::SeqToMultiset,
                [Term::app(Func::SeqAppend, [Term::var("s"), Term::var("x")])],
            ),
            Term::app(Func::SeqMean, [Term::var("s")]),
            Term::app(
                Func::MapGetOr,
                [
                    Term::app(
                        Func::MapPut,
                        [Term::var("m"), Term::int(2), Term::var("x")],
                    ),
                    Term::int(1),
                    Term::int(0),
                ],
            ),
            Term::app(
                Func::Max,
                [Term::var("x"), Term::app(Func::Max, [Term::var("y"), Term::int(5)])],
            ),
        ];
        for t in terms {
            let n = norm(&t);
            assert_eq!(
                t.eval(&env).unwrap(),
                n.eval(&env).unwrap(),
                "normalization changed semantics of {t:?} → {n:?}"
            );
        }
    }
}
