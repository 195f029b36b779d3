//! Resource specifications `⟨α, f_as, F_au⟩` (paper, Sec. 3.2, Fig. 4).
//!
//! A resource specification declares, independently of any client program:
//!
//! * the pure type of the shared data,
//! * an **abstraction function** `α` selecting the information that must
//!   (and may) become public,
//! * a set of **actions** — total functions from (value, argument) to
//!   value — split into *shared* (performable by many threads, must
//!   self-commute) and *unique* (performable by one thread, need not), and
//! * per action a **relational precondition** over argument pairs that
//!   suffices to keep `α` low (e.g. `Low(key)` for the map example).
//!
//! Everything is given as symbolic [`Term`]s over conventional variable
//! names ([`ResourceSpec::VALUE_VAR`], [`ActionDef::ARG_VAR`], …), so a
//! specification can be *executed* (by evaluation) and *proved about* (by
//! the solver) with the same definition. The constructors at the bottom
//! build the specification library used by the paper's evaluation suite.

use commcsl_pure::term::Env;
use commcsl_pure::{Func, PureResult, Sort, Symbol, Term, Value};

/// Whether an action may be performed by many threads or only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Performable by any thread holding a fraction of the guard; must
    /// commute with itself (modulo α).
    Shared,
    /// Performable by a single thread (unsplittable guard); need not
    /// commute with itself (paper, Sec. 2.7).
    Unique,
}

/// One action of a resource specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDef {
    /// The action's name (guard index).
    pub name: Symbol,
    /// Shared or unique.
    pub kind: ActionKind,
    /// Sort of the action argument.
    pub arg_sort: Sort,
    /// The transition function body, a term over
    /// [`ResourceSpec::VALUE_VAR`] (`v`) and [`ActionDef::ARG_VAR`]
    /// (`arg`). Must be total on the value sort.
    pub body: Term,
    /// The relational precondition, a term over [`ActionDef::ARG1_VAR`] and
    /// [`ActionDef::ARG2_VAR`] (the argument in the two executions);
    /// `arg1 = arg2` encodes `Low(arg)`.
    pub pre: Term,
}

impl ActionDef {
    /// Variable naming the action argument in [`ActionDef::body`].
    pub const ARG_VAR: &'static str = "arg";
    /// First-execution argument in [`ActionDef::pre`].
    pub const ARG1_VAR: &'static str = "arg1";
    /// Second-execution argument in [`ActionDef::pre`].
    pub const ARG2_VAR: &'static str = "arg2";

    /// Creates a shared action.
    pub fn shared(name: impl Into<Symbol>, arg_sort: Sort, body: Term, pre: Term) -> Self {
        ActionDef {
            name: name.into(),
            kind: ActionKind::Shared,
            arg_sort,
            body,
            pre,
        }
    }

    /// Creates a unique action.
    pub fn unique(name: impl Into<Symbol>, arg_sort: Sort, body: Term, pre: Term) -> Self {
        ActionDef {
            name: name.into(),
            kind: ActionKind::Unique,
            arg_sort,
            body,
            pre,
        }
    }

    /// Instantiates the body with symbolic value/argument terms.
    pub fn apply_term(&self, value: &Term, arg: &Term) -> Term {
        self.body.subst_with(&|x| match x.as_str() {
            ResourceSpec::VALUE_VAR => Some(value.clone()),
            Self::ARG_VAR => Some(arg.clone()),
            _ => None,
        })
    }

    /// Executes the action on concrete values.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors — which the validity checker treats as
    /// a totality violation of the specification.
    pub fn apply(&self, value: &Value, arg: &Value) -> PureResult<Value> {
        let env: Env = [
            (Symbol::new(ResourceSpec::VALUE_VAR), value.clone()),
            (Symbol::new(Self::ARG_VAR), arg.clone()),
        ]
        .into_iter()
        .collect();
        self.body.eval(&env)
    }

    /// Instantiates the relational precondition with symbolic arguments.
    pub fn pre_term(&self, arg1: &Term, arg2: &Term) -> Term {
        self.pre.subst_with(&|x| match x.as_str() {
            Self::ARG1_VAR => Some(arg1.clone()),
            Self::ARG2_VAR => Some(arg2.clone()),
            _ => None,
        })
    }

    /// Evaluates the relational precondition on concrete argument pairs.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn pre_holds(&self, arg1: &Value, arg2: &Value) -> PureResult<bool> {
        let env: Env = [
            (Symbol::new(Self::ARG1_VAR), arg1.clone()),
            (Symbol::new(Self::ARG2_VAR), arg2.clone()),
        ]
        .into_iter()
        .collect();
        self.pre.eval(&env)?.as_bool()
    }
}

/// A full resource specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSpec {
    /// Name for reports.
    pub name: Symbol,
    /// Sort of the resource value.
    pub value_sort: Sort,
    /// The abstraction function, a term over [`ResourceSpec::VALUE_VAR`].
    pub alpha: Term,
    /// The actions. The paper's formalization merges all shared actions
    /// into one (Sec. 3.2); like HyperViper we keep them separate, and the
    /// validity check quantifies over all relevant pairs.
    pub actions: Vec<ActionDef>,
}

impl ResourceSpec {
    /// Variable naming the resource value in `alpha` and action bodies.
    pub const VALUE_VAR: &'static str = "v";

    /// Creates a specification.
    pub fn new(
        name: impl Into<Symbol>,
        value_sort: Sort,
        alpha: Term,
        actions: impl IntoIterator<Item = ActionDef>,
    ) -> Self {
        ResourceSpec {
            name: name.into(),
            value_sort,
            alpha,
            actions: actions.into_iter().collect(),
        }
    }

    /// Looks up an action by name.
    pub fn action(&self, name: &str) -> Option<&ActionDef> {
        self.actions.iter().find(|a| a.name.as_str() == name)
    }

    /// All shared actions.
    pub fn shared_actions(&self) -> impl Iterator<Item = &ActionDef> {
        self.actions
            .iter()
            .filter(|a| a.kind == ActionKind::Shared)
    }

    /// All unique actions.
    pub fn unique_actions(&self) -> impl Iterator<Item = &ActionDef> {
        self.actions
            .iter()
            .filter(|a| a.kind == ActionKind::Unique)
    }

    /// Instantiates `α` with a symbolic value term.
    pub fn alpha_term(&self, value: &Term) -> Term {
        self.alpha
            .subst_with(&|x| (x.as_str() == Self::VALUE_VAR).then(|| value.clone()))
    }

    /// Evaluates `α` on a concrete value.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn alpha_of(&self, value: &Value) -> PureResult<Value> {
        let env: Env = [(Symbol::new(Self::VALUE_VAR), value.clone())]
            .into_iter()
            .collect();
        self.alpha.eval(&env)
    }

    // ----------------------------------------------------------------------
    // Specification library (the paper's Fig. 4 and evaluation suite).
    // ----------------------------------------------------------------------

    /// Fig. 4 (left): a map with shared `Put`, abstracted to its key set;
    /// the precondition requires the key (not the value) to be low.
    pub fn keyset_map() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let put = ActionDef::shared(
            "Put",
            Sort::pair(Sort::Int, Sort::Int),
            Term::app(
                Func::MapPut,
                [v.clone(), Term::fst(arg.clone()), Term::snd(arg)],
            ),
            // pre: Low(key): fst(arg1) = fst(arg2).
            Term::eq(
                Term::fst(Term::var(ActionDef::ARG1_VAR)),
                Term::fst(Term::var(ActionDef::ARG2_VAR)),
            ),
        );
        ResourceSpec::new(
            "MK-keyset-map",
            Sort::map(Sort::Int, Sort::Int),
            Term::app(Func::MapDom, [v]),
            [put],
        )
    }

    /// A shared counter with an `Add` action and identity abstraction
    /// (Fig. 2 / Count-Vaccinated / Count-Sick-Days). The precondition
    /// requires the added amount to be low.
    pub fn counter_add() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let add = ActionDef::shared(
            "Add",
            Sort::Int,
            Term::add(v.clone(), arg),
            Term::eq(
                Term::var(ActionDef::ARG1_VAR),
                Term::var(ActionDef::ARG2_VAR),
            ),
        );
        ResourceSpec::new("counter-add", Sort::Int, v, [add])
    }

    /// Fig. 1 with the *constant* abstraction: arbitrary assignments to the
    /// shared integer are allowed because nothing about it is exposed.
    pub fn opaque_int() -> Self {
        let arg = Term::var(ActionDef::ARG_VAR);
        let set = ActionDef::shared("Set", Sort::Int, arg, Term::tt());
        ResourceSpec::new("opaque-int", Sort::Int, Term::int(0), [set])
    }

    /// A list with shared `Append`, abstracted by `abstraction(v)`.
    /// Used with the multiset view (Email-Metadata), length
    /// (Patient-Statistic), sum (Debt-Sum), and the (sum, length) pair
    /// (Mean-Salary).
    fn list_append(name: &str, alpha: Term, pre: Term) -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let append = ActionDef::shared(
            "Append",
            Sort::Int,
            Term::app(Func::SeqAppend, [v, arg]),
            pre,
        );
        ResourceSpec::new(name, Sort::seq(Sort::Int), alpha, [append])
    }

    /// List abstracted to its multiset view (Email-Metadata: the sorted
    /// list may be leaked).
    pub fn list_multiset() -> Self {
        let low_arg = Term::eq(
            Term::var(ActionDef::ARG1_VAR),
            Term::var(ActionDef::ARG2_VAR),
        );
        Self::list_append(
            "list-multiset",
            Term::app(Func::SeqToMultiset, [Term::var(Self::VALUE_VAR)]),
            low_arg,
        )
    }

    /// List abstracted to its length (Patient-Statistic: only the count is
    /// leaked, elements may be secret — precondition `true`).
    pub fn list_length() -> Self {
        Self::list_append(
            "list-length",
            Term::app(Func::SeqLen, [Term::var(Self::VALUE_VAR)]),
            Term::tt(),
        )
    }

    /// List abstracted to its sum (Debt-Sum: the total is leaked, the
    /// individual amounts require low-ness... of the amounts themselves,
    /// since the sum is a function of them).
    pub fn list_sum() -> Self {
        let low_arg = Term::eq(
            Term::var(ActionDef::ARG1_VAR),
            Term::var(ActionDef::ARG2_VAR),
        );
        Self::list_append(
            "list-sum",
            Term::app(Func::SeqSum, [Term::var(Self::VALUE_VAR)]),
            low_arg,
        )
    }

    /// List abstracted to the pair (sum, length) — the *mean* is a function
    /// of this abstraction (Mean-Salary).
    ///
    /// Note: abstracting to the literal mean `sum div len` is **invalid**
    /// (means can agree while sums and lengths differ, and appending then
    /// separates them); `ResourceSpec::list_mean_literal` builds that
    /// variant so the validity checker can demonstrate the rejection.
    pub fn list_mean() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let low_arg = Term::eq(
            Term::var(ActionDef::ARG1_VAR),
            Term::var(ActionDef::ARG2_VAR),
        );
        Self::list_append(
            "list-mean",
            Term::pair(
                Term::app(Func::SeqSum, [v.clone()]),
                Term::app(Func::SeqLen, [v]),
            ),
            low_arg,
        )
    }

    /// The *invalid* literal-mean abstraction (see [`ResourceSpec::list_mean`]).
    pub fn list_mean_literal() -> Self {
        let low_arg = Term::eq(
            Term::var(ActionDef::ARG1_VAR),
            Term::var(ActionDef::ARG2_VAR),
        );
        Self::list_append(
            "list-mean-literal",
            Term::app(Func::SeqMean, [Term::var(Self::VALUE_VAR)]),
            low_arg,
        )
    }

    /// A set with shared `Insert` and identity abstraction
    /// (Sick-Employee-Names on a tree set, Website-Visitor-IPs on a list
    /// set — the same spec serves both implementations, Sec. 5).
    pub fn set_insert() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let insert = ActionDef::shared(
            "Insert",
            Sort::Int,
            Term::app(Func::SetAdd, [v.clone(), arg]),
            Term::eq(
                Term::var(ActionDef::ARG1_VAR),
                Term::var(ActionDef::ARG2_VAR),
            ),
        );
        ResourceSpec::new("set-insert", Sort::set(Sort::Int), v, [insert])
    }

    /// A histogram map: `IncBucket(k)` increments the count stored at key
    /// `k` (Salary-Histogram). Identity abstraction; increments commute.
    pub fn histogram() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let inc = ActionDef::shared(
            "IncBucket",
            Sort::Int,
            Term::app(
                Func::MapPut,
                [
                    v.clone(),
                    arg.clone(),
                    Term::add(
                        Term::app(Func::MapGetOr, [v.clone(), arg, Term::int(0)]),
                        Term::int(1),
                    ),
                ],
            ),
            Term::eq(
                Term::var(ActionDef::ARG1_VAR),
                Term::var(ActionDef::ARG2_VAR),
            ),
        );
        ResourceSpec::new("salary-histogram", Sort::map(Sort::Int, Sort::Int), v, [inc])
    }

    /// Count-Purchases: `AddAt((k, n))` adds `n` to the value at key `k`.
    pub fn map_add_value() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let key = Term::fst(arg.clone());
        let amount = Term::snd(arg);
        let add_at = ActionDef::shared(
            "AddAt",
            Sort::pair(Sort::Int, Sort::Int),
            Term::app(
                Func::MapPut,
                [
                    v.clone(),
                    key.clone(),
                    Term::add(
                        Term::app(Func::MapGetOr, [v.clone(), key, Term::int(0)]),
                        amount,
                    ),
                ],
            ),
            Term::eq(
                Term::var(ActionDef::ARG1_VAR),
                Term::var(ActionDef::ARG2_VAR),
            ),
        );
        ResourceSpec::new(
            "count-purchases",
            Sort::map(Sort::Int, Sort::Int),
            v,
            [add_at],
        )
    }

    /// Most-Valuable-Purchase: `MaxAt((k, p))` keeps the maximum price per
    /// user (conditional put = put-of-max).
    pub fn map_max_value() -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let key = Term::fst(arg.clone());
        let price = Term::snd(arg);
        let max_at = ActionDef::shared(
            "MaxAt",
            Sort::pair(Sort::Int, Sort::Int),
            Term::app(
                Func::MapPut,
                [
                    v.clone(),
                    key.clone(),
                    Term::app(
                        Func::Max,
                        [
                            Term::app(Func::MapGetOr, [v.clone(), key, Term::int(0)]),
                            price,
                        ],
                    ),
                ],
            ),
            Term::eq(
                Term::var(ActionDef::ARG1_VAR),
                Term::var(ActionDef::ARG2_VAR),
            ),
        );
        ResourceSpec::new(
            "most-valuable-purchase",
            Sort::map(Sort::Int, Sort::Int),
            v,
            [max_at],
        )
    }

    /// Fig. 4 (right) / Sales-By-Region: `n` *unique* put actions over
    /// disjoint key ranges, identity abstraction. Thread `i` may only put
    /// keys `k` with `k mod n = i` (a concrete disjoint-range scheme), and
    /// both key and value must be low.
    pub fn disjoint_put_map(n: usize) -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let mut actions = Vec::new();
        for i in 0..n {
            let arg = Term::var(ActionDef::ARG_VAR);
            let key = Term::fst(arg.clone());
            let body = Term::app(
                Func::MapPut,
                [v.clone(), key.clone(), Term::snd(arg)],
            );
            let in_range = |a: &Term| {
                Term::eq(
                    Term::app(Func::Mod, [Term::fst(a.clone()), Term::int(n as i64)]),
                    Term::int(i as i64),
                )
            };
            let arg1 = Term::var(ActionDef::ARG1_VAR);
            let arg2 = Term::var(ActionDef::ARG2_VAR);
            let pre = Term::and([
                Term::eq(arg1.clone(), arg2.clone()), // Low(key) ∧ Low(val)
                in_range(&arg1),
                in_range(&arg2),
            ]);
            actions.push(ActionDef::unique(
                format!("Put{i}"),
                Sort::pair(Sort::Int, Sort::Int),
                body,
                pre,
            ));
        }
        ResourceSpec::new(
            "sales-by-region",
            Sort::map(Sort::Int, Sort::Int),
            v,
            actions,
        )
    }

    /// The producer-consumer queue of Fig. 12: the value is a pair of
    /// `Either[negative-debt, buffer]` and the sequence of produced items;
    /// `Prod` appends (totalized over the debt states), `Cons` pops
    /// (totalized by going negative); the abstraction is the multiset view
    /// of the produced sequence. `shared_roles` selects whether `Prod` and
    /// `Cons` are shared (2-producers-2-consumers) or unique (1-1).
    pub fn producer_consumer(shared_roles: bool) -> Self {
        let v = Term::var(Self::VALUE_VAR);
        let arg = Term::var(ActionDef::ARG_VAR);
        let buffer = Term::fst(v.clone());
        let produced = Term::snd(v.clone());

        // Prod: if buffer = Right(xs) → Right(xs ++ [a]);
        //       if buffer = Left(-1) → Right([]);
        //       if buffer = Left(-(n+1)) → Left(-n). Produced always grows.
        let debt = Term::app(Func::FromLeft, [buffer.clone()]);
        let prod_buffer = Term::ite(
            Term::app(Func::IsLeft, [buffer.clone()]),
            Term::ite(
                Term::eq(debt.clone(), Term::int(-1)),
                Term::app(Func::MkRight, [Term::Lit(Value::seq_empty())]),
                Term::app(Func::MkLeft, [Term::add(debt.clone(), Term::int(1))]),
            ),
            Term::app(
                Func::MkRight,
                [Term::app(
                    Func::SeqAppend,
                    [Term::app(Func::FromRight, [buffer.clone()]), arg.clone()],
                )],
            ),
        );
        let prod_body = Term::pair(
            prod_buffer,
            Term::app(Func::SeqAppend, [produced.clone(), arg]),
        );
        let low_arg = Term::eq(
            Term::var(ActionDef::ARG1_VAR),
            Term::var(ActionDef::ARG2_VAR),
        );

        // Cons: Right(x :: xs) → Right(xs); Right([]) → Left(-1);
        //       Left(-n) → Left(-(n+1)). Takes a unit argument.
        let contents = Term::app(Func::FromRight, [buffer.clone()]);
        let cons_buffer = Term::ite(
            Term::app(Func::IsLeft, [buffer.clone()]),
            Term::app(Func::MkLeft, [Term::sub(debt, Term::int(1))]),
            Term::ite(
                Term::eq(Term::app(Func::SeqLen, [contents.clone()]), Term::int(0)),
                Term::app(Func::MkLeft, [Term::int(-1)]),
                // Drop the head: keep indices 1..; we model it as the
                // sorted-free "rest" via a fold — the buffer is a FIFO so
                // we take the suffix. There is no SeqDrop primitive, so we
                // encode pop as: rest of xs = indices 1.. collected by
                // concat — instead, we track the buffer as (start index,
                // produced) implicitly: pop = increment of consumed count.
                Term::app(Func::MkRight, [Term::app(
                    Func::SeqTail,
                    [contents],
                )]),
            ),
        );
        let cons_body = Term::pair(cons_buffer, produced);

        let kind = if shared_roles {
            ActionKind::Shared
        } else {
            ActionKind::Unique
        };
        let mk = |name: &str, arg_sort: Sort, body: Term, pre: Term| ActionDef {
            name: name.into(),
            kind,
            arg_sort,
            body,
            pre,
        };
        // With shared roles (many producers), the production order is
        // schedule-dependent, so only the *multiset* of produced items is
        // low. With unique roles (single producer), the order is fixed and
        // the full produced *sequence* may be the abstraction — from which
        // the consumed sequence is derived (Table 1's "consumed sequence").
        let alpha = if shared_roles {
            Term::app(Func::SeqToMultiset, [Term::snd(v)])
        } else {
            Term::snd(v)
        };
        ResourceSpec::new(
            if shared_roles {
                "producer-consumer-2x2"
            } else {
                "producer-consumer-1x1"
            },
            Sort::pair(
                Sort::either(Sort::Int, Sort::seq(Sort::Int)),
                Sort::seq(Sort::Int),
            ),
            alpha,
            [
                mk("Prod", Sort::Int, prod_body, low_arg),
                mk("Cons", Sort::Unit, cons_body, Term::tt()),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyset_map_put_executes() {
        let spec = ResourceSpec::keyset_map();
        let put = spec.action("Put").unwrap();
        let m = Value::map_empty();
        let m2 = put
            .apply(&m, &Value::pair(Value::Int(1), Value::Int(9)))
            .unwrap();
        assert_eq!(m2.map_get(&Value::Int(1)).unwrap(), Value::Int(9));
        assert_eq!(
            spec.alpha_of(&m2).unwrap(),
            Value::set([Value::Int(1)])
        );
    }

    #[test]
    fn keyset_map_pre_checks_key_only() {
        let spec = ResourceSpec::keyset_map();
        let put = spec.action("Put").unwrap();
        let a1 = Value::pair(Value::Int(1), Value::Int(10));
        let a2 = Value::pair(Value::Int(1), Value::Int(99));
        let a3 = Value::pair(Value::Int(2), Value::Int(10));
        assert!(put.pre_holds(&a1, &a2).unwrap());
        assert!(!put.pre_holds(&a1, &a3).unwrap());
    }

    #[test]
    fn counter_add_is_plain_addition() {
        let spec = ResourceSpec::counter_add();
        let add = spec.action("Add").unwrap();
        assert_eq!(
            add.apply(&Value::Int(10), &Value::Int(5)).unwrap(),
            Value::Int(15)
        );
        assert_eq!(spec.alpha_of(&Value::Int(3)).unwrap(), Value::Int(3));
    }

    #[test]
    fn histogram_increments_bucket() {
        let spec = ResourceSpec::histogram();
        let inc = spec.action("IncBucket").unwrap();
        let m = inc.apply(&Value::map_empty(), &Value::Int(4)).unwrap();
        let m = inc.apply(&m, &Value::Int(4)).unwrap();
        assert_eq!(m.map_get(&Value::Int(4)).unwrap(), Value::Int(2));
    }

    #[test]
    fn disjoint_put_ranges_are_disjoint() {
        let spec = ResourceSpec::disjoint_put_map(2);
        let p0 = spec.action("Put0").unwrap();
        let even = Value::pair(Value::Int(4), Value::Int(1));
        let odd = Value::pair(Value::Int(3), Value::Int(1));
        assert!(p0.pre_holds(&even, &even).unwrap());
        assert!(!p0.pre_holds(&odd, &odd).unwrap());
        assert_eq!(p0.kind, ActionKind::Unique);
    }

    #[test]
    fn producer_consumer_totalized_transitions() {
        let spec = ResourceSpec::producer_consumer(true);
        let prod = spec.action("Prod").unwrap();
        let cons = spec.action("Cons").unwrap();
        let empty = Value::pair(
            Value::right(Value::seq_empty()),
            Value::seq_empty(),
        );
        // Cons on empty buffer goes to debt -1.
        let v1 = cons.apply(&empty, &Value::Unit).unwrap();
        assert_eq!(v1.as_pair().unwrap().0, &Value::left(Value::Int(-1)));
        // Prod on debt -1 restores the empty buffer and records the item.
        let v2 = prod.apply(&v1, &Value::Int(7)).unwrap();
        assert_eq!(v2.as_pair().unwrap().0, &Value::right(Value::seq_empty()));
        assert_eq!(
            spec.alpha_of(&v2).unwrap(),
            Value::multiset([Value::Int(7)])
        );
        // Ordinary produce-then-consume.
        let v3 = prod.apply(&empty, &Value::Int(1)).unwrap();
        let v4 = cons.apply(&v3, &Value::Unit).unwrap();
        assert_eq!(v4.as_pair().unwrap().0, &Value::right(Value::seq_empty()));
    }
}
