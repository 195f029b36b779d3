//! Seeded generator of annotated programs with known verdicts.
//!
//! Every program has the Table 1 worker-loop shape: a low size `n`, one
//! shared resource, `workers` parallel loops over slices of `0..n` that
//! each read a low and a high input per iteration and perform `puts`
//! actions, an `unshare`, and `outputs` outputs over the unshared value.
//! The families vary the resource specification (counter/add, list
//! append under the mean, multiset and length abstractions, the key-set
//! map, and the 1-producer-1-consumer queue, whose two workers are the
//! producer and the consumer); scaling `puts`, `workers` and `outputs`
//! grows the obligation count from the Table 1 handful to thousands.
//!
//! A rejected variant applies one known leaking mutation to a valid
//! program, so its verdict is known by construction:
//!
//! * [`Mutation::HighOutput`] outputs a `high` input;
//! * [`Mutation::FineAbstraction`] replaces the abstraction by the
//!   identity, under which the actions no longer commute;
//! * [`Mutation::ValueLeak`] (key-set map only) outputs a map value
//!   instead of the key set.

use commcsl::logic::spec::{ActionDef, ResourceSpec};
use commcsl::pure::{Func, Sort, Term, Value};
use commcsl::verifier::{AnnotatedProgram, VStmt};

/// A small deterministic PRNG (splitmix64): the same seed always yields
/// the same stream, on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// A program family: which Table 1 resource specification it shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Counter with `Add` and the identity abstraction (Count-Vaccinated).
    Counter,
    /// List append abstracted to (sum, length) (Mean-Salary).
    ListMean,
    /// List append abstracted to its multiset (Email-Metadata).
    ListMultiset,
    /// List append abstracted to its length (Patient-Statistic).
    ListLength,
    /// Map put abstracted to its key set (Figure 3).
    KeysetMap,
    /// Producer/consumer queue abstracted to the consumed sequence
    /// (1-Producer-1-Consumer): one producing and one consuming worker.
    Queue,
}

impl Family {
    /// Every family, in a fixed order.
    pub const ALL: [Family; 6] = [
        Family::Counter,
        Family::ListMean,
        Family::ListMultiset,
        Family::ListLength,
        Family::KeysetMap,
        Family::Queue,
    ];

    /// A short name used in program and file names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Counter => "counter",
            Family::ListMean => "list-mean",
            Family::ListMultiset => "list-multiset",
            Family::ListLength => "list-length",
            Family::KeysetMap => "keyset-map",
            Family::Queue => "queue",
        }
    }

    fn spec(self) -> ResourceSpec {
        match self {
            Family::Counter => ResourceSpec::counter_add(),
            Family::ListMean => ResourceSpec::list_mean(),
            Family::ListMultiset => ResourceSpec::list_multiset(),
            Family::ListLength => ResourceSpec::list_length(),
            Family::KeysetMap => ResourceSpec::keyset_map(),
            Family::Queue => ResourceSpec::producer_consumer(false),
        }
    }

    fn init(self) -> Term {
        match self {
            Family::Counter => Term::int(0),
            Family::KeysetMap => Term::Lit(Value::map_empty()),
            // Empty buffer, nothing produced (the Figure 12 initial value).
            Family::Queue => Term::pair(
                Term::app(Func::MkRight, [Term::Lit(Value::seq_empty())]),
                Term::Lit(Value::seq_empty()),
            ),
            _ => Term::Lit(Value::seq_empty()),
        }
    }

    /// The action name and its argument for the `j`-th put of an
    /// iteration, over the iteration's low input `a` and high input `h`.
    fn action(self, c: i64) -> (&'static str, Term) {
        let a = || Term::add(Term::var("a"), Term::int(c));
        match self {
            Family::Counter => ("Add", a()),
            Family::ListMean | Family::ListMultiset => ("Append", a()),
            Family::Queue => ("Prod", a()),
            // The length abstraction admits high elements.
            Family::ListLength => ("Append", Term::add(Term::var("h"), Term::int(c))),
            Family::KeysetMap => ("Put", Term::pair(a(), Term::var("h"))),
        }
    }

    /// The `j`-th output over the unshared value `m`: a composite
    /// aggregate in the style of `commcsl_bench::audit_goal`, low because
    /// it is a function of the abstraction. Even outputs are the plain
    /// Table 1 output, odd ones the composite report.
    fn output(self, j: usize, c: i64) -> Term {
        let m = || Term::var("m");
        let int = Term::int;
        let app = |f: Func, args: Vec<Term>| Term::app(f, args);
        let report = |a: Term, b: Term, k: Term| {
            // (a * b) div (c + 1) + (a + k) mod (b + c + 2)
            Term::add(
                app(Func::Div, vec![Term::mul(a.clone(), b.clone()), int(c + 1)]),
                app(Func::Mod, vec![Term::add(a, k), Term::add(b, int(c + 2))]),
            )
        };
        let plain = j.is_multiple_of(2);
        match self {
            Family::Counter if plain => Term::add(m(), int(c)),
            Family::Counter => report(m(), app(Func::Max, vec![m(), int(c)]), m()),
            Family::ListMean if plain => Term::add(app(Func::SeqMean, vec![m()]), int(c)),
            Family::ListMean => report(
                app(Func::SeqMean, vec![m()]),
                app(Func::SeqLen, vec![m()]),
                app(Func::SeqSum, vec![m()]),
            ),
            Family::ListMultiset if plain => app(Func::SeqSorted, vec![m()]),
            Family::ListMultiset => {
                let sorted = || app(Func::SeqSorted, vec![m()]);
                report(
                    app(Func::SeqSum, vec![app(Func::SeqTail, vec![sorted()])]),
                    app(Func::SeqLen, vec![sorted()]),
                    app(Func::SeqHeadOr, vec![sorted(), int(c)]),
                )
            }
            Family::ListLength if plain => Term::add(app(Func::SeqLen, vec![m()]), int(c)),
            Family::ListLength => {
                let len = || app(Func::SeqLen, vec![m()]);
                report(len(), Term::mul(len(), int(c)), len())
            }
            Family::KeysetMap if plain => app(
                Func::SetCard,
                vec![app(
                    Func::SetAdd,
                    vec![app(Func::MapDom, vec![m()]), int(c)],
                )],
            ),
            Family::KeysetMap => commcsl_bench::audit_goal(c),
            Family::Queue if plain => Term::add(app(Func::SeqLen, vec![Term::snd(m())]), int(c)),
            Family::Queue => {
                let consumed = || Term::snd(m());
                report(
                    app(Func::SeqSum, vec![consumed()]),
                    app(Func::SeqLen, vec![consumed()]),
                    app(Func::SeqHeadOr, vec![consumed(), int(c)]),
                )
            }
        }
    }
}

/// A known leaking mutation that makes a program rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// An extra output of a `high` input.
    HighOutput,
    /// The identity abstraction in place of the family's: the actions no
    /// longer commute on the abstract value, so the spec is invalid.
    FineAbstraction,
    /// A map value is output instead of the key set (key-set map only).
    ValueLeak,
}

impl Mutation {
    /// A short name used in program and file names.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::HighOutput => "high-output",
            Mutation::FineAbstraction => "fine-abstraction",
            Mutation::ValueLeak => "value-leak",
        }
    }
}

/// The shape of one generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Resource specification family.
    pub family: Family,
    /// Actions per loop iteration in each worker.
    pub puts: usize,
    /// Parallel workers.
    pub workers: usize,
    /// Outputs over the unshared value.
    pub outputs: usize,
    /// Whether every third report statement is an `assert low(..)`
    /// instead of an output.
    pub asserts: bool,
    /// The leaking mutation, for a rejected variant.
    pub mutation: Option<Mutation>,
    /// Seeds the constants inside actions and outputs.
    pub salt: u64,
}

impl Shape {
    /// `true` when the verifier must accept the program.
    pub fn expected_verified(&self) -> bool {
        self.mutation.is_none()
    }

    /// The program name: family, sizes, mutation and salt.
    pub fn name(&self) -> String {
        let mut name = format!(
            "{}-{}p{}w{}o-{:04x}",
            self.family.name(),
            self.puts,
            self.workers,
            self.outputs,
            self.salt & 0xffff
        );
        if let Some(m) = self.mutation {
            name.push('-');
            name.push_str(m.name());
        }
        name
    }

    /// Builds the annotated program.
    pub fn build(&self) -> AnnotatedProgram {
        let mut rng = Rng::new(self.salt);
        let mut constant = || rng.range(1, 97) as i64;
        let family = self.family;
        let mut spec = family.spec();
        if self.mutation == Some(Mutation::FineAbstraction) {
            spec.name = format!("{}-identity", spec.name).into();
            spec.alpha = Term::var(ResourceSpec::VALUE_VAR);
            if family == Family::Counter {
                // `Add` commutes even under the identity; assignments do not.
                spec.actions = vec![ActionDef::shared(
                    "Add",
                    Sort::Int,
                    Term::var(ActionDef::ARG_VAR),
                    Term::eq(
                        Term::var(ActionDef::ARG1_VAR),
                        Term::var(ActionDef::ARG2_VAR),
                    ),
                )];
            }
        }
        let puts: Vec<(&str, Term)> = (0..self.puts).map(|_| family.action(constant())).collect();
        let n = || Term::var("n");
        let bound = |k: usize| match k {
            0 => Term::int(0),
            k if k == self.workers => n(),
            k => Term::app(
                Func::Div,
                [
                    Term::mul(n(), Term::int(k as i64)),
                    Term::int(self.workers as i64),
                ],
            ),
        };
        let workers = if family == Family::Queue {
            // Unique roles: one producer and one consumer over `0..n`.
            let consume = (0..self.puts).map(|_| VStmt::atomic(0, "Cons", Term::Lit(Value::Unit)));
            let mut produce = vec![
                VStmt::input("a", Sort::Int, true),
                VStmt::input("h", Sort::Int, false),
            ];
            produce.extend(
                puts.iter()
                    .map(|(action, arg)| VStmt::atomic(0, *action, arg.clone())),
            );
            vec![
                vec![VStmt::for_range("i", Term::int(0), n(), produce)],
                vec![VStmt::for_range("i", Term::int(0), n(), consume)],
            ]
        } else {
            (0..self.workers)
                .map(|k| {
                    let mut body = vec![
                        VStmt::input("a", Sort::Int, true),
                        VStmt::input("h", Sort::Int, false),
                    ];
                    body.extend(
                        puts.iter()
                            .map(|(action, arg)| VStmt::atomic(0, *action, arg.clone())),
                    );
                    vec![VStmt::for_range("i", bound(k), bound(k + 1), body)]
                })
                .collect()
        };
        let mut body = vec![
            VStmt::input("n", Sort::Int, true),
            VStmt::input("secret", Sort::Int, false),
            VStmt::Share {
                resource: 0,
                init: family.init(),
            },
            VStmt::Par { workers },
            VStmt::Unshare {
                resource: 0,
                into: "m".into(),
            },
        ];
        let leak_at = self.outputs / 2;
        for j in 0..self.outputs {
            if j == leak_at {
                match self.mutation {
                    Some(Mutation::HighOutput) => body.push(self.leak_stmt(j, constant())),
                    Some(Mutation::ValueLeak) => body.push(VStmt::Output(Term::app(
                        Func::MapGetOr,
                        [Term::var("m"), Term::int(constant()), Term::int(0)],
                    ))),
                    _ => {}
                }
            }
            body.push(self.report_stmt(j, constant()));
        }
        AnnotatedProgram::new(self.name())
            .with_resource(spec)
            .with_body(body)
    }

    /// The `j`-th report statement after the `unshare`: an output (or,
    /// with [`Shape::asserts`], every third one an `assert low`) of a
    /// function of the abstraction, so it verifies for any constant.
    pub fn report_stmt(&self, j: usize, c: i64) -> VStmt {
        let term = self.family.output(j, c);
        if self.asserts && j % 3 == 2 {
            VStmt::AssertLow(term)
        } else {
            VStmt::Output(term)
        }
    }

    /// The leaking counterpart of [`Shape::report_stmt`]: the same kind
    /// of statement over the `high` input `secret`.
    pub fn leak_stmt(&self, j: usize, c: i64) -> VStmt {
        let term = Term::add(Term::var("secret"), Term::int(c));
        if self.asserts && j % 3 == 2 {
            VStmt::AssertLow(term)
        } else {
            VStmt::Output(term)
        }
    }
}

/// One top-level report statement as `commcsl_front::pretty` prints it
/// (one line, no newline).
pub fn stmt_line(stmt: &VStmt) -> String {
    use commcsl::front::pretty::pretty_term;
    match stmt {
        VStmt::Output(t) => format!("output {};", pretty_term(t)),
        VStmt::AssertLow(t) => format!("assert low({});", pretty_term(t)),
        other => panic!("not a report statement: {other:?}"),
    }
}

/// One generated input: its shape, the `.csl` text, and the file name.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The program's shape (and so its expected verdict).
    pub shape: Shape,
    /// The `.csl` source, printed by `commcsl_front::pretty`.
    pub source: String,
}

impl Generated {
    /// Builds and prints `shape`.
    pub fn new(shape: Shape) -> Generated {
        let source = commcsl::front::pretty::pretty(&shape.build());
        Generated { shape, source }
    }

    /// The file name the input is written under.
    pub fn file_name(&self) -> String {
        format!("{}.csl", self.shape.name())
    }
}

/// The rejected mutations that apply to `family`.
fn mutations(family: Family) -> &'static [Mutation] {
    match family {
        Family::KeysetMap => &[
            Mutation::HighOutput,
            Mutation::FineAbstraction,
            Mutation::ValueLeak,
        ],
        _ => &[Mutation::HighOutput, Mutation::FineAbstraction],
    }
}

/// The `turn`-th program, sized in stratum `stratum` of `count` strata
/// spread log-uniformly over the scale range `[lo, hi]` (multiples of the
/// Table 1 shape's one put and one output). Family, worker count (2-4;
/// the queue always has its producer and consumer) and mutation take
/// turns, so consecutive programs cycle through the families and every
/// sixth program is a rejected variant; `rng` picks the scale within the
/// stratum and the constants.
pub fn stratified(
    turn: usize,
    stratum: usize,
    count: usize,
    (lo, hi): (f64, f64),
    rng: &mut Rng,
) -> Generated {
    let families = Family::ALL.len();
    let scale = lo * (hi / lo).powf((stratum as f64 + rng.unit()) / count as f64);
    let family = Family::ALL[turn % families];
    let workers = if family == Family::Queue {
        2
    } else {
        2 + (turn / families) % 3
    };
    // Outputs take half the scale, the action sites the rest, weighted
    // by the family's per-obligation cost.
    let cost = if family == Family::KeysetMap {
        0.5
    } else {
        1.0
    };
    let outputs = ((scale * 0.5 * cost).round() as usize).max(1);
    let puts = ((scale * 0.5 * cost / workers as f64).round() as usize).max(1);
    let mutation = (turn % families == (turn / families) % families).then(|| {
        let choices = mutations(family);
        choices[(turn / families / families) % choices.len()]
    });
    Generated::new(Shape {
        family,
        puts,
        workers,
        outputs,
        asserts: false,
        mutation,
        salt: rng.next_u64(),
    })
}

/// `i` with its bits reversed within `0..count` (a power of two): walking
/// `i` upwards visits the strata so that every prefix spans the range.
pub fn bit_reversed(i: usize, count: usize) -> usize {
    debug_assert!(count.is_power_of_two());
    (i % count).reverse_bits() >> (usize::BITS - count.trailing_zeros())
}

/// The `cold-gen` draw, in run order: `count` (a power of two)
/// [`stratified`] programs whose strata are visited in bit-reversed
/// order, so whatever prefix a run gets through spans the whole size
/// range and every family.
pub fn cold_gen(seed: u64, count: usize, lo: f64, hi: f64) -> Vec<Generated> {
    let mut rng = Rng::new(seed ^ 0xc01d_9e11);
    (0..count)
        .map(|i| stratified(i, bit_reversed(i, count), count, (lo, hi), &mut rng))
        .collect()
}
