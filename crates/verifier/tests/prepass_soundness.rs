//! Differential soundness harness for the static low-ness pre-pass
//! (satellite of the `commcsl-analysis` tentpole).
//!
//! The pre-pass claims some obligations without consulting the solver
//! (`ObligationVerdict::StaticallyProven`). Soundness means every such
//! claim is one the solver would also have proved. We pin that
//! *differentially*: for random annotated programs, a run with the
//! pre-pass enabled and a run with it disabled must produce
//! **byte-identical** report JSON — which in particular forces every
//! statically-proven obligation to carry the same `proved: true` the
//! solver-only run computed for it.
//!
//! The generator is deliberately close to the frontend round-trip
//! generator (`crates/front/tests/roundtrip.rs`) so the two harnesses
//! explore the same program space, but it does not need the surface-form
//! restrictions (nothing here is pretty-printed).

use commcsl_logic::spec::{ActionDef, ActionKind, ResourceSpec};
use commcsl_pure::{Func, Sort, Term};
use commcsl_verifier::program::{AnnotatedProgram, VStmt};
use commcsl_verifier::report::VerifierConfig;
use commcsl_verifier::Verifier;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------- generator

fn gen_int_term(rng: &mut StdRng, vars: &[&str], depth: u32) -> Term {
    let leaf = depth == 0 || rng.gen_range(0..3) == 0;
    if leaf {
        if !vars.is_empty() && rng.gen_range(0..2) == 0 {
            Term::var(vars[rng.gen_range(0..vars.len())])
        } else {
            Term::int(rng.gen_range(-4i64..5))
        }
    } else {
        let a = gen_int_term(rng, vars, depth - 1);
        let b = gen_int_term(rng, vars, depth - 1);
        match rng.gen_range(0..4) {
            0 => Term::add(a, b),
            1 => Term::sub(a, b),
            2 => Term::mul(a, b),
            _ => Term::app(Func::Max, [a, b]),
        }
    }
}

fn gen_bool_term(rng: &mut StdRng, vars: &[&str], depth: u32) -> Term {
    match rng.gen_range(0..6) {
        0 => Term::tt(),
        1 if depth > 0 => Term::not(gen_bool_term(rng, vars, depth - 1)),
        2 if depth > 0 => Term::and([
            gen_bool_term(rng, vars, depth - 1),
            gen_bool_term(rng, vars, depth - 1),
        ]),
        3 if depth > 0 => Term::or([
            gen_bool_term(rng, vars, depth - 1),
            gen_bool_term(rng, vars, depth - 1),
        ]),
        4 => Term::le(
            gen_int_term(rng, vars, depth.saturating_sub(1)),
            gen_int_term(rng, vars, depth.saturating_sub(1)),
        ),
        _ => Term::eq(
            gen_int_term(rng, vars, depth.saturating_sub(1)),
            gen_int_term(rng, vars, depth.saturating_sub(1)),
        ),
    }
}

fn gen_spec(rng: &mut StdRng, index: usize) -> ResourceSpec {
    let n_actions = rng.gen_range(1..3usize);
    let actions: Vec<ActionDef> = (0..n_actions)
        .map(|i| ActionDef {
            name: format!("A{i}").into(),
            kind: if rng.gen_range(0..2) == 0 {
                ActionKind::Shared
            } else {
                ActionKind::Unique
            },
            arg_sort: Sort::Int,
            body: gen_int_term(rng, &["v", "arg"], 2),
            // Bias toward preconditions the pre-pass can discharge
            // (`true`, syntactic `e == e`) so the differential actually
            // exercises the static route, while keeping solver-only
            // shapes in the mix.
            pre: match rng.gen_range(0..4) {
                0 => Term::tt(),
                1 => {
                    let e = gen_int_term(rng, &["arg1", "arg2"], 1);
                    Term::eq(e.clone(), e)
                }
                _ => gen_bool_term(rng, &["arg1", "arg2"], 2),
            },
        })
        .collect();
    ResourceSpec::new(
        format!("spec-{index}"),
        Sort::Int,
        gen_int_term(rng, &["v"], 2),
        actions,
    )
}

fn gen_stmts(rng: &mut StdRng, specs: &[ResourceSpec], depth: u32) -> Vec<VStmt> {
    let n = rng.gen_range(1..4usize);
    (0..n).map(|_| gen_stmt(rng, specs, depth)).collect()
}

fn gen_stmt(rng: &mut StdRng, specs: &[ResourceSpec], depth: u32) -> VStmt {
    let vars = ["x", "y", "z"];
    let var = vars[rng.gen_range(0..vars.len())];
    let resource = rng.gen_range(0..specs.len());
    let action = {
        let actions = &specs[resource].actions;
        actions[rng.gen_range(0..actions.len())].name.clone()
    };
    let max = if depth == 0 { 9 } else { 13 };
    match rng.gen_range(0..max) {
        0 => VStmt::Input {
            var: var.into(),
            sort: Sort::Int,
            low: rng.gen_range(0..2) == 0,
        },
        1 => VStmt::assign(var, gen_int_term(rng, &vars, 2)),
        2 => VStmt::Share {
            resource,
            init: gen_int_term(rng, &[], 1),
        },
        3 => VStmt::atomic(resource, action, gen_int_term(rng, &vars, 1)),
        4 => VStmt::AtomicDeferred {
            resource,
            action,
            arg: gen_int_term(rng, &vars, 1),
        },
        5 => VStmt::Unshare {
            resource,
            into: var.into(),
        },
        6 => VStmt::Output(gen_int_term(rng, &vars, 2)),
        // Outputs of syntactically low shapes: prime static-discharge
        // candidates (`Low(c)` for literal c, `Low(e - e)`, …).
        7 => VStmt::Output(Term::int(rng.gen_range(-4i64..5))),
        8 => {
            let e = gen_int_term(rng, &vars, 1);
            VStmt::Output(Term::sub(e.clone(), e))
        }
        9 => VStmt::If {
            cond: gen_bool_term(rng, &vars, 1),
            then_b: gen_stmts(rng, specs, depth - 1),
            else_b: if rng.gen_range(0..2) == 0 {
                Vec::new()
            } else {
                gen_stmts(rng, specs, depth - 1)
            },
        },
        10 => VStmt::for_range(
            var,
            gen_int_term(rng, &vars, 1),
            gen_int_term(rng, &vars, 1),
            gen_stmts(rng, specs, depth - 1),
        ),
        11 => VStmt::Par {
            workers: (0..rng.gen_range(1..3usize))
                .map(|_| gen_stmts(rng, specs, depth - 1))
                .collect(),
        },
        _ => VStmt::AtomicBatch {
            resource,
            action,
            arg: gen_int_term(rng, &vars, 1),
            count: gen_int_term(rng, &vars, 1),
        },
    }
}

fn gen_program(seed: u64) -> AnnotatedProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_resources = rng.gen_range(1..3usize);
    let resources: Vec<ResourceSpec> =
        (0..n_resources).map(|i| gen_spec(&mut rng, i)).collect();
    let body = gen_stmts(&mut rng, &resources, 2);
    AnnotatedProgram {
        name: format!("prepass-{seed}"),
        resources,
        body,
        spans: Default::default(),
    }
}

// ---------------------------------------------------------- differential

fn configs() -> (VerifierConfig, VerifierConfig) {
    let on = VerifierConfig::default();
    assert!(on.static_prepass, "the pre-pass is on by default");
    let off = VerifierConfig {
        static_prepass: false,
        ..VerifierConfig::default()
    };
    (on, off)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any obligation the analysis claims statically proven must also be
    /// solver-proven: reports with and without the pre-pass are
    /// byte-identical, so a static claim that the solver would refute
    /// would surface as differing `proved` flags.
    #[test]
    fn static_claims_agree_with_the_solver(seed in 0u64..1_000_000_000) {
        let program = gen_program(seed);
        let (on, off) = configs();
        let run = |config| {
            let outcome = Verifier::new().with_config(config).with_threads(1).verify(&program);
            (outcome.report, outcome.stats.expect("uncached runs report discharge stats"))
        };
        let (report_on, stats_on) = run(on);
        let (report_off, stats_off) = run(off);

        prop_assert_eq!(
            report_on.to_json(),
            report_off.to_json(),
            "reports diverge with the static pre-pass on (seed {})",
            seed
        );

        // The solver-only run claims nothing statically.
        prop_assert_eq!(stats_off.statically_proven, 0);
        // Both runs settle every obligation exactly once.
        prop_assert_eq!(
            stats_on.statically_proven + stats_on.checked,
            stats_off.checked
        );
        // Every static claim is a *proved* obligation (the pre-pass can
        // never statically "refute"), so the proved count bounds it.
        let proved = report_on
            .obligations
            .iter()
            .filter(|o| matches!(o.status, commcsl_verifier::ObligationStatus::Proved))
            .count();
        prop_assert!(
            stats_on.statically_proven <= proved,
            "{} static claims but only {} proved obligations",
            stats_on.statically_proven,
            proved
        );
    }
}
