//! Verification reports with structured diagnostics.
//!
//! A [`VerifierReport`] lists every proof obligation the symbolic
//! execution generated, each carrying a stable
//! [`DiagnosticCode`], an optional [`SourceSpan`] (threaded from the
//! `commcsl-front` lowering), and — on failure — a [`Failure`] with the
//! reason and an optional falsifying [`Counterexample`].
//!
//! [`report_to_json`] and [`report_from_json`] are the report's one JSON
//! encoder and decoder, built on the workspace codec
//! [`commcsl_telemetry::json`]: the CLI's `--json` mode embeds the
//! encoding verbatim, the daemon protocol streams it, and the verdict
//! cache stores it. The obligation and status field helpers below are
//! shared with the daemon's `obligation_done` events and the
//! obligation-cache entries.

use std::fmt;

use commcsl_logic::validity::ValidityConfig;
use commcsl_smt::falsify::FalsifyConfig;
use commcsl_smt::{BackendKind, SolverConfig};

pub use crate::diag::{CexBinding, Counterexample, DiagnosticCode, Failure, SourceSpan};
pub use commcsl_analysis::lint::{Lint, LintCode, Severity};

use commcsl_analysis::diag::{failure_fields, failure_from_json, span_from_json};
use commcsl_analysis::lint::{lint_fields, lint_from_json};
use commcsl_analysis::program::{path_from_json, path_to_json};
use commcsl_telemetry::json::Json;

use crate::program::StmtPath;

/// Version of the report JSON shape emitted by
/// [`VerifierReport::to_json`] (and therefore by the CLI's `--json`
/// output and the daemon protocol). Bumped whenever a field is added,
/// removed, or reinterpreted, so machine consumers can detect documents
/// they do not understand. Independent of
/// [`HASH_FORMAT_VERSION`](crate::hash::HASH_FORMAT_VERSION) (the cache
/// address version), though a schema bump implies a hash bump — the
/// bytes change.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Configuration for the verifier.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Solver budgets for program obligations.
    pub solver: SolverConfig,
    /// Budgets for specification validity checking at `share` (including
    /// the validity checker's own backend choice).
    pub validity: ValidityConfig,
    /// Countermodel search budgets for failed obligations.
    pub falsify: FalsifyConfig,
    /// Which solver backend discharges program obligations. The symbolic
    /// execution opens one session per program and mirrors its path
    /// condition into solver scopes, so an incremental backend saturates
    /// each path fact once however many goals are checked against it.
    pub backend: BackendKind,
    /// Whether failed obligations hunt for a concrete falsifying
    /// assignment (surfaced as [`Counterexample`] in reports). Part of
    /// the content hash: toggling it changes report bytes.
    pub counterexamples: bool,
    /// Whether the static pre-pass may discharge obligations whose goal
    /// normalizes to `true` without consulting the solver. Verdicts are
    /// byte-identical either way (the pre-pass only claims goals the
    /// solver's own rewriter proves in its first saturation round), but
    /// the knob is still part of the content hash — cached timings and
    /// discharge counters are only comparable within one setting.
    pub static_prepass: bool,
    /// Whether falsified obligations delta-debug their path-fact cone
    /// down to a minimal falsifying environment (see
    /// [`crate::minimize`]). Off by default: minimization re-checks
    /// shrunk fact subsets through a scratch solver session, so it costs
    /// extra solver/falsifier work per failure. Part of the content hash;
    /// with the knob off, report bytes are identical to a build without
    /// the feature.
    pub minimize_counterexamples: bool,
    /// Whether proved obligations record their *proof core* — the subset
    /// of path facts the proof can have used (see
    /// [`commcsl_smt::assume`]) — and reports aggregate the cores into
    /// per-program unneeded-annotation hints. Off by default; part of the
    /// content hash; with the knob off, report bytes are identical to a
    /// build without the feature.
    pub proof_cores: bool,
}

impl VerifierConfig {
    /// The default configuration (incremental backend, counterexample
    /// search enabled).
    pub fn new() -> Self {
        VerifierConfig::default()
    }
}

// `Default` must enable counterexample search; deriving would pick `false`.
impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            solver: SolverConfig::default(),
            validity: ValidityConfig::default(),
            falsify: FalsifyConfig::default(),
            backend: BackendKind::default(),
            counterexamples: true,
            static_prepass: true,
            minimize_counterexamples: false,
            proof_cores: false,
        }
    }
}

/// The status of one proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObligationStatus {
    /// Proved by the solver.
    Proved,
    /// Could not be proved; carries the structured failure.
    Failed(Failure),
}

impl ObligationStatus {
    /// Convenience constructor for a reason-only failure.
    pub fn failed(reason: impl Into<String>) -> ObligationStatus {
        ObligationStatus::Failed(Failure::new(reason))
    }
}

/// One fact site contributing to an obligation's proof core: the
/// statement that asserted the fact, identified by its [`StmtPath`] and —
/// when the program came through the frontend — its source position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoreFact {
    /// Statement path of the asserting site.
    pub path: StmtPath,
    /// Source position of the asserting site, when known.
    pub span: Option<SourceSpan>,
}

/// One discharged (or failed) obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationResult {
    /// A human-readable description (e.g. `"pre of Put at worker 1"`).
    pub description: String,
    /// Stable machine-readable obligation kind.
    pub code: DiagnosticCode,
    /// Source position of the generating statement, when the program was
    /// compiled from `.csl` source.
    pub span: Option<SourceSpan>,
    /// The outcome.
    pub status: ObligationStatus,
    /// The proof core — fact sites the proof can have used, deduplicated
    /// by path and sorted. `Some` only for proved obligations of a run
    /// with [`VerifierConfig::proof_cores`] enabled, so reports with the
    /// knob off render byte-identically to builds without the field.
    pub core: Option<Vec<CoreFact>>,
}

impl ObligationResult {
    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match &self.status {
            ObligationStatus::Proved => None,
            ObligationStatus::Failed(failure) => Some(failure),
        }
    }
}

/// The result of verifying one annotated program.
#[derive(Debug, Clone)]
pub struct VerifierReport {
    /// Program name.
    pub program: String,
    /// Every obligation, in order of generation.
    pub obligations: Vec<ObligationResult>,
    /// Structural errors (guard misuse, malformed program) that prevent
    /// verification regardless of the solver.
    pub errors: Vec<String>,
    /// Lint-style notes aggregated from the proof cores: annotation sites
    /// whose facts no proved obligation needed (see
    /// [`LintCode::UnneededAnnotation`]). Empty — and absent from the
    /// JSON — unless [`VerifierConfig::proof_cores`] is enabled.
    pub hints: Vec<Lint>,
}

impl VerifierReport {
    /// `true` when the program verified: no structural errors and every
    /// obligation proved.
    pub fn verified(&self) -> bool {
        self.errors.is_empty()
            && self
                .obligations
                .iter()
                .all(|o| o.status == ObligationStatus::Proved)
    }

    /// The failed obligations.
    pub fn failures(&self) -> impl Iterator<Item = &ObligationResult> {
        self.obligations
            .iter()
            .filter(|o| o.status != ObligationStatus::Proved)
    }

    /// Number of obligations discharged.
    pub fn proved_count(&self) -> usize {
        self.obligations
            .iter()
            .filter(|o| o.status == ObligationStatus::Proved)
            .count()
    }

    /// Renders the report as one JSON object (no trailing newline); see
    /// [`report_to_json`] for the shape.
    pub fn to_json(&self) -> String {
        report_to_json(self).to_string()
    }
}

/// Encodes a report. Field order and spelling are part of the tool's
/// machine interface — the CLI's `--json` output, the daemon protocol
/// and the verdict cache all carry these bytes:
///
/// ```text
/// {"schema_version":1,"program":…,"verified":…,"proved":…,
///  "obligations":[{<obligation_fields>,"core":[{"path":[…],"span":…}]?},…],
///  "errors":[…],"hints":[{<lint_fields>},…]?}
/// ```
///
/// `core` appears only on obligations that tracked one, and `hints` only
/// when non-empty, so reports with the explanation knobs off are
/// byte-identical to builds without them.
pub fn report_to_json(report: &VerifierReport) -> Json {
    let obligations = report
        .obligations
        .iter()
        .map(|o| {
            let mut fields = obligation_fields(o);
            if let Some(core) = &o.core {
                let facts = core
                    .iter()
                    .map(|f| {
                        let mut fact = vec![("path".to_owned(), path_to_json(&f.path))];
                        if let Some(span) = f.span {
                            fact.push(("span".to_owned(), Json::str(span.to_string())));
                        }
                        Json::Obj(fact)
                    })
                    .collect();
                fields.push(("core".to_owned(), Json::Arr(facts)));
            }
            Json::Obj(fields)
        })
        .collect();
    let mut fields = vec![
        (
            "schema_version".to_owned(),
            Json::Num(f64::from(REPORT_SCHEMA_VERSION)),
        ),
        ("program".to_owned(), Json::str(&report.program)),
        ("verified".to_owned(), Json::Bool(report.verified())),
        ("proved".to_owned(), Json::Num(report.proved_count() as f64)),
        ("obligations".to_owned(), Json::Arr(obligations)),
        (
            "errors".to_owned(),
            Json::Arr(report.errors.iter().map(Json::str).collect()),
        ),
    ];
    if !report.hints.is_empty() {
        let hints = report
            .hints
            .iter()
            .map(|h| Json::Obj(lint_fields(h)))
            .collect();
        fields.push(("hints".to_owned(), Json::Arr(hints)));
    }
    Json::Obj(fields)
}

/// Decodes a [`report_to_json`] document. The derived fields (`verified`,
/// `proved`) are recomputed, so decoding then re-encoding reproduces the
/// original bytes.
pub fn report_from_json(doc: &Json) -> Result<VerifierReport, String> {
    if let Some(schema) = doc.get("schema_version") {
        let schema = schema.as_u64().ok_or("`schema_version` must be a number")?;
        if schema != u64::from(REPORT_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported report schema v{schema} (this build reads v{REPORT_SCHEMA_VERSION})"
            ));
        }
    }
    let array = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("report needs `{key}`"))
    };
    let obligations = array("obligations")?
        .iter()
        .map(|o| {
            let core = o
                .get("core")
                .map(|core| {
                    core.as_arr()
                        .ok_or("`core` must be an array")?
                        .iter()
                        .map(|f| {
                            Ok(CoreFact {
                                path: path_from_json(
                                    f.get("path").ok_or("core fact needs `path`")?,
                                )?,
                                span: span_from_json(f)?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
                .transpose()?;
            Ok(ObligationResult {
                core,
                ..obligation_from_json(o)?
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let errors = array("errors")?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "errors must be strings".to_owned())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let hints = match doc.get("hints") {
        None => Vec::new(),
        Some(hints) => hints
            .as_arr()
            .ok_or("`hints` must be an array")?
            .iter()
            .map(lint_from_json)
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(VerifierReport {
        program: doc
            .get("program")
            .and_then(Json::as_str)
            .ok_or("report needs `program`")?
            .to_owned(),
        obligations,
        errors,
        hints,
    })
}

/// Encodes an obligation's fields: `description`, `code`, `span` (when
/// known), then its [`status_fields`]. Report obligations append their
/// `core`; the daemon's `obligation_done` events wrap these fields in
/// their own framing.
pub fn obligation_fields(o: &ObligationResult) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("description".to_owned(), Json::str(&o.description)),
        ("code".to_owned(), Json::str(o.code.as_str())),
    ];
    if let Some(span) = o.span {
        fields.push(("span".to_owned(), Json::str(span.to_string())));
    }
    fields.extend(status_fields(&o.status));
    fields
}

/// Decodes the fields [`obligation_fields`] writes (`core` is left
/// `None`).
pub fn obligation_from_json(doc: &Json) -> Result<ObligationResult, String> {
    Ok(ObligationResult {
        description: doc
            .get("description")
            .and_then(Json::as_str)
            .ok_or("obligation needs `description`")?
            .to_owned(),
        code: doc
            .get("code")
            .and_then(Json::as_str)
            .ok_or("obligation needs `code`")?
            .parse::<DiagnosticCode>()?,
        span: span_from_json(doc)?,
        status: status_from_json(doc)?,
        core: None,
    })
}

/// Encodes a status: `proved`, then the [`failure_fields`] of a failure.
/// Obligation-cache entries store exactly these fields.
pub fn status_fields(status: &ObligationStatus) -> Vec<(String, Json)> {
    let mut fields = vec![(
        "proved".to_owned(),
        Json::Bool(*status == ObligationStatus::Proved),
    )];
    if let ObligationStatus::Failed(failure) = status {
        fields.extend(failure_fields(failure));
    }
    fields
}

/// Decodes the fields [`status_fields`] writes.
pub fn status_from_json(doc: &Json) -> Result<ObligationStatus, String> {
    match doc.get("proved").and_then(Json::as_bool) {
        Some(true) => Ok(ObligationStatus::Proved),
        Some(false) => Ok(ObligationStatus::Failed(failure_from_json(doc)?)),
        None => Err("obligation needs `proved`".into()),
    }
}

impl fmt::Display for VerifierReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {}: {}/{} obligations proved",
            if self.verified() { "OK" } else { "FAIL" },
            self.program,
            self.proved_count(),
            self.obligations.len()
        )?;
        for e in &self.errors {
            writeln!(f, "  error: {e}")?;
        }
        for o in self.failures() {
            if let ObligationStatus::Failed(failure) = &o.status {
                let at = o
                    .span
                    .map(|s| format!(" at {s}"))
                    .unwrap_or_default();
                writeln!(
                    f,
                    "  failed [{}]{at}: {} — {}",
                    o.code, o.description, failure.reason
                )?;
                if let Some(cex) = &failure.counterexample {
                    for b in &cex.bindings {
                        if b.exec1 == b.exec2 {
                            writeln!(f, "    where {} = {}", b.var, b.exec1)?;
                        } else {
                            writeln!(
                                f,
                                "    where {} = {} vs {}",
                                b.var, b.exec1, b.exec2
                            )?;
                        }
                    }
                }
            }
        }
        for hint in &self.hints {
            writeln!(f, "  {hint}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proved(description: &str) -> ObligationResult {
        ObligationResult {
            description: description.into(),
            code: DiagnosticCode::LowOutput,
            span: None,
            status: ObligationStatus::Proved,
            core: None,
        }
    }

    #[test]
    fn verified_requires_all_proved_and_no_errors() {
        let mut r = VerifierReport {
            program: "p".into(),
            obligations: vec![proved("d")],
            errors: vec![],
            hints: vec![],
        };
        assert!(r.verified());
        r.errors.push("structural".into());
        assert!(!r.verified());
        r.errors.clear();
        r.obligations.push(ObligationResult {
            description: "bad".into(),
            code: DiagnosticCode::ActionPre,
            span: Some(SourceSpan::new(3, 1)),
            status: ObligationStatus::failed("nope"),
            core: None,
        });
        assert!(!r.verified());
        assert_eq!(r.failures().count(), 1);
        let shown = r.to_string();
        assert!(shown.contains("FAIL"));
        assert!(shown.contains("bad"));
        assert!(shown.contains("[action-pre]"));
        assert!(shown.contains("at 3:1"));
    }

    /// A report with every optional field: spans, a proof core, a
    /// counterexample, an error and a hint.
    fn full_report() -> VerifierReport {
        VerifierReport {
            program: "p \"q\"".into(),
            obligations: vec![
                ObligationResult {
                    description: "pre of `Put`".into(),
                    code: DiagnosticCode::ActionPre,
                    span: Some(SourceSpan::new(7, 5)),
                    status: ObligationStatus::Proved,
                    core: Some(vec![
                        CoreFact {
                            path: vec![],
                            span: None,
                        },
                        CoreFact {
                            path: vec![3, 1],
                            span: Some(SourceSpan::new(4, 2)),
                        },
                    ]),
                },
                ObligationResult {
                    description: "Low(out)".into(),
                    code: DiagnosticCode::LowOutput,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new("countermodel").with_counterexample(Counterexample {
                            bindings: vec![CexBinding {
                                var: "h".into(),
                                exec1: "0".into(),
                                exec2: "1".into(),
                            }],
                        }),
                    ),
                    core: None,
                },
            ],
            errors: vec!["guard\nmisuse".into()],
            hints: vec![Lint {
                code: LintCode::UnneededAnnotation,
                severity: Severity::Note,
                path: vec![4],
                span: Some(SourceSpan::new(9, 1)),
                message: "unneeded".into(),
            }],
        }
    }

    #[test]
    fn report_json_has_pinned_bytes_and_roundtrips() {
        let report = full_report();
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"schema_version\":1,\"program\":\"p \\\"q\\\"\",\"verified\":false,\"proved\":1,\
             \"obligations\":[{\"description\":\"pre of `Put`\",\"code\":\"action-pre\",\
             \"span\":\"7:5\",\"proved\":true,\"core\":[{\"path\":[]},{\"path\":[3,1],\"span\":\"4:2\"}]},\
             {\"description\":\"Low(out)\",\"code\":\"low-output\",\"proved\":false,\
             \"reason\":\"countermodel\",\"counterexample\":[{\"var\":\"h\",\"exec1\":\"0\",\"exec2\":\"1\"}]}],\
             \"errors\":[\"guard\\nmisuse\"],\"hints\":[{\"code\":\"unneeded-annotation\",\
             \"severity\":\"note\",\"span\":\"9:1\",\"path\":[4],\"message\":\"unneeded\"}]}"
        );
        let back = report_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.obligations, report.obligations);
        assert_eq!(back.errors, report.errors);
        assert_eq!(back.hints, report.hints);
        assert_eq!(back.to_json(), json);
        // A report from a newer schema is refused, not misread.
        let newer = json.replace("\"schema_version\":1", "\"schema_version\":2");
        assert!(report_from_json(&Json::parse(&newer).unwrap()).is_err());
    }

    #[test]
    fn report_parse_back_roundtrips_exhaustive_control_chars() {
        // Every C0 control character, plus quote/backslash runs, in every
        // string position of a report: `to_json` must parse back to an
        // identical report (the cache's byte-identical guarantee depends
        // on this codec being lossless).
        let mut nasty = String::from("q\" b\\ run\\\\ ");
        nasty.extend((0u32..0x20).map(|c| char::from_u32(c).unwrap()));
        let report = VerifierReport {
            program: nasty.clone(),
            obligations: vec![ObligationResult {
                description: nasty.clone(),
                code: DiagnosticCode::LowAssert,
                span: Some(SourceSpan::new(1, 999)),
                status: ObligationStatus::Failed(
                    Failure::new(nasty.clone()).with_counterexample(Counterexample {
                        bindings: vec![CexBinding {
                            var: nasty.clone(),
                            exec1: nasty.clone(),
                            exec2: nasty.clone(),
                        }],
                    }),
                ),
                core: None,
            }],
            errors: vec![nasty.clone()],
            hints: vec![],
        };
        let parsed = Json::parse(&report.to_json()).unwrap();
        let recovered = report_from_json(&parsed).unwrap();
        assert_eq!(recovered.program, report.program);
        assert_eq!(recovered.errors, report.errors);
        assert_eq!(recovered.obligations.len(), 1);
        assert_eq!(recovered.obligations[0].description, nasty);
        assert_eq!(recovered.obligations, report.obligations);
        assert_eq!(recovered.to_json(), report.to_json());
    }

    #[test]
    fn report_json_with_nasty_program_names_stays_balanced() {
        for name in [
            "quotes \"inside\" the name",
            "back\\slash \\\" combo",
            "newline\nand\ttab and \u{0}null",
            "trailing backslash \\",
        ] {
            let r = VerifierReport {
                program: name.into(),
                obligations: vec![ObligationResult {
                    description: format!("pre of {name}"),
                    code: DiagnosticCode::ActionPre,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new(format!("why: {name}")).with_counterexample(
                            Counterexample {
                                bindings: vec![CexBinding {
                                    var: name.into(),
                                    exec1: "Int(0)".into(),
                                    exec2: name.into(),
                                }],
                            },
                        ),
                    ),
                    core: None,
                }],
                errors: vec![name.into()],
                hints: vec![],
            };
            let json = r.to_json();
            // No raw control characters or unescaped quotes survive.
            assert!(json.chars().all(|c| (c as u32) >= 0x20), "{json}");
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(
                    json.matches(open).count(),
                    json.matches(close).count(),
                    "{json}"
                );
            }
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let r = VerifierReport {
            program: "p \"q\"".into(),
            obligations: vec![
                ObligationResult {
                    description: "pre of Put".into(),
                    code: DiagnosticCode::ActionPre,
                    span: Some(SourceSpan::new(7, 5)),
                    status: ObligationStatus::Proved,
                    core: None,
                },
                ObligationResult {
                    description: "Low(output)".into(),
                    code: DiagnosticCode::LowOutput,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new("countermodel").with_counterexample(Counterexample {
                            bindings: vec![CexBinding {
                                var: "h".into(),
                                exec1: "Int(0)".into(),
                                exec2: "Int(1)".into(),
                            }],
                        }),
                    ),
                    core: None,
                },
            ],
            errors: vec!["guard misuse".into()],
            hints: vec![],
        };
        let json = r.to_json();
        assert!(json.starts_with(&format!(
            "{{\"schema_version\":{REPORT_SCHEMA_VERSION},\"program\":\"p \\\"q\\\"\""
        )));
        assert!(json.contains("\"verified\":false"));
        assert!(json.contains("\"proved\":1"));
        assert!(json.contains("\"code\":\"action-pre\""));
        assert!(json.contains("\"span\":\"7:5\""));
        assert!(json.contains("\"reason\":\"countermodel\""));
        assert!(json.contains(
            "\"counterexample\":[{\"var\":\"h\",\"exec1\":\"Int(0)\",\"exec2\":\"Int(1)\"}]"
        ));
        assert!(json.contains("\"errors\":[\"guard misuse\"]"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count()
            );
        }
    }
}
