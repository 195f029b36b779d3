//! The traced run: an in-process pass over a workload's generated
//! inputs that calls each layer's public functions directly, on the
//! calling thread, and records a span around every call.
//!
//! Spans are recorded by this file, not by the program: each carries a
//! name, start, end and parent, is kept in memory, and is written out as
//! a Chrome trace at the end. A span's self time is its duration minus
//! its children's. Because every call runs on the calling thread, no
//! span's self time is time spent waiting on another thread.
//!
//! The same pass runs with recording off (the untraced baseline) and on,
//! alternately; the difference is `trace.overhead_frac`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use commcsl::analysis::lowness::analyze_lowness;
use commcsl::analysis::prepass::goal_statically_valid;
use commcsl::front::{lower, parser};
use commcsl::logic::validity::check_validity;
use commcsl::lsp::{read_frame, write_frame, LspServer};
use commcsl::pure::rewrite::{normalize, SyntacticOracle};
use commcsl::pure::{Sort, Symbol, Term};
use commcsl::server::json::Json;
use commcsl::server::protocol::{report_from_json, report_to_json, Request};
use commcsl::smt::falsify::find_counterexample;
use commcsl::smt::Verdict;
use commcsl::verifier::cache::{
    decode_obligation_entry, decode_verdict_entry, encode_obligation_entry, encode_verdict_entry,
};
use commcsl::verifier::{
    minimize_counterexample, obligation_graph, program_hash, solver_trace, AnnotatedProgram,
    ObligationGraph, ProgramHash, SolverEvent, VStmt, VerifierConfig, VerifierReport, Workspace,
    WorkspaceConfig,
};

/// `cold-gen`: programs the traced pass covers (a prefix of the
/// bit-reversed stratified draw, so it spans the size range).
pub const COLD_ITEMS: usize = 20;
/// `edit-lsp`: script steps the traced pass covers.
pub const LSP_ITEMS: usize = 80;
/// `daemon-mix`: requests of the first client the traced pass covers.
pub const DAEMON_ITEMS: usize = 1000;
/// Untraced/traced pass pairs behind `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 2;
/// Inputs of each workload that also go through the routes its path does
/// not take (so every layer is measured on every workload).
const ROUTE_SAMPLE: usize = 2;

/// The spans whose self time feeds a reported per-layer metric. Every
/// other span (`smt.replay`, the replay loop around the solver calls) is
/// left out of `trace.attributed_frac`.
const LAYER_SPANS: [&str; 19] = [
    "analysis.lowness",
    "analysis.prepass",
    "front.lower",
    "front.parse",
    "logic.validity",
    "lsp.handle",
    "lsp.rpc_frame",
    "pure.normalize",
    "server.json_decode",
    "server.json_encode",
    "smt.assert",
    "smt.check",
    "smt.falsify",
    "verifier.cache_codec",
    "verifier.obligation_graph",
    "verifier.program_hash",
    "verifier.report_json",
    "verifier.solver_trace",
    "verifier.workspace_update",
];

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// An in-memory span recorder. When off, [`Tracer::span`] only calls
/// through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.epoch.elapsed();
        result
    }

    /// Per span name: total self time and count.
    fn by_name(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let spans = self.spans.borrow();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.0 += (span.end - span.start).saturating_sub(child_time[i]);
            entry.1 += 1;
        }
        out
    }

    /// Writes the spans as a Chrome trace-event JSON document.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("]}");
        fs::write(path, out)
    }
}

/// Counts gathered at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    checks: usize,
    unknown: usize,
    falsified: usize,
    prepass_discharged: usize,
    validity_checks: usize,
    obligations: usize,
    parsed_bytes: usize,
    reused: usize,
    reuse_total: usize,
    trace_time: Duration,
    replay_time: Duration,
    lsp_handles: Vec<Duration>,
    mismatches: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut xs: Vec<Duration>) -> Duration {
    if xs.is_empty() {
        return Duration::ZERO;
    }
    xs.sort();
    xs[xs.len() / 2]
}

/// The configuration of `commcsl verify` and the daemon.
fn verifier_config() -> VerifierConfig {
    VerifierConfig::default()
}

/// The configuration of `commcsl lsp` (minimize and hints on).
fn lsp_config() -> WorkspaceConfig {
    WorkspaceConfig {
        verifier: VerifierConfig {
            minimize_counterexamples: true,
            proof_cores: true,
            ..VerifierConfig::default()
        },
        ..WorkspaceConfig::default()
    }
}

/// Sorts of the fresh variables the symbolic execution names with a known
/// sort, by name hint: the inputs, the loop counter `iter`, and the
/// `<into>_final` value of each `unshare`. The verifier mints every other
/// variable without a sort, and so never falsifies a goal that has one.
fn known_sorts(program: &AnnotatedProgram) -> BTreeMap<String, Sort> {
    fn walk(body: &[VStmt], program: &AnnotatedProgram, out: &mut BTreeMap<String, Sort>) {
        for stmt in body {
            match stmt {
                VStmt::Input { var, sort, .. } => {
                    out.insert(var.as_str().to_owned(), sort.clone());
                }
                VStmt::Unshare { resource, into } => {
                    if let Some(spec) = program.resources.get(*resource) {
                        out.insert(format!("{into}_final"), spec.value_sort.clone());
                    }
                }
                VStmt::If { then_b, else_b, .. } => {
                    walk(then_b, program, out);
                    walk(else_b, program, out);
                }
                VStmt::For { body, .. } => walk(body, program, out),
                VStmt::Par { workers } => workers.iter().for_each(|w| walk(w, program, out)),
                _ => {}
            }
        }
    }
    let mut out = BTreeMap::from([("iter".to_owned(), Sort::Int)]);
    walk(&program.body, program, &mut out);
    out
}

/// Sorts for the free variables of a failed check's facts and goal, which
/// the symbolic execution names `ν<n>_<hint>` (`@1`/`@2` per execution);
/// `None` when one has no known sort (the verifier skips the search then).
fn falsify_sorts(
    facts: &[Term],
    goal: &Term,
    known: &BTreeMap<String, Sort>,
) -> Option<BTreeMap<Symbol, Sort>> {
    let mut sorts = BTreeMap::new();
    for term in facts.iter().chain([goal]) {
        for v in term.free_vars() {
            let base = v.as_str().split('@').next()?;
            let hint = base.split_once('_')?.1;
            sorts.insert(v.clone(), known.get(hint)?.clone());
        }
    }
    Some(sorts)
}

/// One program through the layers of the cold path, each called once:
/// parse, lower, low-ness analysis, spec validity, symbolic execution
/// (recorded), solver replay, normalization and pre-pass per checked
/// goal, the countermodel search on each failed check (against the path
/// facts in scope, as the verifier runs it), program hash and obligation
/// graph. Returns the program, its hash, its graph and its verdict (every
/// spec valid and every check proved).
fn program_pass(
    t: &Tracer,
    c: &mut Counts,
    config: &VerifierConfig,
    name: &str,
    source: &str,
) -> Option<(AnnotatedProgram, ProgramHash, ObligationGraph, bool)> {
    let program = compile(t, c, name, source)?;
    t.span("analysis.lowness", || analyze_lowness(&program));
    let mut verified = true;
    for spec in &program.resources {
        let report = t.span("logic.validity", || check_validity(spec, &config.validity));
        verified &= report.is_valid();
        c.validity_checks += 1;
    }
    let started = Instant::now();
    let events = t.span("verifier.solver_trace", || solver_trace(&program, config));
    c.trace_time += started.elapsed();
    // The replay keeps the verifier's fact stack beside the session, so a
    // failed check is searched against the facts it was checked under.
    let started = Instant::now();
    let mut checked: Vec<(&Term, Verdict)> = Vec::new();
    let mut failed: Vec<(Vec<Term>, &Term)> = Vec::new();
    t.span("smt.replay", || {
        let mut session = config.backend.open_session(config.solver.clone());
        let (mut facts, mut marks) = (Vec::new(), Vec::new());
        for event in &events {
            match event {
                SolverEvent::Push => {
                    marks.push(facts.len());
                    session.push();
                }
                SolverEvent::Pop => {
                    facts.truncate(marks.pop().unwrap_or(0));
                    session.pop();
                }
                SolverEvent::Assert(fact) => {
                    facts.push(fact.clone());
                    t.span("smt.assert", || session.assert(fact.clone()));
                }
                SolverEvent::Check { assumptions, goal } => {
                    let verdict = t.span("smt.check", || {
                        session.check_assuming(assumptions.clone(), goal)
                    });
                    if verdict != Verdict::Proved {
                        failed.push((facts.iter().chain(assumptions).cloned().collect(), goal));
                    }
                    checked.push((goal, verdict));
                }
            }
        }
    });
    c.replay_time += started.elapsed();
    for (goal, verdict) in &checked {
        c.checks += 1;
        c.unknown += usize::from(*verdict == Verdict::Unknown);
        verified &= *verdict == Verdict::Proved;
        t.span("pure.normalize", || normalize(goal, &SyntacticOracle));
        c.prepass_discharged +=
            usize::from(t.span("analysis.prepass", || goal_statically_valid(goal)));
    }
    let known = known_sorts(&program);
    for (facts, goal) in &failed {
        let Some(sorts) = falsify_sorts(facts, goal, &known) else {
            continue;
        };
        c.falsified += 1;
        t.span("smt.falsify", || {
            let env = find_counterexample(facts, goal, &sorts, &config.falsify)?;
            if !config.minimize_counterexamples {
                return Some(env);
            }
            Some(
                minimize_counterexample(
                    facts,
                    goal,
                    &sorts,
                    &config.falsify,
                    config.backend,
                    &config.solver,
                    env,
                )
                .env,
            )
        });
    }
    let hash = t.span("verifier.program_hash", || program_hash(&program, config));
    let graph = t.span("verifier.obligation_graph", || {
        obligation_graph(&program, config)
    });
    c.obligations += graph.nodes.len();
    Some((program, hash, graph, verified))
}

/// The report of a program the daemon has not seen, as its miss path
/// makes it: the obligation-store-backed verification (a workspace
/// document), the report JSON, and the cache entries written for it
/// (each decoded back, which must give the same statuses and report).
/// Returns the report and its encoded program-tier entry.
fn store_entry(
    t: &Tracer,
    c: &mut Counts,
    workspace: &mut Workspace,
    name: &str,
    program: &AnnotatedProgram,
    hash: ProgramHash,
    graph: &ObligationGraph,
) -> (VerifierReport, String) {
    let outcome = t.span("verifier.workspace_update", || {
        workspace.open_document(name, program)
    });
    c.reused += outcome.obligations.reused;
    c.reuse_total += outcome.obligations.total;
    let report = outcome.report;
    let json = t.span("verifier.report_json", || report.to_json());
    let (text, codec_ok) = t.span("verifier.cache_codec", || {
        let statuses = graph
            .nodes
            .iter()
            .zip(&report.obligations)
            .all(|(node, ob)| {
                let text = encode_obligation_entry(node.key, &ob.status);
                decode_obligation_entry(node.key, &text).as_ref() == Some(&ob.status)
            });
        let text = encode_verdict_entry(hash, &report);
        let same = decode_verdict_entry(hash, &text).map(|r| r.to_json()) == Some(json);
        (text, statuses && same)
    });
    if !codec_ok {
        c.mismatches
            .push(format!("{name}: cache entry codec disagrees"));
    }
    (report, text)
}

/// `front.parse` and `front.lower` of one source.
fn compile(t: &Tracer, c: &mut Counts, name: &str, source: &str) -> Option<AnnotatedProgram> {
    c.parsed_bytes += source.len();
    let program = t
        .span("front.parse", || parser::parse_surface(source))
        .and_then(|surface| t.span("front.lower", || lower::lower(&surface)));
    match program {
        Ok(program) => Some(program),
        Err(e) => {
            c.mismatches.push(format!("{name}: {e}"));
            None
        }
    }
}

fn expect_verified(step: &Json) -> bool {
    step.get("expect").and_then(Json::as_str) == Some("verified")
}

fn check_verdict(c: &mut Counts, name: &str, verified: bool, step: &Json) {
    if verified != expect_verified(step) {
        c.mismatches
            .push(format!("{name}: verdict differs from the generator's"));
    }
}

/// An in-process LSP session: `initialize`, then each message through
/// `rpc::write_frame`/`read_frame` and `LspServer::handle_text`.
struct LspReplay {
    server: LspServer,
    next_id: u64,
}

impl LspReplay {
    fn new(t: &Tracer, c: &mut Counts) -> LspReplay {
        let mut replay = LspReplay {
            server: LspServer::new(
                lsp_config(),
                Box::new(|source| commcsl::front::compile(source).map_err(|e| e.to_string())),
            ),
            next_id: 0,
        };
        replay.request(
            t,
            c,
            "initialize",
            Json::obj([("capabilities", Json::obj([]))]),
        );
        replay
    }

    fn send(&mut self, t: &Tracer, c: &mut Counts, message: Json) -> Vec<Json> {
        let body = t.span("lsp.rpc_frame", || {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &message).ok()?;
            read_frame(&mut bytes.as_slice()).ok()?
        });
        let Some(body) = body else {
            c.mismatches.push("lsp: framing failed".into());
            return Vec::new();
        };
        let started = Instant::now();
        let out = t.span("lsp.handle", || self.server.handle_text(&body));
        c.lsp_handles.push(started.elapsed());
        t.span("lsp.rpc_frame", || {
            let mut sink = Vec::new();
            for reply in &out {
                let _ = write_frame(&mut sink, reply);
            }
        });
        out
    }

    fn request(&mut self, t: &Tracer, c: &mut Counts, method: &str, params: Json) -> Vec<Json> {
        self.next_id += 1;
        let message = Json::obj([
            ("jsonrpc", Json::str("2.0")),
            ("id", Json::Num(self.next_id as f64)),
            ("method", Json::str(method)),
            ("params", params),
        ]);
        self.send(t, c, message)
    }

    fn notify(&mut self, t: &Tracer, c: &mut Counts, method: &str, params: Json) {
        let message = Json::obj([
            ("jsonrpc", Json::str("2.0")),
            ("method", Json::str(method)),
            ("params", params),
        ]);
        self.send(t, c, message);
    }

    fn open(&mut self, t: &Tracer, c: &mut Counts, uri: &str, text: &str) {
        let doc = Json::obj([
            ("uri", Json::str(uri)),
            ("languageId", Json::str("commcsl")),
            ("version", Json::Num(1.0)),
            ("text", Json::str(text)),
        ]);
        self.notify(
            t,
            c,
            "textDocument/didOpen",
            Json::obj([("textDocument", doc)]),
        );
    }

    fn change(&mut self, t: &Tracer, c: &mut Counts, uri: &str, version: u64, text: &str) {
        let params = Json::obj([
            (
                "textDocument",
                Json::obj([
                    ("uri", Json::str(uri)),
                    ("version", Json::Num(version as f64)),
                ]),
            ),
            (
                "contentChanges",
                Json::Arr(vec![Json::obj([("text", Json::str(text))])]),
            ),
        ]);
        self.notify(t, c, "textDocument/didChange", params);
    }

    fn hover(&mut self, t: &Tracer, c: &mut Counts, uri: &str, line: usize) {
        let params = Json::obj([
            ("textDocument", Json::obj([("uri", Json::str(uri))])),
            (
                "position",
                Json::obj([
                    ("line", Json::Num(line as f64)),
                    ("character", Json::Num(0.0)),
                ]),
            ),
        ]);
        let out = self.request(t, c, "textDocument/hover", params);
        let answered = out
            .iter()
            .any(|m| m.get("result").is_some_and(|r| *r != Json::Null));
        if !answered {
            c.mismatches
                .push(format!("lsp: hover at line {line} gave no result"));
        }
    }
}

fn read(dir: &Path, file: &Json) -> io::Result<String> {
    let file = file
        .as_str()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "script names no file"))?;
    fs::read_to_string(dir.join(file))
}

/// The 0-based lines of a source's report statements (hover targets).
fn report_lines(source: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("output ") || l.starts_with("assert low("))
        .map(|(i, _)| i)
        .collect()
}

/// The routes the workload's path does not take, on its two smallest
/// inputs: a workspace session that opens each input twice (cold, then a
/// program-tier hit) and writes its cache entries, the daemon's report
/// codec (`report_to_json`, the `Json` text, `report_from_json`, which
/// must give the report back byte for byte), and an in-process LSP
/// session that opens each input and hovers its first report line.
fn route_sample(t: &Tracer, c: &mut Counts, mut sample: Vec<(String, String)>) {
    sample.sort_by_key(|(_, source)| source.len());
    let config = verifier_config();
    let mut replay = LspReplay::new(t, c);
    let mut workspace = Workspace::new(WorkspaceConfig::default());
    for (name, source) in sample.iter().take(ROUTE_SAMPLE) {
        let Some(program) = compile(t, c, name, source) else {
            continue;
        };
        let hash = t.span("verifier.program_hash", || program_hash(&program, &config));
        let graph = t.span("verifier.obligation_graph", || {
            obligation_graph(&program, &config)
        });
        store_entry(t, c, &mut workspace, name, &program, hash, &graph);
        let (report, _) = store_entry(t, c, &mut workspace, name, &program, hash, &graph);
        let json = report.to_json();
        let wire = t.span("server.json_encode", || report_to_json(&report).to_string());
        let back = t.span("server.json_decode", || {
            Json::parse(&wire).and_then(|doc| report_from_json(&doc))
        });
        if back.map(|r| r.to_json()).ok() != Some(json) {
            c.mismatches
                .push(format!("{name}: daemon report codec disagrees"));
        }
        let uri = format!("file:///{name}");
        replay.open(t, c, &uri, source);
        if let Some(&line) = report_lines(source).first() {
            replay.hover(t, c, &uri, line);
        }
    }
}

/// The part of a workload's script the traced pass reads: the same
/// object with its lists cut to the traced prefix (`programs`, `steps`,
/// the first client's requests). Written beside the full script, so the
/// pass does not parse the full script, which runs to megabytes.
pub fn prefix(script: &Json) -> Json {
    let Json::Obj(fields) = script else {
        return script.clone();
    };
    let cut = |value: &Json, n: usize| match value {
        Json::Arr(items) => Json::Arr(items.iter().take(n).cloned().collect()),
        other => other.clone(),
    };
    Json::Obj(
        fields
            .iter()
            .map(|(key, value)| {
                let value = match key.as_str() {
                    "programs" => cut(value, COLD_ITEMS),
                    "steps" => cut(value, LSP_ITEMS),
                    "clients" => Json::Arr(
                        value
                            .as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .take(1)
                            .map(|client| cut(client, DAEMON_ITEMS))
                            .collect(),
                    ),
                    _ => value.clone(),
                };
                (key.clone(), value)
            })
            .collect(),
    )
}

/// The pass over one workload's inputs (a fixed prefix of its script).
/// Verdicts that differ from the generator's land in `c.mismatches`.
pub fn pass(t: &Tracer, c: &mut Counts, dir: &Path, script: &Json) -> io::Result<()> {
    let arr = |key: &str| script.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let file_of = |entry: &Json| {
        entry
            .get("file")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let config = verifier_config();
    match script.get("workload").and_then(Json::as_str) {
        Some("cold-gen") => {
            let mut sample = Vec::new();
            for entry in arr("programs").iter().take(COLD_ITEMS) {
                let name = file_of(entry);
                let source = read(dir, entry.get("file").unwrap_or(&Json::Null))?;
                if let Some((.., verified)) = program_pass(t, c, &config, &name, &source) {
                    check_verdict(c, &name, verified, entry);
                    sample.push((name, source));
                }
            }
            route_sample(t, c, sample);
        }
        Some("edit-lsp") => {
            let mut lines: Vec<String> = read(dir, script.get("doc").unwrap_or(&Json::Null))?
                .lines()
                .map(str::to_owned)
                .collect();
            let text = |lines: &[String]| lines.join("\n") + "\n";
            let initial = text(&lines);
            let config = lsp_config().verifier;
            if let Some((.., verified)) = program_pass(t, c, &config, "doc.csl", &initial) {
                check_verdict(c, "doc.csl", verified, script);
            }
            route_sample(t, c, vec![("doc.csl".to_owned(), initial.clone())]);
            let uri = "file:///doc.csl";
            let mut workspace = Workspace::new(lsp_config());
            if let Some(program) = compile(t, c, "doc.csl", &initial) {
                t.span("verifier.workspace_update", || {
                    workspace.open_document(uri, &program)
                });
            }
            let mut replay = LspReplay::new(t, c);
            replay.open(t, c, uri, &initial);
            let (mut version, mut leak_traced) = (1, false);
            for step in arr("steps").iter().take(LSP_ITEMS) {
                let line = step.get("line").and_then(Json::as_u64).unwrap_or(0) as usize;
                if step.get("op").and_then(Json::as_str) == Some("hover") {
                    replay.hover(t, c, uri, line);
                    continue;
                }
                lines[line] = step
                    .get("text")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                let source = text(&lines);
                version += 1;
                if let Some(program) = compile(t, c, "doc.csl", &source) {
                    t.span("verifier.program_hash", || program_hash(&program, &config));
                    let outcome = t.span("verifier.workspace_update", || {
                        workspace.update_document(uri, &program)
                    });
                    if let Ok(outcome) = outcome {
                        c.reused += outcome.obligations.reused;
                        c.reuse_total += outcome.obligations.total;
                        t.span("verifier.report_json", || outcome.report.to_json());
                        check_verdict(c, "doc.csl", outcome.report.verified(), step);
                    }
                }
                // The first leaking version also takes the cold path, so
                // the countermodel search behind its diagnostic is measured.
                if !expect_verified(step) && !leak_traced {
                    leak_traced = true;
                    program_pass(t, c, &config, "doc.csl", &source);
                }
                replay.change(t, c, uri, version, &source);
            }
        }
        Some("daemon-mix") => {
            let client = arr("clients").first().and_then(Json::as_arr).unwrap_or(&[]);
            // Program-tier entries by name: the program hash and the
            // encoded verdict entry.
            let mut stored: BTreeMap<String, (u128, String)> = BTreeMap::new();
            let mut programs = Workspace::new(WorkspaceConfig::default());
            let mut documents = Workspace::new(WorkspaceConfig::default());
            let mut doc_lines: Vec<String> = Vec::new();
            let mut sample = Vec::new();
            for step in client.iter().take(DAEMON_ITEMS) {
                let op = step.get("op").and_then(Json::as_str).unwrap_or("");
                match op {
                    "verify" => {
                        let name = file_of(step);
                        let source = read(dir, step.get("file").unwrap_or(&Json::Null))?;
                        let line = Request::Verify(commcsl::server::protocol::VerifyItem {
                            name: name.clone(),
                            source: source.clone(),
                        })
                        .encode();
                        let _ = t.span("server.json_decode", || Request::decode(&line));
                        let report = if let Some((key, text)) = stored.get(&name) {
                            // The program-tier hit path: key, then the
                            // stored entry.
                            let Some(program) = compile(t, c, &name, &source) else {
                                continue;
                            };
                            let hash =
                                t.span("verifier.program_hash", || program_hash(&program, &config));
                            if hash.0 != *key {
                                c.mismatches.push(format!("{name}: unstable program hash"));
                            }
                            let report =
                                t.span("verifier.cache_codec", || decode_verdict_entry(hash, text));
                            if report.is_none() {
                                c.mismatches.push(format!("{name}: cache entry lost"));
                            }
                            report
                        } else {
                            // The miss path: every layer, then the
                            // verification that fills the store.
                            let Some((program, hash, graph, verified)) =
                                program_pass(t, c, &config, &name, &source)
                            else {
                                continue;
                            };
                            check_verdict(c, &name, verified, step);
                            let (report, text) =
                                store_entry(t, c, &mut programs, &name, &program, hash, &graph);
                            stored.insert(name.clone(), (hash.0, text));
                            sample.push((name.clone(), source));
                            Some(report)
                        };
                        if let Some(report) = report {
                            t.span("server.json_encode", || report_to_json(&report).to_string());
                            check_verdict(c, &name, report.verified(), step);
                        }
                    }
                    "open" | "update" => {
                        if op == "open" {
                            doc_lines = read(dir, step.get("file").unwrap_or(&Json::Null))?
                                .lines()
                                .map(str::to_owned)
                                .collect();
                        } else {
                            let line =
                                step.get("line").and_then(Json::as_u64).unwrap_or(0) as usize;
                            doc_lines[line] = step
                                .get("text")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_owned();
                        }
                        let source = doc_lines.join("\n") + "\n";
                        if let Some(program) = compile(t, c, "doc", &source) {
                            t.span("verifier.program_hash", || program_hash(&program, &config));
                            let outcome = t.span("verifier.workspace_update", || {
                                documents.open_document("doc", &program)
                            });
                            c.reused += outcome.obligations.reused;
                            c.reuse_total += outcome.obligations.total;
                            t.span("server.json_encode", || {
                                report_to_json(&outcome.report).to_string()
                            });
                            check_verdict(c, "doc", outcome.report.verified(), step);
                        }
                    }
                    _ => {}
                }
            }
            route_sample(t, c, sample);
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown workload in script",
            ));
        }
    }
    Ok(())
}

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Runs the pass untraced, then traced; returns the per-layer metrics and
/// the mismatches found, and writes the traced spans to `chrome`.
pub fn measure(dir: &Path, script: &Json, chrome: &Path) -> io::Result<(Vec<Metric>, Vec<String>)> {
    // Untraced and traced passes alternate; the fastest of each is
    // compared, so a burst of load on the host shifts neither alone.
    let mut untraced_wall = Duration::MAX;
    let mut wall = Duration::MAX;
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        let started = Instant::now();
        pass(&Tracer::new(false), &mut Counts::default(), dir, script)?;
        untraced_wall = untraced_wall.min(started.elapsed());
        let (t, mut c) = (Tracer::new(true), Counts::default());
        let started = Instant::now();
        pass(&t, &mut c, dir, script)?;
        wall = wall.min(started.elapsed());
        last = Some((t, c, started.elapsed()));
    }
    let (t, c, last_wall) = last.expect("at least one pair");
    t.write_chrome(chrome)?;

    let spans = t.by_name();
    let self_ms = |name: &str| spans.get(name).map_or(0.0, |s| ms(s.0));
    let frac = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let parse_ms = self_ms("front.parse");
    let out: Vec<Metric> = vec![
        ("pure.normalize_ms".into(), self_ms("pure.normalize"), "ms"),
        ("smt.assert_ms".into(), self_ms("smt.assert"), "ms"),
        ("smt.check_ms".into(), self_ms("smt.check"), "ms"),
        ("smt.checks".into(), c.checks as f64, "count"),
        (
            "smt.unknown_frac".into(),
            frac(c.unknown, c.checks),
            "fraction",
        ),
        ("smt.falsify_ms".into(), self_ms("smt.falsify"), "ms"),
        ("smt.falsify_calls".into(), c.falsified as f64, "count"),
        ("logic.validity_ms".into(), self_ms("logic.validity"), "ms"),
        (
            "logic.validity_checks".into(),
            c.validity_checks as f64,
            "count",
        ),
        (
            "analysis.lowness_ms".into(),
            self_ms("analysis.lowness"),
            "ms",
        ),
        (
            "analysis.prepass_ms".into(),
            self_ms("analysis.prepass"),
            "ms",
        ),
        (
            "analysis.prepass_discharge_frac".into(),
            frac(c.prepass_discharged, c.checks),
            "fraction",
        ),
        (
            "verifier.symexec_self_ms".into(),
            ms(c.trace_time.saturating_sub(c.replay_time)),
            "ms",
        ),
        (
            "verifier.program_hash_ms".into(),
            self_ms("verifier.program_hash"),
            "ms",
        ),
        (
            "verifier.obligation_graph_ms".into(),
            self_ms("verifier.obligation_graph"),
            "ms",
        ),
        (
            "verifier.workspace_update_ms".into(),
            self_ms("verifier.workspace_update"),
            "ms",
        ),
        (
            "verifier.reuse_frac".into(),
            frac(c.reused, c.reuse_total),
            "fraction",
        ),
        (
            "verifier.report_json_ms".into(),
            self_ms("verifier.report_json"),
            "ms",
        ),
        (
            "verifier.cache_codec_ms".into(),
            self_ms("verifier.cache_codec"),
            "ms",
        ),
        ("verifier.obligations".into(), c.obligations as f64, "count"),
        ("front.parse_ms".into(), parse_ms, "ms"),
        ("front.lower_ms".into(), self_ms("front.lower"), "ms"),
        (
            "front.parse_mb_per_s".into(),
            if parse_ms > 0.0 {
                c.parsed_bytes as f64 / 1e6 / (parse_ms / 1e3)
            } else {
                0.0
            },
            "MB/s",
        ),
        (
            "server.json_encode_ms".into(),
            self_ms("server.json_encode"),
            "ms",
        ),
        (
            "server.json_decode_ms".into(),
            self_ms("server.json_decode"),
            "ms",
        ),
        ("lsp.rpc_frame_ms".into(), self_ms("lsp.rpc_frame"), "ms"),
        (
            "lsp.handle_p50_ms".into(),
            ms(median(c.lsp_handles.clone())),
            "ms",
        ),
        (
            "trace.overhead_frac".into(),
            wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
            "fraction",
        ),
        (
            "trace.attributed_frac".into(),
            LAYER_SPANS.iter().map(|name| self_ms(name)).sum::<f64>() / ms(last_wall),
            "fraction",
        ),
        (
            "trace.spans".into(),
            spans.values().map(|s| s.1).sum::<usize>() as f64,
            "count",
        ),
        ("trace.wall_ms".into(), ms(last_wall), "ms"),
    ];
    Ok((out, c.mismatches))
}
