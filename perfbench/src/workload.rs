//! The three workloads' input sets, written to a directory as `.csl`
//! files plus one `workload.json` script the runner replays (and its
//! traced prefix, `trace.json`).
//!
//! Everything here is a function of the seed: the same seed writes
//! byte-identical files.

use std::fs;
use std::io;
use std::path::Path;

use commcsl::server::json::Json;

use crate::gen::{self, stmt_line, Family, Generated, Rng, Shape};

/// `cold-gen`: programs drawn per run (a power of two, for the
/// bit-reversed stratum order).
pub const COLD_PROGRAMS: usize = 256;
/// `cold-gen`: smallest and largest scale factor (multiples of the
/// Table 1 shape's one put and one output).
pub const COLD_SCALE: (f64, f64) = (900.0, 9000.0);
/// `edit-lsp`: the document's shape (key-set map, the Figure 3 family).
pub const LSP_SHAPE: (usize, usize, usize) = (40, 3, 480);
/// `edit-lsp`: scripted steps (the runner stops when its time is up).
pub const LSP_STEPS: usize = 6000;
/// `edit-lsp` and `daemon-mix`: share of edits that introduce a leak
/// (the next edit repairs it).
pub const LEAK_SHARE: f64 = 0.15;
/// `edit-lsp`: share of edits followed by a hover.
pub const HOVER_SHARE: f64 = 0.5;
/// `daemon-mix`: client connections.
pub const DAEMON_CLIENTS: usize = 2;
/// `daemon-mix`: scripted requests per client (the runner stops when its
/// time is up).
pub const DAEMON_OPS: usize = 12000;
/// `daemon-mix`: scale of the fresh programs, stratified over
/// [`DAEMON_STRATA`] strata (a power of two).
pub const DAEMON_SCALE: (f64, f64) = (30.0, 240.0);
const DAEMON_STRATA: usize = 64;
/// `daemon-mix`: each client's documents under `open`/`update`.
const DAEMON_DOC_FAMILIES: [Family; 2] = [Family::ListMean, Family::KeysetMap];
const DAEMON_DOC_SHAPE: (usize, usize, usize) = (20, 2, 90);

/// One request kind of the daemon mix.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `verify` of a program the client already sent (program-tier hit).
    Hit,
    /// `verify` of a fresh program (a miss: solve, then cache writes).
    Miss,
    /// v2 `open` of the client's document as generated (drops its edits).
    Open,
    /// v2 `update` of the client's document by one statement.
    Update,
    /// `status` poll.
    Status,
}

/// The mix, in blocks of ten shuffled per block. The op kinds follow the
/// daemon load harness (`commcsl-bench`'s `loadgen`): per five requests,
/// two `verify`, one `open`, one `update`, one `status`. Which `verify`
/// is a miss is an assumption, not an observation: one in four, so that
/// most verifies are program-tier hits (a rerun over programs the daemon
/// has seen) and the misses, one request in ten, give the solver tail.
const DAEMON_BLOCK: [Op; 10] = [
    Op::Hit,
    Op::Hit,
    Op::Hit,
    Op::Miss,
    Op::Open,
    Op::Open,
    Op::Update,
    Op::Update,
    Op::Status,
    Op::Status,
];
/// Share of `verify` requests in [`DAEMON_BLOCK`] that are hits.
const DAEMON_HIT_SHARE: f64 = 3.0 / 4.0;

/// Writes the named workload's inputs for `seed` into `dir` and returns
/// the script (also written as `dir/workload.json`).
pub fn write(workload: &str, seed: u64, dir: &Path) -> io::Result<Json> {
    fs::create_dir_all(dir)?;
    let script = match workload {
        "cold-gen" => cold_gen(seed, dir)?,
        "edit-lsp" => edit_lsp(seed, dir)?,
        "daemon-mix" => daemon_mix(seed, dir)?,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload `{other}`"),
            ))
        }
    };
    fs::write(dir.join("workload.json"), script.to_string())?;
    fs::write(
        dir.join("trace.json"),
        crate::trace::prefix(&script).to_string(),
    )?;
    Ok(script)
}

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

fn expect(verified: bool) -> Json {
    Json::str(if verified { "verified" } else { "rejected" })
}

/// Writes one generated program under `dir/sub/` and describes it.
fn write_program(dir: &Path, sub: &str, g: &Generated) -> io::Result<Json> {
    let file = format!("{sub}/{}", g.file_name());
    fs::create_dir_all(dir.join(sub))?;
    fs::write(dir.join(&file), &g.source)?;
    Ok(Json::obj([
        ("file", Json::str(file)),
        ("expect", expect(g.shape.expected_verified())),
        ("bytes", num(g.source.len())),
    ]))
}

/// The Table 1 fixtures and the rejected variants, printed as `.csl`,
/// with their pinned verdicts (the preflight corpus).
fn fixtures(dir: &Path) -> io::Result<(Vec<Json>, String)> {
    fs::create_dir_all(dir.join("fixtures"))?;
    let mut out = Vec::new();
    let mut figure1 = String::new();
    let rows = commcsl::fixtures::all()
        .into_iter()
        .map(|f| (f.program, true));
    let rejected = commcsl::fixtures::rejected::all_programs()
        .into_iter()
        .map(|(_, p)| (p, false));
    for (i, (program, verified)) in rows.chain(rejected).enumerate() {
        let file = format!("fixtures/{i:02}.csl");
        if program.name == "figure1-constant" {
            figure1 = file.clone();
        }
        fs::write(dir.join(&file), commcsl::front::pretty::pretty(&program))?;
        out.push(Json::obj([
            ("file", Json::str(file)),
            ("expect", expect(verified)),
        ]));
    }
    Ok((out, figure1))
}

fn cold_gen(seed: u64, dir: &Path) -> io::Result<Json> {
    let programs = gen::cold_gen(seed, COLD_PROGRAMS, COLD_SCALE.0, COLD_SCALE.1);
    let mut entries = Vec::new();
    for g in &programs {
        entries.push(write_program(dir, "programs", g)?);
    }
    let (fixtures, figure1) = fixtures(dir)?;
    let bytes: Vec<usize> = programs.iter().map(|g| g.source.len()).collect();
    Ok(Json::obj([
        ("workload", Json::str("cold-gen")),
        ("seed", Json::Num(seed as f64)),
        (
            "sizes",
            Json::obj([
                ("programs", num(programs.len())),
                ("scale_lo", Json::Num(COLD_SCALE.0)),
                ("scale_hi", Json::Num(COLD_SCALE.1)),
                ("min_bytes", num(bytes.iter().copied().min().unwrap_or(0))),
                ("max_bytes", num(bytes.iter().copied().max().unwrap_or(0))),
                (
                    "rejected",
                    num(programs
                        .iter()
                        .filter(|g| !g.shape.expected_verified())
                        .count()),
                ),
            ]),
        ),
        ("programs", Json::Arr(entries)),
        ("fixtures", Json::Arr(fixtures)),
        ("figure1", Json::str(figure1)),
    ]))
}

/// A document under single-statement edits: its shape, the 0-based
/// line of each report statement, and the leak currently in it.
struct EditedDoc {
    shape: Shape,
    lines: Vec<usize>,
    leaking: Option<usize>,
}

impl EditedDoc {
    fn new(shape: Shape) -> (EditedDoc, Generated) {
        let g = Generated::new(shape.clone());
        // Report statements are the top-level lines after the unshare.
        let lines = g
            .source
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("output ") || l.starts_with("assert low("))
            .map(|(i, _)| i)
            .collect::<Vec<_>>();
        assert_eq!(lines.len(), shape.outputs, "one line per report statement");
        (
            EditedDoc {
                shape,
                lines,
                leaking: None,
            },
            g,
        )
    }

    /// The next edit: repairs the current leak, or rewrites a random
    /// report statement (leaking with probability [`LEAK_SHARE`]).
    /// Returns the edited line, its new text, and the document's verdict.
    fn edit(&mut self, rng: &mut Rng) -> (usize, String, bool) {
        let c = rng.range(1, 97) as i64;
        let (j, stmt) = match self.leaking.take() {
            Some(j) => (j, self.shape.report_stmt(j, c)),
            None => {
                let j = rng.range(0, self.lines.len() - 1);
                if rng.unit() < LEAK_SHARE {
                    self.leaking = Some(j);
                    (j, self.shape.leak_stmt(j, c))
                } else {
                    (j, self.shape.report_stmt(j, c))
                }
            }
        };
        (self.lines[j], stmt_line(&stmt), self.leaking.is_none())
    }

    /// The document is back as generated (verified, no leak pending).
    fn reset(&mut self) {
        self.leaking = None;
    }

    fn hover_line(&self, rng: &mut Rng) -> usize {
        self.lines[rng.range(0, self.lines.len() - 1)]
    }
}

fn edit_step(line: usize, text: String, verified: bool) -> Json {
    Json::obj([
        ("op", Json::str("edit")),
        ("line", num(line)),
        ("text", Json::str(text)),
        ("expect", expect(verified)),
    ])
}

fn edit_lsp(seed: u64, dir: &Path) -> io::Result<Json> {
    let mut rng = Rng::new(seed ^ 0x15b_ed17);
    let (puts, workers, outputs) = LSP_SHAPE;
    let (mut doc, g) = EditedDoc::new(Shape {
        family: Family::KeysetMap,
        puts,
        workers,
        outputs,
        asserts: true,
        mutation: None,
        salt: rng.next_u64(),
    });
    fs::write(dir.join("doc.csl"), &g.source)?;
    let mut steps = Vec::new();
    while steps.len() < LSP_STEPS {
        let (line, text, verified) = doc.edit(&mut rng);
        steps.push(edit_step(line, text, verified));
        if rng.unit() < HOVER_SHARE {
            steps.push(Json::obj([
                ("op", Json::str("hover")),
                ("line", num(doc.hover_line(&mut rng))),
            ]));
        }
    }
    Ok(Json::obj([
        ("workload", Json::str("edit-lsp")),
        ("seed", Json::Num(seed as f64)),
        (
            "sizes",
            Json::obj([
                ("doc_bytes", num(g.source.len())),
                ("puts", num(puts)),
                ("workers", num(workers)),
                ("report_statements", num(outputs)),
                ("steps", num(steps.len())),
            ]),
        ),
        ("doc", Json::str("doc.csl")),
        ("expect", expect(true)),
        ("steps", Json::Arr(steps)),
    ]))
}

fn daemon_mix(seed: u64, dir: &Path) -> io::Result<Json> {
    let mut clients = Vec::new();
    let mut programs = 0usize;
    for client in 0..DAEMON_CLIENTS {
        let mut rng = Rng::new(seed ^ (0xda3_0000 + client as u64));
        let mut sent: Vec<Json> = Vec::new();
        let mut ops = vec![Json::obj([("op", Json::str("hello"))])];
        let (mut doc, g) = EditedDoc::new(Shape {
            family: DAEMON_DOC_FAMILIES[client % DAEMON_DOC_FAMILIES.len()],
            puts: DAEMON_DOC_SHAPE.0,
            workers: DAEMON_DOC_SHAPE.1,
            outputs: DAEMON_DOC_SHAPE.2,
            asserts: true,
            mutation: None,
            salt: rng.next_u64(),
        });
        let doc_entry = write_program(dir, &format!("docs{client}"), &g)?;
        let open = Json::obj([
            ("op", Json::str("open")),
            ("doc", Json::str(format!("doc{client}"))),
            ("file", doc_entry.get("file").cloned().unwrap_or(Json::Null)),
            ("expect", expect(true)),
        ]);
        ops.push(open.clone());
        let mut misses = 0usize;
        while ops.len() < DAEMON_OPS {
            let mut block = DAEMON_BLOCK.to_vec();
            rng.shuffle(&mut block);
            for kind in block {
                match kind {
                    Op::Hit if !sent.is_empty() => {
                        let mut again = sent[rng.range(0, sent.len() - 1)].clone();
                        if let Json::Obj(fields) = &mut again {
                            fields.push(("hit".into(), Json::Bool(true)));
                        }
                        ops.push(again);
                    }
                    Op::Hit | Op::Miss => {
                        // Fresh programs walk the strata in bit-reversed
                        // order, so any prefix spans the size range.
                        let g = gen::stratified(
                            misses,
                            gen::bit_reversed(misses, DAEMON_STRATA),
                            DAEMON_STRATA,
                            DAEMON_SCALE,
                            &mut rng,
                        );
                        misses += 1;
                        let mut entry = write_program(dir, &format!("programs{client}"), &g)?;
                        programs += 1;
                        if let Json::Obj(fields) = &mut entry {
                            fields.insert(0, ("op".into(), Json::str("verify")));
                        }
                        sent.push(entry.clone());
                        ops.push(entry);
                    }
                    Op::Open => {
                        doc.reset();
                        ops.push(open.clone());
                    }
                    Op::Update => {
                        let (line, text, verified) = doc.edit(&mut rng);
                        let mut step = edit_step(line, text, verified);
                        if let Json::Obj(fields) = &mut step {
                            fields[0].1 = Json::str("update");
                            fields.insert(1, ("doc".into(), Json::str(format!("doc{client}"))));
                        }
                        ops.push(step);
                    }
                    Op::Status => ops.push(Json::obj([("op", Json::str("status"))])),
                }
            }
        }
        clients.push(Json::Arr(ops));
    }
    Ok(Json::obj([
        ("workload", Json::str("daemon-mix")),
        ("seed", Json::Num(seed as f64)),
        (
            "sizes",
            Json::obj([
                ("clients", num(DAEMON_CLIENTS)),
                ("ops_per_client", num(DAEMON_OPS)),
                ("distinct_programs", num(programs)),
                ("verify_hit_share", Json::Num(DAEMON_HIT_SHARE)),
                ("scale_lo", Json::Num(DAEMON_SCALE.0)),
                ("scale_hi", Json::Num(DAEMON_SCALE.1)),
            ]),
        ),
        ("clients", Json::Arr(clients)),
    ]))
}
