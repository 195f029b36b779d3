//! Self-tests of the workload generator: determinism per seed, variety
//! across seeds, every written input compiles, and the verdict each
//! input is labelled with is the verifier's.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use commcsl::server::json::Json;
use commcsl::verifier::{verify, VerifierConfig};
use commcsl_perfbench::gen::{Family, Generated, Mutation, Shape};
use commcsl_perfbench::workload;

const WORKLOADS: [&str; 3] = ["cold-gen", "edit-lsp", "daemon-mix"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, by relative path.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().display().to_string();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_files_and_another_seed_differs() {
    for w in WORKLOADS {
        let a = scratch(&format!("{w}-a"));
        let b = scratch(&format!("{w}-b"));
        let c = scratch(&format!("{w}-c"));
        workload::write(w, 7, &a).unwrap();
        workload::write(w, 7, &b).unwrap();
        workload::write(w, 8, &c).unwrap();
        let (fa, fb, fc) = (files(&a), files(&b), files(&c));
        assert!(fa.len() > 1, "{w}: nothing written");
        assert_eq!(fa, fb, "{w}: the same seed wrote different files");
        assert_ne!(fa, fc, "{w}: another seed wrote the same files");
    }
}

#[test]
fn every_written_input_compiles() {
    for w in WORKLOADS {
        let dir = scratch(&format!("{w}-compile"));
        let script = workload::write(w, 3, &dir).unwrap();
        for (name, bytes) in files(&dir) {
            if name.ends_with(".csl") {
                let source = String::from_utf8(bytes).unwrap();
                commcsl::front::compile(&source)
                    .unwrap_or_else(|e| panic!("{w}: {name} does not compile: {e}"));
            }
        }
        // Edited document versions compile too (the first few edits).
        if w == "edit-lsp" {
            let doc = fs::read_to_string(dir.join("doc.csl")).unwrap();
            let mut lines: Vec<String> = doc.lines().map(str::to_owned).collect();
            let steps = script.get("steps").and_then(Json::as_arr).unwrap();
            for step in steps.iter().filter(|s| s.get("text").is_some()).take(20) {
                let line = step.get("line").and_then(Json::as_u64).unwrap() as usize;
                lines[line] = step.get("text").and_then(Json::as_str).unwrap().to_owned();
                commcsl::front::compile(&(lines.join("\n") + "\n")).unwrap();
            }
        }
    }
}

#[test]
fn labelled_verdicts_match_the_verifier_for_every_family_and_mutation() {
    let config = VerifierConfig::default();
    for (i, family) in Family::ALL.into_iter().enumerate() {
        let mut mutations = vec![
            None,
            Some(Mutation::HighOutput),
            Some(Mutation::FineAbstraction),
        ];
        if family == Family::KeysetMap {
            mutations.push(Some(Mutation::ValueLeak));
        }
        for mutation in mutations {
            for asserts in [false, true] {
                let shape = Shape {
                    family,
                    puts: 3,
                    workers: 2 + i % 3,
                    outputs: 6,
                    asserts,
                    mutation,
                    salt: 11 + i as u64,
                };
                let g = Generated::new(shape.clone());
                let program = commcsl::front::compile(&g.source).unwrap();
                let report = verify(&program, &config);
                assert_eq!(
                    report.verified(),
                    shape.expected_verified(),
                    "{}: {}",
                    shape.name(),
                    report
                );
            }
        }
    }
}
