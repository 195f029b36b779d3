//! `commcsl-perfbench`: the Rust half of the benchmark runner
//! (`perfbench/run.py`).
//!
//! ```text
//! commcsl-perfbench gen --workload W --seed N --out DIR   write W's inputs for seed N
//! commcsl-perfbench reports FILE...                       in-process report JSON, one per line
//! commcsl-perfbench trace --dir DIR --chrome FILE         traced pass; per-layer metrics as JSON
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use commcsl::server::json::Json;
use commcsl::verifier::Verifier;
use commcsl_perfbench::{trace, workload};

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let workload = flag(args, "--workload")?;
            let seed = flag(args, "--seed")?
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))?;
            let out = PathBuf::from(flag(args, "--out")?);
            let script = workload::write(workload, seed, &out).map_err(|e| e.to_string())?;
            println!("{}", script.get("sizes").cloned().unwrap_or(Json::Null));
            Ok(())
        }
        Some("reports") => {
            let verifier = Verifier::new().with_threads(1);
            for file in &args[1..] {
                let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                let program =
                    commcsl::front::compile(&source).map_err(|e| format!("{file}: {e}"))?;
                println!("{}", verifier.verify(&program).report.to_json());
            }
            Ok(())
        }
        Some("trace") => {
            let dir = Path::new(flag(args, "--dir")?);
            let chrome = Path::new(flag(args, "--chrome")?);
            let text = std::fs::read_to_string(dir.join("trace.json"))
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            let script = Json::parse(&text)?;
            let (metrics, mismatches) =
                trace::measure(dir, &script, chrome).map_err(|e| e.to_string())?;
            let metrics = metrics
                .into_iter()
                .map(|(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })
                .collect();
            let out = Json::obj([
                ("metrics", Json::Obj(metrics)),
                (
                    "mismatches",
                    Json::Arr(mismatches.into_iter().map(Json::Str).collect()),
                ),
            ]);
            println!("{out}");
            Ok(())
        }
        _ => Err("usage: commcsl-perfbench gen|reports|trace ...".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("commcsl-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
