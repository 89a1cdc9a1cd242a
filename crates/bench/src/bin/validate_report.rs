//! Validates experiment report JSON files against the report schema.
//!
//! Usage: `validate_report [FILE...]` — with no arguments, validates every
//! `*.json` under `experiments_out/` (or `AMT_REPORT_DIR`), except
//! `flightrec_*.json` post-mortem dumps of a run's trace tail
//! (`amt_congest::dump_flight`), which have their own shape (still checked
//! to parse as JSON). Exits non-zero on the first unparsable or
//! schema-invalid file; CI runs this over the artifacts it uploads.

use amt_bench::report::{parse, validate};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut files: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if files.is_empty() {
        let dir = std::env::var("AMT_REPORT_DIR").unwrap_or_else(|_| "experiments_out".into());
        match std::fs::read_dir(&dir) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "json") {
                        files.push(path);
                    }
                }
                files.sort();
            }
            Err(e) => {
                eprintln!("cannot read report dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if files.is_empty() {
            eprintln!("no report files found in {dir}");
            return ExitCode::FAILURE;
        }
    }

    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: cannot read: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{}: parse error: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Flight dumps are post-mortems, not reports: they must be
        // well-formed JSON but follow their own schema.
        let is_flightrec = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("flightrec_"));
        if is_flightrec {
            println!("{}: ok (flight dump, parse only)", path.display());
            continue;
        }
        if let Err(e) = validate(&doc) {
            eprintln!("{}: schema violation: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{}: ok", path.display());
    }
    ExitCode::SUCCESS
}
