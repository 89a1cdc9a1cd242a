//! The repository benchmark: five closed-loop workloads over the paper's
//! pipeline and the CONGEST simulator, an end-to-end metric set from an
//! untraced run, and per-layer metrics from a separate traced run. See
//! README.md for the workloads, the metrics and the layer map.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! Each workload runs in a child process of its own (this binary with the
//! hidden `child` subcommand), so its peak RSS and its threads are its own.
//! The parent prints every metric with its unit, writes
//! `<out>/<run-id>.json` (default `target/benchmark/`), and prints as its
//! last line `{"correct", "attempted", "failed", "metrics"}`.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod meta;
mod metrics;
mod reference;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Values, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Config, Output, NAMES};

/// Default `--seconds`: the measured duration of one run (BENCHMARK.json
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR]\n       benchmark compare A.json... -- B.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("child") => Args::parse(&args[1..]).and_then(|a| child(&a)),
        _ => Args::parse(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone, Debug)]
struct Args {
    workloads: Vec<String>,
    cfg: Config,
    out: PathBuf,
    /// Where a traced child writes its spans.
    spans: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workloads: NAMES.iter().map(|s| s.to_string()).collect(),
            cfg: Config {
                seed: 1,
                seconds: DEFAULT_SECONDS,
                trace: false,
                smoke: false,
            },
            out: PathBuf::from("target/benchmark"),
            spans: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                a.cfg.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if value == "all" => {}
                "--workload" if NAMES.contains(&value.as_str()) => {
                    a.workloads = vec![value.clone()]
                }
                "--workload" => return Err(bad(&format!("expected one of {NAMES:?} or all"))),
                "--seed" => a.cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    a.cfg.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected a non-negative number"))?;
                }
                "--trace" => {
                    a.cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--out" => a.out = PathBuf::from(value),
                "--spans" => a.spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(a)
    }
}

/// The hidden child entry: runs one workload in this process and prints
/// its [`Output`] as one JSON line.
fn child(a: &Args) -> Result<ExitCode, String> {
    let [name] = &a.workloads[..] else {
        return Err("child runs exactly one workload".into());
    };
    let (output, tracer) = workloads::run(name, a.cfg)?;
    if let Some(path) = &a.spans {
        write_file(path, &trace::spans_json(tracer.spans()))?;
    }
    println!("{}", output.to_json().to_string_compact());
    Ok(ExitCode::SUCCESS)
}

/// Runs `name` in a child process and waits for it.
fn spawn(name: &str, cfg: Config, spans: Option<&Path>) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {name} workload: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {name} workload exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("the {name} workload printed no result"))?;
    Output::from_json(&Json::parse(line)?)
}

/// One workload's reported result.
struct Report {
    untraced: Output,
    traced: Option<Output>,
    metrics: Values,
    spans: Option<PathBuf>,
    attempted: u64,
    failures: Vec<String>,
}

/// Merges a traced run into the per-layer metric set: the traced child's
/// layer metrics plus the tracing overhead on the mean scaled operation
/// time. Both children perform the base set once, on the same inputs.
fn traced_metrics(untraced: &Output, traced: &Output) -> Values {
    let mut m = traced.metrics.clone();
    if !untraced.op_norm_s.is_empty() && !traced.op_norm_s.is_empty() {
        m.set(
            "bench.trace_overhead_pct",
            100.0 * (stats::mean(&traced.op_norm_s) / stats::mean(&untraced.op_norm_s) - 1.0),
        );
    }
    m.complete(PER_LAYER)
}

fn report(name: &str, cfg: Config, run_id: &str, out_dir: &Path) -> Result<Report, String> {
    eprintln!("benchmark: {name} (seed {})", cfg.seed);
    // Beside a traced run, the untraced child performs the base set once:
    // enough to measure the tracing overhead on the same inputs.
    let untraced = spawn(
        name,
        Config {
            trace: false,
            seconds: if cfg.trace { 0.0 } else { cfg.seconds },
            ..cfg
        },
        None,
    )?;
    let mut r = Report {
        metrics: untraced.metrics.clone(),
        attempted: untraced.attempted,
        failures: untraced.failures.clone(),
        untraced,
        traced: None,
        spans: None,
    };
    if cfg.trace {
        let spans = out_dir.join(format!("{run_id}.{name}.spans.json"));
        let traced = spawn(name, cfg, Some(&spans))?;
        r.failures.extend(traced.failures.iter().cloned());
        r.attempted += traced.attempted + 1;
        if traced.digest != r.untraced.digest {
            r.failures.push(format!(
                "traced digest {} differs from untraced {}",
                traced.digest, r.untraced.digest
            ));
        }
        r.metrics = traced_metrics(&r.untraced, &traced);
        r.traced = Some(traced);
        r.spans = Some(spans);
    }
    Ok(r)
}

/// Operation count, median and the highest percentile with at least ten
/// operations beyond it (informational; not every workload has one).
fn op_summary(op_s: &[f64]) -> String {
    if op_s.is_empty() {
        return "no operation completed".into();
    }
    let tail = stats::tail_percentile(op_s.len()).map_or(String::new(), |p| {
        format!(
            ", p{p} {:.3} ms",
            1e3 * stats::percentile(op_s, f64::from(p))
        )
    });
    format!(
        "{} operations: p50 {:.3} ms{tail}",
        op_s.len(),
        1e3 * stats::median(op_s)
    )
}

/// `{name: {value, unit}}`; a name may carry a `workload/` prefix.
fn metrics_json(values: &Values) -> Json {
    values.0.iter().fold(Json::obj(), |o, (name, v)| {
        let metric = name.rsplit('/').next().unwrap_or(name);
        let unit = metrics::find(metric).map_or("", |d| d.unit);
        o.with(name, Json::obj().with("value", *v).with("unit", unit))
    })
}

fn workload_json(name: &str, r: &Report) -> Json {
    let mut w = Json::obj()
        .with("name", name)
        .with("correct", r.failures.is_empty())
        .with("attempted", r.attempted)
        .with("failed", r.failures.len())
        .with(
            "failures",
            r.failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("metrics", metrics_json(&r.metrics))
        .with("digest", r.untraced.digest.as_str())
        .with("digest_values", r.untraced.digest_values)
        .with("untraced", r.untraced.to_json());
    if let Some(t) = &r.traced {
        w.push("traced", t.to_json());
    }
    if let Some(p) = &r.spans {
        w.push("spans_file", p.display().to_string());
    }
    w
}

/// The result file: run metadata plus one entry per workload.
fn result_json(run_id: &str, meta: Json, entries: Vec<Json>) -> Json {
    Json::obj()
        .with("schema", 1u64)
        .with("run_id", run_id)
        .with("meta", meta)
        .with("workloads", entries)
}

fn write_file(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_string_compact() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let load_start = meta::loadavg();
    let nproc = meta::nproc();
    if load_start[0] > nproc as f64 {
        println!(
            "warning: load average {:.2} exceeds nproc = {nproc}; timings will be noisy",
            load_start[0]
        );
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let scope = if a.workloads.len() == 1 {
        a.workloads[0].as_str()
    } else {
        "all"
    };
    let run_id = format!(
        "{scope}-seed{}-trace{}-{stamp}-{}",
        a.cfg.seed,
        u8::from(a.cfg.trace),
        std::process::id()
    );
    let mut reports = Vec::new();
    for name in &a.workloads {
        let r = report(name, a.cfg, &run_id, &a.out).map_err(|e| format!("{name}: {e}"))?;
        for (metric, value) in &r.metrics.0 {
            let unit = metrics::find(metric).map_or("", |d| d.unit);
            println!("{name:<18} {metric:<40} {value:>16.6} {unit}");
        }
        println!("{name:<18} {}", op_summary(&r.untraced.op_s));
        println!(
            "{name:<18} digest {} over {} values; {} of {} checks failed",
            r.untraced.digest,
            r.untraced.digest_values,
            r.failures.len(),
            r.attempted
        );
        reports.push((name.clone(), r));
    }
    let meta = meta::describe(
        a.cfg.seed,
        a.cfg.seconds,
        a.cfg.trace,
        a.cfg.smoke,
        load_start,
        meta::loadavg(),
    );
    let entries = reports.iter().map(|(n, r)| workload_json(n, r)).collect();
    let path = a.out.join(format!("{run_id}.json"));
    write_file(&path, &result_json(&run_id, meta, entries))?;
    println!("result file: {}", path.display());

    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: usize = reports.iter().map(|(_, r)| r.failures.len()).sum();
    let combined = match &reports[..] {
        [(_, r)] => r.metrics.clone(),
        many => Values(
            many.iter()
                .flat_map(|(n, r)| {
                    r.metrics
                        .0
                        .iter()
                        .map(move |(m, v)| (format!("{n}/{m}"), *v))
                })
                .collect(),
        ),
    };
    let last = Json::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics_json(&combined));
    println!("{}", last.to_string_compact());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::END_TO_END;

    fn smoke(name: &str, trace: bool) -> Output {
        let cfg = Config {
            seed: 3,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        workloads::run(name, cfg).expect("known workload").0
    }

    /// A smoke run of every workload reports every metric name, passes its
    /// own checks, and reproduces its digest when traced.
    #[test]
    fn smoke_run_reports_every_metric_for_every_workload() {
        for name in NAMES {
            let untraced = smoke(name, false);
            let traced = smoke(name, true);
            for out in [&untraced, &traced] {
                assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
                assert!(out.attempted > 0 && !out.op_s.is_empty(), "{name}");
            }
            assert_eq!(
                untraced.digest, traced.digest,
                "{name}: tracing changed the outcome"
            );
            let e2e: Vec<&str> = untraced.metrics.0.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(e2e, want, "{name}");
            for (metric, v) in &untraced.metrics.0 {
                assert!(v.is_finite() && *v > 0.0, "{name}: {metric} = {v}");
            }
            let layer = traced_metrics(&untraced, &traced);
            let got: Vec<&str> = layer.0.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{name}");
            assert!(layer.0.iter().all(|(_, v)| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let out = Output {
            workload: "congest_sim".into(),
            metrics: Values(vec![("setup_s".into(), 0.125), ("op_ms".into(), 6.5)]),
            attempted: 4,
            failures: vec!["op 1: \"x\" failed".into()],
            digest: "00ff00ff00ff00ff".into(),
            digest_values: 10,
            setup_s: vec![0.1, 0.125, 0.2],
            op_s: vec![6.0, 7.0],
            ref_s: vec![1.5e-3, 1.75e-3],
            setup_norm_s: vec![0.125, 0.25, 0.0625],
            op_norm_s: vec![6.5, 6.5],
        };
        let r = Report {
            metrics: out.metrics.clone(),
            untraced: out.clone(),
            traced: Some(out.clone()),
            spans: Some(PathBuf::from("target/benchmark/x.spans.json")),
            attempted: 4,
            failures: out.failures.clone(),
        };
        let meta = meta::describe(7, 12.0, true, false, [0.5, 0.25, 0.125], [1.0, 0.5, 0.25]);
        let file = result_json("run-1", meta, vec![workload_json("congest_sim", &r)]);
        let text = file.to_string_compact();
        let back = Json::parse(&text).expect("valid JSON");
        assert_eq!(back, file);
        let w = &back.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(Output::from_json(w.get("untraced").unwrap()).unwrap(), out);
        let latency = w.get("metrics").and_then(|m| m.get("op_ms")).unwrap();
        assert_eq!(latency.get("value").and_then(Json::as_f64), Some(6.5));
        assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(
            back.get("meta")
                .and_then(|m| m.get("seed"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload congest_sim --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workloads, ["congest_sim"]);
        assert!(a.cfg.trace && a.cfg.seed == 9 && a.cfg.seconds == 3.0);
        assert_eq!(parse("--smoke").unwrap().workloads.len(), NAMES.len());
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
