//! `benchmark compare A.json... -- B.json...`: judges result files of a
//! candidate (B) against a parent (A) — per workload, each metric's medians
//! and quartiles, the share of (A, B) pairs B wins, and a verdict against
//! the metric's bound.

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::stats;
use std::process::ExitCode;

/// Share of all (A, B) pairs B must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread exceeds the bound, so no conclusion holds.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether `x` is better than `y` under `better`.
fn beats(x: f64, y: f64, better: Better) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Share of all (a, b) pairs in which `b` beats `a`; ties count for neither.
pub fn win_share(a: &[f64], b: &[f64], better: Better) -> f64 {
    let wins = a
        .iter()
        .map(|&x| b.iter().filter(|&&y| beats(y, x, better)).count())
        .sum::<usize>();
    wins as f64 / (a.len() * b.len()).max(1) as f64
}

/// Judges candidate samples `b` against parent samples `a`.
///
/// * With a bound: `unresolved` when either side's spread exceeds it
///   (unless every B run beats every A run), `worse` when B's median is
///   worse than A's by more than the bound.
/// * `better` when B wins at least nine tenths of all pairs and the medians
///   differ by more than A's interquartile distance; the mirror rule gives
///   `worse` for metrics without a bound.
/// * Otherwise `same`.
pub fn verdict(a: &[f64], b: &[f64], def: &MetricDef) -> Verdict {
    let ([qa1, ma, qa3], mb) = (stats::quartiles(a), stats::median(b));
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| beats(y, x, def.better)));
    let worse_share = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let separated = (mb - ma).abs() > qa3 - qa1;
    if let Some(bound) = def.bound {
        if stats::spread(a).max(stats::spread(b)) > bound && !all_better {
            return Verdict::Unresolved;
        }
        if worse_share > bound {
            return Verdict::Worse;
        }
    }
    let better_dir = beats(mb, ma, def.better);
    if all_better || (better_dir && separated && win_share(a, b, def.better) >= WIN_SHARE) {
        Verdict::Better
    } else if def.bound.is_none()
        && !better_dir
        && separated
        && win_share(b, a, def.better) >= WIN_SHARE
    {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// `(workload, metric) → values`, one value per result file.
type Samples = Vec<(String, String, Vec<f64>)>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out: Samples = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = file
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: not a benchmark result file"))?;
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            let Some(ms) = w.get("metrics").and_then(Json::as_obj) else {
                continue;
            };
            for (metric, m) in ms {
                let Some(v) = m.get("value").and_then(Json::as_f64) else {
                    continue;
                };
                match out
                    .iter_mut()
                    .find(|(wn, mn, _)| wn == name && mn == metric)
                {
                    Some(slot) => slot.2.push(v),
                    None => out.push((name.to_string(), metric.clone(), vec![v])),
                }
            }
        }
    }
    Ok(out)
}

fn fmt_q(xs: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(xs);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `A.json... -- B.json...`")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("compare needs at least one file on each side of `--`".into());
    }
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut regressed = false;
    let mut workload = "";
    for (w, metric, av) in &a {
        let Some(def) = metrics::find(metric) else {
            continue;
        };
        let Some((_, _, bv)) = b.iter().find(|(bw, bm, _)| bw == w && bm == metric) else {
            continue;
        };
        if w != workload {
            workload = w;
            println!(
                "\n## {w}  (A: {} files, B: {} files)",
                a_paths.len(),
                b_paths.len()
            );
            println!(
                "{:<40} {:<6} {:>30} {:>30} {:>8} {:>5}  verdict",
                "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "win"
            );
        }
        let v = verdict(av, bv, def);
        regressed |= v == Verdict::Worse && def.bound.is_some();
        let (ma, mb) = (stats::median(av), stats::median(bv));
        let change = if ma == 0.0 {
            0.0
        } else {
            100.0 * (mb - ma) / ma.abs()
        };
        let bound = def
            .bound
            .map_or(String::new(), |x| format!(" (bound {:.0}%)", 100.0 * x));
        println!(
            "{:<40} {:<6} {:>30} {:>30} {:>+7.1}% {:>5.2}  {}{bound}",
            metric,
            def.unit,
            fmt_q(av),
            fmt_q(bv),
            change,
            win_share(av, bv, def.better),
            v.as_str()
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMED: MetricDef = MetricDef {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.1),
    };
    const COUNT: MetricDef = MetricDef {
        name: "congest.rounds",
        unit: "count",
        better: Better::Lower,
        bound: None,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_win_rule() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Clearly faster in every pair.
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9], &TIMED), Verdict::Better);
        // Slower by more than the 10% bound.
        assert_eq!(verdict(&a, &[11.5, 11.6, 11.4], &TIMED), Verdict::Worse);
        // Within the bound and not separated: no change.
        assert_eq!(verdict(&a, &[10.02, 9.98, 10.1], &TIMED), Verdict::Same);
        // A spread wider than the bound leaves the metric unresolved.
        assert_eq!(
            verdict(&a, &[7.0, 13.0, 10.0, 14.0], &TIMED),
            Verdict::Unresolved
        );
        // Without a bound, a consistent loss reads as worse.
        assert_eq!(verdict(&[5.0, 5.0], &[6.0, 6.0], &COUNT), Verdict::Worse);
        assert_eq!(verdict(&[5.0, 5.0], &[5.0, 5.0], &COUNT), Verdict::Same);
    }

    #[test]
    fn win_share_ignores_ties() {
        assert_eq!(win_share(&[1.0, 2.0], &[1.0, 0.5], Better::Lower), 0.75);
        assert_eq!(win_share(&[1.0], &[1.0], Better::Higher), 0.0);
    }
}
