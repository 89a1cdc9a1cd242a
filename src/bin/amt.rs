//! `amt` — command-line interface to the almost-mixing-time toolkit.
//!
//! ```text
//! amt gen <family> [params…] -o graph.txt     generate a graph file
//! amt info <graph.txt>                        structural + spectral stats
//! amt mst <graph.txt> [--algo X] [--seed S]   MST, checked against Kruskal
//! amt route <graph.txt> --shift K [--seed S]  permutation routing
//! amt mincut <graph.txt> [--trees K]          min cut via tree packing
//! ```
//!
//! Graph files are plain edge lists (`u v [w]`, `#` comments); see
//! `amt_core::graphs::io`.

use amt_core::mst::{congest_boruvka, gkp};
use amt_core::prelude::*;
use amt_core::walks::times;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("amt: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  amt gen regular <n> <d> -o <file> [--seed S]
  amt gen er <n> <p> -o <file> [--seed S]
  amt gen hypercube <dim> -o <file>
  amt gen ring <n> -o <file>
  amt gen dumbbell <k> <d> <bridges> -o <file> [--seed S]
  amt info <file>
  amt mst <file> [--algo amt|gkp|boruvka|kruskal] [--seed S] [--beta B] [--levels L]
  amt route <file> [--shift K] [--seed S] [--beta B] [--levels L]
  amt mincut <file> [--trees K] [--seed S]";

/// Parsed `--flag value` options (flags are order-independent).
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), v.clone()));
            } else if a == "-o" {
                let v = it.next().ok_or("-o needs a value")?;
                flags.push(("out".into(), v.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Opts { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "info" => cmd_info(&opts),
        "mst" => cmd_mst(&opts),
        "route" => cmd_route(&opts),
        "mincut" => cmd_mincut(&opts),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load_graph(opts: &Opts) -> Result<Graph, String> {
    let path = opts.positional.first().ok_or("missing graph file")?;
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let g = amt_core::graphs::io::read_edge_list(BufReader::new(f))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(g)
}

fn load_weighted(opts: &Opts) -> Result<WeightedGraph, String> {
    let path = opts.positional.first().ok_or("missing graph file")?;
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    amt_core::graphs::io::read_weighted_edge_list(BufReader::new(f))
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let family = opts
        .positional
        .first()
        .ok_or("gen: missing family")?
        .clone();
    let seed: u64 = opts.get_parsed("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let num = |i: usize| -> Result<usize, String> {
        opts.positional
            .get(i)
            .ok_or_else(|| format!("gen {family}: missing parameter {i}"))?
            .parse()
            .map_err(|_| format!("gen {family}: bad parameter {i}"))
    };
    let g = match family.as_str() {
        "regular" => generators::random_regular(num(1)?, num(2)?, &mut rng),
        "er" => {
            let n = num(1)?;
            let p: f64 = opts
                .positional
                .get(2)
                .ok_or("gen er: missing p")?
                .parse()
                .map_err(|_| "gen er: bad p")?;
            generators::connected_erdos_renyi(n, p, 200, &mut rng)
        }
        "hypercube" => Ok(generators::hypercube(num(1)? as u32)),
        "ring" => Ok(generators::ring(num(1)?)),
        "dumbbell" => generators::dumbbell_expanders(num(1)?, num(2)?, num(3)?, &mut rng),
        other => return Err(format!("gen: unknown family {other:?}")),
    }
    .map_err(|e| format!("gen {family}: {e}"))?;
    let out = opts.get("out").ok_or("gen: missing -o <file>")?;
    let mut f = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    amt_core::graphs::io::write_edge_list(&g, &mut f).map_err(|e| format!("{out}: {e}"))?;
    f.flush().map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.len(),
        g.edge_count()
    );
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    println!("nodes: {}", g.len());
    println!("edges: {}", g.edge_count());
    println!(
        "degree: min {} / avg {:.2} / max {}",
        g.min_degree(),
        g.volume() as f64 / g.len().max(1) as f64,
        g.max_degree()
    );
    println!("connected: {}", g.is_connected());
    if g.is_connected() && g.len() >= 2 {
        let d = amt_core::graphs::traversal::diameter_double_sweep(&g, NodeId(0)).unwrap_or(0);
        println!("diameter: ≥ {d} (double sweep)");
        if let Some(gap) = amt_core::graphs::expansion::spectral_gap_lazy(&g, 400) {
            println!("lazy spectral gap: {gap:.4}");
        }
        if let Some(tau) = mixing::mixing_time_spectral(&g, WalkKind::Lazy, 400) {
            println!("τ_mix (spectral estimate, Def. 2.1): {tau}");
        }
        if g.len() <= 256 {
            if let Some(tv) = times::tv_mixing_time(&g, WalkKind::Lazy, 0.25, 200_000) {
                println!("τ_mix (TV, ε = 1/4, exact): {tv}");
            }
        }
        if let Some(cut) = amt_core::graphs::partitioning::fiedler_sweep_cut(&g, 400) {
            println!(
                "fiedler sweep cut: {} edges, conductance {:.4}, expansion {:.4}",
                cut.cut_edges, cut.conductance, cut.expansion
            );
        }
    }
    Ok(())
}

fn build_system<'g>(g: &'g Graph, opts: &Opts) -> Result<System<'g>, String> {
    let seed: u64 = opts.get_parsed("seed", 1)?;
    let mut b = System::builder(g).seed(seed);
    if let Some(beta) = opts.get("beta") {
        b = b.beta(beta.parse().map_err(|_| "--beta: bad value")?);
    }
    if let Some(levels) = opts.get("levels") {
        b = b.levels(levels.parse().map_err(|_| "--levels: bad value")?);
    }
    b.build().map_err(|e| e.to_string())
}

fn cmd_mst(opts: &Opts) -> Result<(), String> {
    let wg = load_weighted(opts)?;
    let seed: u64 = opts.get_parsed("seed", 1)?;
    let algo = opts.get("algo").unwrap_or("amt");
    let canonical = reference::kruskal(&wg).ok_or("graph is disconnected")?;
    match algo {
        "kruskal" => {
            println!(
                "kruskal: weight {} over {} edges",
                wg.total_weight(&canonical),
                canonical.len()
            );
        }
        "boruvka" => {
            let out = congest_boruvka::run(&wg, seed).map_err(|e| e.to_string())?;
            println!(
                "boruvka (CONGEST): weight {} | {} measured rounds | {} iterations | canonical: {}",
                out.total_weight,
                out.rounds,
                out.iterations,
                out.tree_edges == canonical
            );
        }
        "gkp" => {
            let out = gkp::run(&wg, seed).map_err(|e| e.to_string())?;
            println!(
                "gkp (Õ(D+√n)): weight {} | {} measured rounds (p1 {} + p2 {}) | canonical: {}",
                out.total_weight,
                out.rounds,
                out.phase1_rounds,
                out.phase2_rounds,
                out.tree_edges == canonical
            );
        }
        "amt" => {
            let g = wg.graph().clone();
            let sys = build_system(&g, opts)?;
            let out = sys.mst(&wg, seed).map_err(|e| e.to_string())?;
            println!(
                "amt (Thm 1.1): weight {} | {} measured rounds over {} routing instances | \
                 {} iterations | hierarchy build {} rounds | canonical: {}",
                out.total_weight,
                out.rounds,
                out.routing_instances,
                out.iterations,
                out.hierarchy_build_rounds,
                out.tree_edges == canonical
            );
        }
        other => return Err(format!("mst: unknown --algo {other:?}")),
    }
    Ok(())
}

fn cmd_route(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    let seed: u64 = opts.get_parsed("seed", 1)?;
    let shift: u32 = opts.get_parsed("shift", 1)?;
    let n = g.len() as u32;
    if n == 0 {
        return Err("empty graph".into());
    }
    let sys = build_system(&g, opts)?;
    let reqs: Vec<_> = (0..n)
        .map(|i| (NodeId(i), NodeId((i + shift) % n)))
        .collect();
    let out = sys.route(&reqs, seed).map_err(|e| e.to_string())?;
    println!(
        "routed {} packets (shift-{shift} permutation): {} measured rounds \
         (prep {}, hops {}, bottom {}), {} phases",
        out.delivered,
        out.total_base_rounds,
        out.prep_rounds,
        out.hop_rounds(),
        out.bottom_rounds,
        out.phases
    );
    Ok(())
}

fn cmd_mincut(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    let seed: u64 = opts.get_parsed("seed", 1)?;
    let trees: u32 = opts.get_parsed("trees", 8)?;
    let caps = vec![1u64; g.edge_count()];
    let r = tree_packing_min_cut(&g, &caps, trees, &MstOracle::Centralized)
        .map_err(|e| e.to_string())?;
    println!(
        "tree packing ({trees} trees): cut {} (side of {} nodes)",
        r.value,
        r.side.len()
    );
    if g.len() <= 400 {
        let (exact, _) = stoer_wagner(&g, &caps).ok_or("graph too small")?;
        println!(
            "exact (Stoer–Wagner): {exact} | ratio {:.3}",
            r.value as f64 / exact.max(1) as f64
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let k = amt_core::mincut::karger_estimate(&g, 0.3, &mut rng).map_err(|e| e.to_string())?;
    println!(
        "karger sampling (ε = 0.3): estimate {:.1} at p = {:.3}",
        k.estimate, k.p
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Opts;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let o = Opts::parse(&s(&["regular", "64", "6", "-o", "g.txt", "--seed", "7"])).unwrap();
        assert_eq!(o.positional, s(&["regular", "64", "6"]));
        assert_eq!(o.get("out"), Some("g.txt"));
        assert_eq!(o.get("seed"), Some("7"));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn later_flags_win() {
        let o = Opts::parse(&s(&["--seed", "1", "--seed", "2"])).unwrap();
        assert_eq!(o.get("seed"), Some("2"));
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(Opts::parse(&s(&["--seed"])).is_err());
        assert!(Opts::parse(&s(&["-o"])).is_err());
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let o = Opts::parse(&s(&["--trees", "5"])).unwrap();
        assert_eq!(o.get_parsed::<u32>("trees", 8).unwrap(), 5);
        assert_eq!(o.get_parsed::<u32>("absent", 8).unwrap(), 8);
        let bad = Opts::parse(&s(&["--trees", "five"])).unwrap();
        assert!(bad.get_parsed::<u32>("trees", 8).is_err());
    }

    #[test]
    fn unknown_subcommand_reports_usage() {
        let err = super::run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
    }
}
