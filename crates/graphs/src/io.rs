//! Plain-text edge-list serialization.
//!
//! The format is the de-facto standard of graph repositories (SNAP,
//! Network Repository): one `u v [w]` edge per line, `#` comments, blank
//! lines ignored. Node count is `max id + 1` unless a `# nodes: n` header
//! raises it (isolated trailing nodes would otherwise be lost).

use crate::{Graph, GraphBuilder, GraphError, Result, WeightedGraph};
use std::io::{BufRead, Write};

/// Writes `g` as an edge list (with a `# nodes:` header).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_edge_list<W: Write>(g: &Graph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# nodes: {}", g.len())?;
    for (_, u, v) in g.edges() {
        writeln!(out, "{} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Parses an edge list; weights (third column) are ignored if present.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] on malformed lines or I/O failure.
pub fn read_edge_list<R: BufRead>(input: R) -> Result<Graph> {
    let (edges, nodes) = parse(input)?;
    let mut b = GraphBuilder::with_capacity(nodes, edges.len());
    for (u, v, _) in edges {
        b.try_add_edge(u, v)?;
    }
    Ok(b.build())
}

/// Parses a weighted edge list; a missing third column defaults to weight 1.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] on malformed lines or I/O failure.
pub fn read_weighted_edge_list<R: BufRead>(input: R) -> Result<WeightedGraph> {
    let (edges, nodes) = parse(input)?;
    let mut b = GraphBuilder::with_capacity(nodes, edges.len());
    let mut weights = Vec::with_capacity(edges.len());
    for (u, v, w) in edges {
        b.try_add_edge(u, v)?;
        weights.push(w.unwrap_or(1));
    }
    WeightedGraph::new(b.build(), weights)
}

#[allow(clippy::type_complexity)]
fn parse<R: BufRead>(input: R) -> Result<(Vec<(usize, usize, Option<u64>)>, usize)> {
    let bad = |line_no: usize, line: &str| GraphError::InvalidParameters {
        reason: format!("edge-list line {line_no}: cannot parse {line:?}"),
    };
    let mut edges = Vec::new();
    let mut nodes = 0usize;
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| GraphError::InvalidParameters {
            reason: format!("I/O error reading edge list: {e}"),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("nodes:") {
                nodes = nodes.max(n.trim().parse::<usize>().map_err(|_| bad(i + 1, trimmed))?);
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: usize = parts
            .next()
            .ok_or_else(|| bad(i + 1, trimmed))?
            .parse()
            .map_err(|_| bad(i + 1, trimmed))?;
        let v: usize = parts
            .next()
            .ok_or_else(|| bad(i + 1, trimmed))?
            .parse()
            .map_err(|_| bad(i + 1, trimmed))?;
        let w: Option<u64> = match parts.next() {
            Some(tok) => Some(tok.parse().map_err(|_| bad(i + 1, trimmed))?),
            None => None,
        };
        if parts.next().is_some() {
            return Err(bad(i + 1, trimmed));
        }
        nodes = nodes.max(u + 1).max(v + 1);
        edges.push((u, v, w));
    }
    Ok((edges, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn unweighted_roundtrip() {
        let g = generators::hypercube(4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn comments_blanks_and_header_are_handled() {
        let text = "# a comment\n# nodes: 6\n\n0 1\n1 2 7\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.len(), 6); // header raises beyond max id + 1
        assert_eq!(g.edge_count(), 2);
        let wg = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(wg.weight(0u32.into()), 1); // default
        assert_eq!(wg.weight(1u32.into()), 7);
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for bad in ["0\n", "a b\n", "0 1 2 3\n", "0 1 x\n"] {
            let err = read_edge_list(bad.as_bytes())
                .err()
                .unwrap_or_else(|| panic!("{bad:?} must fail"));
            assert!(err.to_string().contains("line 1"), "{err}");
        }
    }

    #[test]
    fn isolated_max_node_preserved_via_header() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.len(), 5);
    }
}
