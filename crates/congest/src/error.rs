//! Error type for simulator violations.

use amt_graphs::NodeId;
use std::fmt;

/// Violations of the CONGEST model or simulator limits.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CongestError {
    /// A node attempted to send two messages over the same port in one round.
    DuplicateSend {
        /// The offending node.
        node: NodeId,
        /// The port (index into the node's adjacency list).
        port: usize,
    },
    /// A node attempted to send on a port `>= degree`.
    PortOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The requested port.
        port: usize,
        /// The node's degree.
        degree: usize,
    },
    /// A message exceeded the per-message bit budget.
    MessageTooWide {
        /// Encoded width of the message in bits.
        bits: usize,
        /// The configured budget in bits.
        budget: usize,
    },
    /// The protocol did not terminate within the configured round cap.
    RoundLimitExceeded {
        /// The configured cap.
        max_rounds: u64,
    },
    /// The protocol vector length did not match the number of graph nodes.
    NodeCountMismatch {
        /// Nodes in the graph.
        graph: usize,
        /// Protocol instances supplied.
        protocols: usize,
    },
    /// A protocol required a node that the fault plan crash-stopped.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// The round in which the crash was injected.
        round: u64,
        /// The fault-plan seed, for replay.
        seed: u64,
    },
    /// A reliable link exhausted its retransmission budget on one port.
    RetryExhausted {
        /// The sending node.
        node: NodeId,
        /// The port whose peer never acknowledged.
        port: usize,
        /// Transmission attempts made (including the original send).
        attempts: u32,
        /// The round in which the sender gave up.
        round: u64,
        /// The fault-plan seed, for replay.
        seed: u64,
    },
    /// A [`crate::faults::FaultPlan`] failed validation.
    FaultPlanInvalid {
        /// Human-readable description of the offending field.
        reason: String,
    },
    /// Sustained damage (crashes plus permanent edge cuts) disconnected the
    /// surviving graph; the protocol terminated gracefully instead of
    /// retrying toward an unreachable component until the round cap.
    Partitioned {
        /// Connected components of the surviving graph (≥ 2).
        components: usize,
        /// Accumulated round at which the partition was detected.
        round: u64,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::DuplicateSend { node, port } => {
                write!(f, "node {node} sent twice on port {port} in one round")
            }
            CongestError::PortOutOfRange { node, port, degree } => {
                write!(f, "node {node} sent on port {port} but has degree {degree}")
            }
            CongestError::MessageTooWide { bits, budget } => {
                write!(
                    f,
                    "message of {bits} bits exceeds the {budget}-bit CONGEST budget"
                )
            }
            CongestError::RoundLimitExceeded { max_rounds } => {
                write!(f, "protocol did not terminate within {max_rounds} rounds")
            }
            CongestError::NodeCountMismatch { graph, protocols } => {
                write!(
                    f,
                    "{protocols} protocol instances supplied for {graph} graph nodes"
                )
            }
            CongestError::NodeCrashed { node, round, seed } => {
                write!(
                    f,
                    "node {node} crash-stopped in round {round} (fault seed {seed})"
                )
            }
            CongestError::RetryExhausted {
                node,
                port,
                attempts,
                round,
                seed,
            } => {
                write!(
                    f,
                    "node {node} gave up on port {port} after {attempts} attempts \
                     in round {round} (fault seed {seed})"
                )
            }
            CongestError::FaultPlanInvalid { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            CongestError::Partitioned { components, round } => {
                write!(
                    f,
                    "surviving graph split into {components} components by round {round}"
                )
            }
        }
    }
}

impl std::error::Error for CongestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = CongestError::MessageTooWide {
            bits: 99,
            budget: 64,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn fault_errors_name_round_and_seed() {
        let e = CongestError::NodeCrashed {
            node: NodeId(3),
            round: 17,
            seed: 42,
        };
        let s = e.to_string();
        assert!(s.contains("round 17") && s.contains("seed 42"));
        let e = CongestError::RetryExhausted {
            node: NodeId(1),
            port: 2,
            attempts: 8,
            round: 30,
            seed: 7,
        };
        let s = e.to_string();
        assert!(s.contains("8 attempts") && s.contains("round 30") && s.contains("seed 7"));
    }

    #[test]
    fn partitioned_names_components_and_round() {
        let e = CongestError::Partitioned {
            components: 2,
            round: 44,
        };
        let s = e.to_string();
        assert!(s.contains("2 components") && s.contains("round 44"));
    }
}
