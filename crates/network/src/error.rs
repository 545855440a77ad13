//! Error type for network construction and I/O.

use crate::NodeId;

/// Errors produced while building, generating or parsing road networks.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// An edge endpoint was not previously added to the builder.
    UnknownNode(NodeId),
    /// Self-loops are not meaningful road segments.
    SelfLoop(NodeId),
    /// Edge weight was non-finite or non-positive.
    BadWeight(f64),
    /// A network must have at least one vertex.
    EmptyNetwork,
    /// More vertices or adjacency entries (two per edge) than the `u32`
    /// ids and row offsets of the CSR layout can address.
    TooLarge {
        /// Vertex count.
        nodes: u64,
        /// Adjacency entry count.
        entries: u64,
    },
    /// A generator configuration failed validation.
    BadGeneratorConfig(String),
    /// A textual edge-list could not be parsed.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownNode(v) => write!(f, "unknown node {v}"),
            NetworkError::SelfLoop(v) => write!(f, "self-loop at {v}"),
            NetworkError::BadWeight(w) => write!(f, "bad edge weight {w}"),
            NetworkError::EmptyNetwork => write!(f, "network has no vertices"),
            NetworkError::TooLarge { nodes, entries } => write!(
                f,
                "{nodes} vertices and {entries} adjacency entries exceed the u32 CSR layout"
            ),
            NetworkError::BadGeneratorConfig(msg) => write!(f, "bad generator config: {msg}"),
            NetworkError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            NetworkError::UnknownNode(NodeId(3)).to_string(),
            "unknown node v3"
        );
        assert_eq!(
            NetworkError::SelfLoop(NodeId(1)).to_string(),
            "self-loop at v1"
        );
        assert!(NetworkError::BadWeight(-1.0).to_string().contains("-1"));
        assert!(NetworkError::Parse {
            line: 7,
            message: "oops".into()
        }
        .to_string()
        .contains("line 7"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&NetworkError::EmptyNetwork);
    }
}
