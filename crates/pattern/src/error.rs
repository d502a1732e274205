//! Pattern construction errors.

use std::fmt;

use crate::pattern::Pattern;

/// Errors raised while building or validating a pattern.
#[derive(Debug, PartialEq, Eq)]
pub enum PatternError {
    /// The pattern has no nodes.
    Empty,
    /// No output node was designated.
    NoOutput,
    /// A node name was used twice.
    DuplicateName(String),
    /// An edge or the output designation referenced an unknown node.
    UnknownNode(String),
    /// An edge referenced an out-of-range node id.
    UnknownNodeId(u32),
    /// The pattern has more than [`Pattern::MAX_NODES`] nodes (the count).
    TooManyNodes(usize),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Empty => write!(f, "pattern has no nodes"),
            PatternError::NoOutput => write!(f, "no output node designated"),
            PatternError::DuplicateName(n) => write!(f, "duplicate pattern node name {n:?}"),
            PatternError::UnknownNode(n) => write!(f, "unknown pattern node {n:?}"),
            PatternError::UnknownNodeId(id) => write!(f, "unknown pattern node id {id}"),
            PatternError::TooManyNodes(n) => {
                write!(f, "pattern has {n} nodes; at most {} are supported", Pattern::MAX_NODES)
            }
        }
    }
}

impl std::error::Error for PatternError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(PatternError::Empty.to_string().contains("no nodes"));
        assert!(PatternError::NoOutput.to_string().contains("output"));
        assert!(PatternError::DuplicateName("PM".into()).to_string().contains("PM"));
        assert!(PatternError::UnknownNode("X".into()).to_string().contains('X'));
        assert!(PatternError::UnknownNodeId(4).to_string().contains('4'));
        assert!(PatternError::TooManyNodes(65).to_string().contains("65"));
    }
}
