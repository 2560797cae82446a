//! Identifier newtypes shared across the stack.

use qa_simnet::json::{Json, ToJson};
use std::fmt;

/// Identifies a node (an autonomous DBMS) in the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric index (nodes are dense, `0..I`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ToJson for NodeId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Identifies a query class/template (§2.1: one of the `K` disjoint classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The numeric index (classes are dense, `0..K`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ToJson for ClassId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Identifies a relation in the federation's common schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(pub u32);

impl RelationId {
    /// The numeric index (relations are dense).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(ClassId(7).to_string(), "q7");
        assert_eq!(RelationId(12).to_string(), "R12");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(ClassId(5).index(), 5);
    }
}
