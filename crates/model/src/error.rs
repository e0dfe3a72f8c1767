//! Error type for the model crate.

use std::error::Error;
use std::fmt;

use crate::id::EntityKind;

/// Errors produced by dataset construction and I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelError {
    /// A referenced entity id does not exist in the graph.
    UnknownId {
        /// Node class of the missing id.
        kind: EntityKind,
        /// Raw id value.
        id: u32,
        /// Exclusive upper bound of valid ids.
        bound: u32,
    },
    /// A referenced entity name was never interned.
    UnknownName {
        /// Node class of the missing name.
        kind: EntityKind,
        /// The name that was looked up.
        name: String,
    },
    /// A parse error in an imported file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A greedy role-mining cover ran out of positive-gain candidates
    /// while user–permission cells were still uncovered.
    ///
    /// Unreachable when the candidate pool contains every distinct
    /// non-empty user row (the default generator guarantees it); a
    /// hand-built pool that cannot cover the matrix surfaces here
    /// instead of panicking.
    CoverStalled {
        /// User–permission cells still uncovered when mining stalled.
        remaining: usize,
    },
    /// Two structures that must share an index space do not, such as a
    /// candidate pool mined against a matrix of another permission
    /// width.
    WidthMismatch {
        /// Node class of the index space.
        kind: EntityKind,
        /// The width required (the matrix's).
        expected: usize,
        /// The width found.
        found: usize,
    },
    /// More entities than `u32` ids can address.
    TooMany {
        /// Node class of the entities.
        kind: EntityKind,
        /// How many there are.
        count: usize,
    },
    /// An adjacency list of a graph does not ascend strictly: it is out
    /// of order or names a neighbour twice.
    UnsortedAdjacency {
        /// Node class of the list's owner.
        kind: EntityKind,
        /// The owner's id.
        id: u32,
        /// Node class of the neighbours the list names.
        neighbor: EntityKind,
    },
    /// An edge is listed by one endpoint but not by the other.
    AsymmetricEdge {
        /// Node class of the endpoint that lists the edge.
        kind: EntityKind,
        /// That endpoint's id.
        id: u32,
        /// Node class of the endpoint that does not list it back.
        neighbor: EntityKind,
        /// That endpoint's id.
        neighbor_id: u32,
    },
    /// A dataset's per-node table (its names or role metadata) does not
    /// hold one entry per node of its graph.
    TableMismatch {
        /// Node class the table describes.
        kind: EntityKind,
        /// Nodes of that class in the graph.
        nodes: usize,
        /// Entries in the table.
        entries: usize,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownId { kind, id, bound } => {
                write!(f, "unknown {kind} id {id} (only {bound} {kind}s exist)")
            }
            ModelError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} name {name:?}")
            }
            ModelError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ModelError::CoverStalled { remaining } => {
                write!(
                    f,
                    "role-mining cover stalled with {remaining} cell(s) uncovered \
                     (candidate pool cannot cover the matrix)"
                )
            }
            ModelError::WidthMismatch {
                kind,
                expected,
                found,
            } => {
                write!(
                    f,
                    "{kind} width {found} differs from the {expected} expected"
                )
            }
            ModelError::TooMany { kind, count } => {
                write!(f, "{count} {kind}s exceed the u32 id space")
            }
            ModelError::UnsortedAdjacency { kind, id, neighbor } => {
                write!(
                    f,
                    "the {neighbor} list of {kind} {id} does not ascend strictly"
                )
            }
            ModelError::AsymmetricEdge {
                kind,
                id,
                neighbor,
                neighbor_id,
            } => {
                write!(
                    f,
                    "{kind} {id} lists {neighbor} {neighbor_id}, which does not list it back"
                )
            }
            ModelError::TableMismatch {
                kind,
                nodes,
                entries,
            } => {
                write!(
                    f,
                    "the {kind} table holds {entries} entries for {nodes} {kind}s"
                )
            }
            ModelError::Io(e) => write!(f, "i/o error: {e}"),
            ModelError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            ModelError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

impl From<serde_json::Error> for ModelError {
    fn from(e: serde_json::Error) -> Self {
        ModelError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::UnknownId {
            kind: EntityKind::Role,
            id: 9,
            bound: 3,
        };
        assert_eq!(e.to_string(), "unknown role id 9 (only 3 roles exist)");
        let e = ModelError::UnknownName {
            kind: EntityKind::User,
            name: "bob".into(),
        };
        assert_eq!(e.to_string(), "unknown user name \"bob\"");
        let e = ModelError::Parse {
            line: 7,
            message: "expected 2 fields".into(),
        };
        assert_eq!(e.to_string(), "parse error at line 7: expected 2 fields");
        let e = ModelError::CoverStalled { remaining: 4 };
        assert_eq!(
            e.to_string(),
            "role-mining cover stalled with 4 cell(s) uncovered \
             (candidate pool cannot cover the matrix)"
        );
        let e = ModelError::WidthMismatch {
            kind: EntityKind::Permission,
            expected: 3,
            found: 5,
        };
        assert_eq!(
            e.to_string(),
            "permission width 5 differs from the 3 expected"
        );
        let e = ModelError::TooMany {
            kind: EntityKind::Role,
            count: usize::MAX,
        };
        let want = format!("{} roles exceed the u32 id space", usize::MAX);
        assert_eq!(e.to_string(), want);
        let e = ModelError::UnsortedAdjacency {
            kind: EntityKind::Role,
            id: 2,
            neighbor: EntityKind::User,
        };
        assert_eq!(
            e.to_string(),
            "the user list of role 2 does not ascend strictly"
        );
        let e = ModelError::AsymmetricEdge {
            kind: EntityKind::Role,
            id: 0,
            neighbor: EntityKind::User,
            neighbor_id: 3,
        };
        assert_eq!(
            e.to_string(),
            "role 0 lists user 3, which does not list it back"
        );
        let e = ModelError::TableMismatch {
            kind: EntityKind::User,
            nodes: 4,
            entries: 1,
        };
        assert_eq!(e.to_string(), "the user table holds 1 entries for 4 users");
    }

    #[test]
    fn source_chains() {
        let io = ModelError::from(std::io::Error::other("boom"));
        assert!(io.source().is_some());
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
