//! Lossless JSON (de)serialization of datasets.

use std::io::{Read, Write};

use crate::dataset::{DatasetFields, RbacDataset};
use crate::Result;

/// Serializes a dataset to pretty-printed JSON.
///
/// # Errors
///
/// Returns [`ModelError::Json`](crate::ModelError::Json) on serialization
/// failure (practically unreachable for this type).
pub fn to_json_string(dataset: &RbacDataset) -> Result<String> {
    Ok(serde_json::to_string_pretty(dataset)?)
}

/// Deserializes a dataset from JSON text.
///
/// # Errors
///
/// Returns [`ModelError::Json`](crate::ModelError::Json) for malformed
/// input, and the typed error of the first check a well-formed dump
/// fails: [`UnsortedAdjacency`](crate::ModelError::UnsortedAdjacency),
/// [`UnknownId`](crate::ModelError::UnknownId) or
/// [`AsymmetricEdge`](crate::ModelError::AsymmetricEdge) from
/// [`TripartiteGraph::validate`](crate::TripartiteGraph::validate), or
/// [`TableMismatch`](crate::ModelError::TableMismatch) for a name table
/// or role metadata that does not match the graph.
pub fn from_json_str(text: &str) -> Result<RbacDataset> {
    let fields: DatasetFields = serde_json::from_str(text)?;
    RbacDataset::try_from(fields)
}

/// Writes a dataset as JSON to `writer`.
///
/// # Errors
///
/// Returns [`ModelError::Json`](crate::ModelError::Json) on failure.
pub fn write_json<W: Write>(writer: W, dataset: &RbacDataset) -> Result<()> {
    Ok(serde_json::to_writer_pretty(writer, dataset)?)
}

/// Reads a dataset from JSON in `reader`.
///
/// # Errors
///
/// Returns [`ModelError::Json`](crate::ModelError::Json) for malformed
/// input or [`ModelError::Io`](crate::ModelError::Io) wrapped by serde on
/// read failure, and the typed errors of [`from_json_str`] for a dump
/// that fails its checks.
pub fn read_json<R: Read>(reader: R) -> Result<RbacDataset> {
    let fields: DatasetFields = serde_json::from_reader(reader)?;
    RbacDataset::try_from(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityKind, ModelError};

    /// The figure-1 dump with `from` replaced by `to`, which must be
    /// rejected by both `serde_json` and [`from_json_str`]; returns the
    /// typed error, after checking that `serde_json` reports its message.
    fn rejected(from: &str, to: &str) -> ModelError {
        let json = serde_json::to_string(&RbacDataset::figure1_example()).unwrap();
        assert!(json.contains(from), "{from} not in {json}");
        let edited = json.replacen(from, to, 1);
        let err = from_json_str(&edited).unwrap_err();
        let serde_err = serde_json::from_str::<RbacDataset>(&edited).unwrap_err();
        assert!(
            serde_err.to_string().contains(&err.to_string()),
            "{serde_err}"
        );
        err
    }

    #[test]
    fn json_rejects_an_edge_without_its_reverse() {
        let err = rejected("\"user_roles\":[[0],", "\"user_roles\":[[],");
        assert!(
            matches!(
                err,
                ModelError::AsymmetricEdge {
                    kind: EntityKind::Role,
                    id: 0,
                    neighbor: EntityKind::User,
                    neighbor_id: 0,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn json_rejects_an_id_out_of_range() {
        let err = rejected("\"role_users\":[[0],", "\"role_users\":[[0,9],");
        assert!(
            matches!(
                err,
                ModelError::UnknownId {
                    kind: EntityKind::User,
                    id: 9,
                    bound: 4,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn json_rejects_a_name_table_of_another_length() {
        let err = rejected(
            "\"users\":[\"U01\",\"U02\",\"U03\",\"U04\"]",
            "\"users\":[\"U01\"]",
        );
        assert!(
            matches!(
                err,
                ModelError::TableMismatch {
                    kind: EntityKind::User,
                    nodes: 4,
                    entries: 1,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn json_rejects_an_unsorted_list() {
        let err = rejected("\"role_users\":[[0],[1,2]", "\"role_users\":[[0],[2,1]");
        assert!(
            matches!(
                err,
                ModelError::UnsortedAdjacency {
                    kind: EntityKind::Role,
                    id: 1,
                    neighbor: EntityKind::User,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn json_rejects_a_repeated_id() {
        let err = rejected("\"role_users\":[[0],[1,2]", "\"role_users\":[[0],[1,1,2]");
        assert!(
            matches!(
                err,
                ModelError::UnsortedAdjacency {
                    kind: EntityKind::Role,
                    id: 1,
                    neighbor: EntityKind::User,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn string_roundtrip() {
        let ds = RbacDataset::figure1_example();
        let json = to_json_string(&ds).unwrap();
        let back = from_json_str(&json).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let ds = RbacDataset::figure1_example();
        let mut buf = Vec::new();
        write_json(&mut buf, &ds).unwrap();
        let back = read_json(buf.as_slice()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(from_json_str("{not json").is_err());
        assert!(from_json_str("{}").is_err(), "missing fields rejected");
    }
}
