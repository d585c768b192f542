//! The shared error type (C-GOOD-ERR).

use std::fmt;

use crate::{AcgId, FileId, NodeId};

/// A specialized `Result` whose error type is [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by Propeller crates.
///
/// The type is `Send + Sync + 'static` and implements [`std::error::Error`]
/// so it composes with any error-handling stack.
///
/// # Examples
///
/// ```
/// use propeller_types::{Error, FileId};
///
/// let err = Error::FileNotFound(FileId::new(3));
/// assert_eq!(err.to_string(), "file f3 not found");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A file id was not known to the service.
    FileNotFound(FileId),
    /// A file already has a home ACG, so it cannot be bound to a new one.
    FilePlaced(FileId),
    /// An ACG id was not known to the Master Node.
    AcgNotFound(AcgId),
    /// A named index does not exist in the targeted ACG.
    IndexNotFound(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// A cluster node is not registered or has stopped heartbeating.
    NodeUnavailable(NodeId),
    /// A client used a cached route that the cluster has since moved
    /// (post-split/migration staleness). Dropping the cached entry and
    /// re-resolving through the Master recovers.
    StaleRoute {
        /// The ACG the stale route pointed at.
        acg: AcgId,
        /// The file whose route moved.
        file: FileId,
    },
    /// An Index Node hosts an ACG with files that the client's cached
    /// search plan does not place on it. Locating again through the
    /// Master recovers.
    StalePlacement {
        /// The refusing node.
        node: NodeId,
        /// An ACG the plan is missing there.
        acg: AcgId,
    },
    /// A cluster-wide index broadcast reached only part of the cluster;
    /// the registration was rolled back.
    PartialIndexBroadcast {
        /// The index that failed to propagate.
        index: String,
        /// Index Nodes that never received the spec.
        missed: Vec<NodeId>,
    },
    /// A streamed node search session is unknown to the serving Index
    /// Node: it was evicted (LRU / per-client cap), closed, or the node
    /// restarted. The client reopens a session resuming after the last
    /// hit it received.
    SearchSessionExpired {
        /// The session id the node no longer recognizes.
        session: u64,
    },
    /// A query string could not be parsed; the payload describes why.
    InvalidQuery(String),
    /// Stored bytes (WAL frame, serialized index) failed validation.
    Corrupt(String),
    /// A snapshot file failed validation (bad magic, version, checksum or
    /// truncated payload). Recovery skips the file and falls back to an
    /// older snapshot or a full WAL replay; the variant is surfaced so
    /// operators and tooling can see which file was bad and why.
    SnapshotCorrupt {
        /// Path of the rejected snapshot file.
        path: String,
        /// What failed to validate.
        reason: String,
    },
    /// An I/O error from the real file system (WAL files, snapshots).
    Io(String),
    /// An RPC timed out or its channel was disconnected.
    Rpc(String),
    /// Invalid configuration (e.g. zero index nodes, zero partition size).
    Config(String),
    /// The service has been shut down.
    Shutdown,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::FileNotFound(id) => write!(f, "file {id} not found"),
            Error::FilePlaced(id) => write!(f, "file {id} is already placed in an acg"),
            Error::AcgNotFound(id) => write!(f, "access-causality graph {id} not found"),
            Error::IndexNotFound(name) => write!(f, "index {name:?} not found"),
            Error::IndexExists(name) => write!(f, "index {name:?} already exists"),
            Error::NodeUnavailable(id) => write!(f, "node {id} unavailable"),
            Error::StaleRoute { acg, file } => {
                write!(f, "stale route: file {file} no longer lives in {acg}")
            }
            Error::StalePlacement { node, acg } => {
                write!(f, "stale placement: {node} hosts {acg} outside the search plan")
            }
            Error::PartialIndexBroadcast { index, missed } => {
                write!(f, "index {index:?} missed nodes {missed:?}; registration rolled back")
            }
            Error::SearchSessionExpired { session } => {
                write!(f, "search session {session} expired on the serving node")
            }
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::SnapshotCorrupt { path, reason } => {
                write!(f, "corrupt snapshot {path:?}: {reason}")
            }
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::Rpc(msg) => write!(f, "rpc error: {msg}"),
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Shutdown => write!(f, "service has shut down"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_without_trailing_punctuation() {
        let cases: Vec<Error> = vec![
            Error::FileNotFound(FileId::new(1)),
            Error::FilePlaced(FileId::new(1)),
            Error::AcgNotFound(AcgId::new(2)),
            Error::IndexNotFound("size_idx".into()),
            Error::IndexExists("size_idx".into()),
            Error::NodeUnavailable(NodeId::new(3)),
            Error::StaleRoute { acg: AcgId::new(4), file: FileId::new(5) },
            Error::StalePlacement { node: NodeId::new(3), acg: AcgId::new(4) },
            Error::PartialIndexBroadcast { index: "uid_idx".into(), missed: vec![NodeId::new(2)] },
            Error::SearchSessionExpired { session: 6 },
            Error::InvalidQuery("dangling operator".into()),
            Error::Corrupt("bad crc".into()),
            Error::SnapshotCorrupt { path: "acg-1-9.snap".into(), reason: "bad crc".into() },
            Error::Io("disk full".into()),
            Error::Rpc("timeout".into()),
            Error::Config("zero nodes".into()),
            Error::Shutdown,
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "{msg}");
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with('i'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let err: Error = io.into();
        assert!(matches!(err, Error::Io(_)));
    }
}
