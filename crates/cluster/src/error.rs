//! Error types for the cluster substrate.

use std::fmt;

use crate::codec::CodecError;
use crate::node::NodeId;

/// Errors produced by cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The destination node does not exist.
    UnknownNode(NodeId),
    /// The destination node's mailbox is closed (node shut down or panicked).
    NodeDown(NodeId),
    /// No message arrived within the deadline.
    Timeout,
    /// A payload failed to decode.
    Codec(CodecError),
    /// The cluster was already shut down.
    ShutDown,
    /// The client receive path was detached via
    /// [`crate::cluster::Cluster::take_client_receiver`].
    ReceiverDetached,
    /// The destination's bounded send queue stayed full past the send
    /// deadline (TCP transport); the caller decides whether to retry, shed
    /// load, or abort.
    Backpressure,
    /// A frame whose encoded body exceeds the transport's cap: the reader
    /// would drop the connection on it, so it is refused at `send`.
    FrameTooLarge {
        /// Encoded body size of the refused frame.
        bytes: usize,
        /// The cap ([`crate::MAX_FRAME_BYTES`]).
        cap: usize,
    },
    /// A transport-level I/O failure (bind, connect, thread spawn).
    Io(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::NodeDown(n) => write!(f, "node {n} is down"),
            ClusterError::Timeout => write!(f, "timed out waiting for a message"),
            ClusterError::Codec(e) => write!(f, "codec error: {e}"),
            ClusterError::ShutDown => write!(f, "cluster is shut down"),
            ClusterError::ReceiverDetached => {
                write!(f, "client receiver was detached from the cluster")
            }
            ClusterError::Backpressure => {
                write!(
                    f,
                    "send queue full: destination is not draining fast enough"
                )
            }
            ClusterError::FrameTooLarge { bytes, cap } => {
                write!(f, "frame of {bytes} bytes exceeds the {cap}-byte cap")
            }
            ClusterError::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ClusterError {
    fn from(e: CodecError) -> Self {
        ClusterError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_node_ids() {
        assert!(ClusterError::UnknownNode(3).to_string().contains('3'));
        assert!(ClusterError::NodeDown(7).to_string().contains('7'));
    }

    #[test]
    fn codec_error_converts_and_chains() {
        let e: ClusterError = CodecError::UnexpectedEof.into();
        assert!(matches!(e, ClusterError::Codec(_)));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ClusterError::Timeout.source().is_none());
    }
}
