//! Error type shared by the whole weaving runtime.

use std::fmt;

use crate::object::ObjId;

/// Result alias used across the workspace.
pub type WeaveResult<T> = Result<T, WeaveError>;

/// Errors raised by the weaving runtime, advice code or woven applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeaveError {
    /// An [`ObjId`] did not resolve to a live object.
    NoSuchObject(ObjId),
    /// A method name was not found in a class's dispatch table (nor among the
    /// inter-type extension methods).
    NoSuchMethod {
        /// Class the call targeted.
        class: String,
        /// Method that could not be resolved.
        method: String,
    },
    /// A value extracted from [`Args`](crate::value::Args) or a return value
    /// had an unexpected concrete type.
    TypeMismatch {
        /// The Rust type the caller expected.
        expected: &'static str,
        /// Where the mismatch happened (method, argument index, ...).
        context: String,
    },
    /// An argument index was out of range, or the argument was already moved
    /// out of the argument pack.
    MissingArg {
        /// Index that was requested.
        index: usize,
        /// Number of slots in the pack.
        len: usize,
    },
    /// `proceed` was called after the arguments were already consumed.
    AlreadyProceeded,
    /// The target object was expected on a join point but absent (e.g. advice
    /// on a construction asked for a target).
    NoTarget,
    /// Failure while constructing an object.
    Construction(String),
    /// A distribution middleware failure (connection, marshalling, remote
    /// dispatch). Mirrors Java's `RemoteException` in the paper's Figure 14.
    Remote(String),
    /// A cluster node is known to be dead. Not retryable against the same
    /// node: recovery means picking a *different* node (a supervisor's job),
    /// not submitting the same request again.
    NodeDown {
        /// The dead node's index.
        node: usize,
    },
    /// A call exceeded its deadline. Retryable: the request may have been
    /// lost (or merely delayed — at-most-once dedup on the serving side
    /// makes the retry safe either way).
    Timeout {
        /// How long the caller waited, milliseconds.
        waited_ms: u64,
    },
    /// Error surfaced from aspect or application code.
    App(String),
}

impl WeaveError {
    /// Convenience constructor for application-level errors.
    pub fn app(msg: impl Into<String>) -> Self {
        WeaveError::App(msg.into())
    }

    /// Convenience constructor for remote/middleware errors.
    pub fn remote(msg: impl Into<String>) -> Self {
        WeaveError::Remote(msg.into())
    }

    /// Would submitting the same request again plausibly succeed?
    /// A `Timeout` does; `NodeDown` does not — the node stays dead, so
    /// recovery needs a different placement.
    pub fn is_retryable(&self) -> bool {
        matches!(self, WeaveError::Timeout { .. })
    }

    /// Did a node die under this call? Supervisors key their recovery
    /// (restore on a survivor + re-dispatch) on this predicate.
    pub fn is_node_loss(&self) -> bool {
        matches!(self, WeaveError::NodeDown { .. })
    }
}

impl fmt::Display for WeaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeaveError::NoSuchObject(id) => write!(f, "no such object: {id}"),
            WeaveError::NoSuchMethod { class, method } => {
                write!(f, "no method `{method}` on class `{class}`")
            }
            WeaveError::TypeMismatch { expected, context } => {
                write!(f, "type mismatch (expected `{expected}`) in {context}")
            }
            WeaveError::MissingArg { index, len } => {
                write!(f, "argument {index} missing or already taken (pack has {len} slots)")
            }
            WeaveError::AlreadyProceeded => {
                write!(f, "proceed() called but the arguments were already consumed")
            }
            WeaveError::NoTarget => write!(f, "join point has no target object"),
            WeaveError::Construction(msg) => write!(f, "construction failed: {msg}"),
            WeaveError::Remote(msg) => write!(f, "remote invocation failed: {msg}"),
            WeaveError::NodeDown { node } => write!(f, "node {node} is down"),
            WeaveError::Timeout { waited_ms } => {
                write!(f, "call timed out after {waited_ms} ms")
            }
            WeaveError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for WeaveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<WeaveError> = vec![
            WeaveError::NoSuchObject(ObjId::from_raw(7)),
            WeaveError::NoSuchMethod { class: "A".into(), method: "m".into() },
            WeaveError::TypeMismatch { expected: "u32", context: "arg 0".into() },
            WeaveError::MissingArg { index: 2, len: 1 },
            WeaveError::AlreadyProceeded,
            WeaveError::NoTarget,
            WeaveError::Construction("boom".into()),
            WeaveError::Remote("link down".into()),
            WeaveError::NodeDown { node: 3 },
            WeaveError::Timeout { waited_ms: 250 },
            WeaveError::App("oops".into()),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn retryability_partition() {
        assert!(WeaveError::Timeout { waited_ms: 1 }.is_retryable());
        assert!(!WeaveError::NodeDown { node: 0 }.is_retryable());
        assert!(!WeaveError::remote("x").is_retryable());
        assert!(!WeaveError::app("x").is_retryable());
        assert!(WeaveError::NodeDown { node: 0 }.is_node_loss());
        assert!(!WeaveError::Timeout { waited_ms: 1 }.is_node_loss());
    }

    #[test]
    fn app_and_remote_constructors() {
        assert_eq!(WeaveError::app("x"), WeaveError::App("x".into()));
        assert_eq!(WeaveError::remote("y"), WeaveError::Remote("y".into()));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(WeaveError::AlreadyProceeded, WeaveError::AlreadyProceeded);
        assert_ne!(WeaveError::AlreadyProceeded, WeaveError::NoTarget);
    }
}
