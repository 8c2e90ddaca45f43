//! Error types of the DSO layer.

use std::fmt;

/// An error raised by a shared object while handling a method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectError {
    /// The object does not implement the requested method.
    MethodNotFound(String),
    /// The arguments could not be decoded.
    BadArgs(String),
    /// The saved state could not be decoded.
    BadState(String),
    /// An application-level failure inside the method body.
    App(String),
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::MethodNotFound(m) => write!(f, "method not found: {m}"),
            ObjectError::BadArgs(e) => write!(f, "bad arguments: {e}"),
            ObjectError::BadState(e) => write!(f, "bad object state: {e}"),
            ObjectError::App(e) => write!(f, "application error: {e}"),
        }
    }
}

impl std::error::Error for ObjectError {}

impl From<simcore::codec::CodecError> for ObjectError {
    fn from(e: simcore::codec::CodecError) -> Self {
        ObjectError::BadArgs(e.to_string())
    }
}

/// An error returned to a DSO client.
#[derive(Debug, Clone, PartialEq)]
pub enum DsoError {
    /// The contacted node does not hold the object under the current view;
    /// the client should refresh its view and retry.
    NotOwner {
        /// View id at the contacted server.
        view: u64,
    },
    /// Transient condition (e.g. object in transfer); retry after backoff.
    Retry,
    /// No response within the timeout (node crashed or unreachable).
    Timeout,
    /// The object rejected the call.
    Object(ObjectError),
    /// The object type is not registered on the servers.
    UnknownType(String),
    /// Retries exhausted without success.
    GaveUp {
        /// Number of attempts made.
        attempts: u32,
    },
}

impl fmt::Display for DsoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsoError::NotOwner { view } => write!(f, "server is not an owner (view {view})"),
            DsoError::Retry => write!(f, "transient failure, retry"),
            DsoError::Timeout => write!(f, "request timed out"),
            DsoError::Object(e) => write!(f, "object error: {e}"),
            DsoError::UnknownType(t) => write!(f, "unknown object type: {t}"),
            DsoError::GaveUp { attempts } => write!(f, "gave up after {attempts} attempts"),
        }
    }
}

impl std::error::Error for DsoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsoError::Object(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ObjectError> for DsoError {
    fn from(e: ObjectError) -> Self {
        DsoError::Object(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(ObjectError::MethodNotFound("foo".into()).to_string(), "method not found: foo");
        assert_eq!(DsoError::Timeout.to_string(), "request timed out");
        assert_eq!(DsoError::GaveUp { attempts: 3 }.to_string(), "gave up after 3 attempts");
    }

    #[test]
    fn conversions() {
        let oe = ObjectError::App("x".into());
        let de: DsoError = oe.clone().into();
        assert_eq!(de, DsoError::Object(oe));
        let ce = simcore::codec::from_bytes::<u64>(&[1]).unwrap_err();
        let oe: ObjectError = ce.into();
        assert!(matches!(oe, ObjectError::BadArgs(_)));
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let de = DsoError::Object(ObjectError::App("y".into()));
        assert!(de.source().is_some());
        assert!(DsoError::Retry.source().is_none());
    }
}
