//! The unified error surface of the facade.
//!
//! Application code composes three layers — cloud threads ([`CloudError`]),
//! the FaaS platform ([`FaasError`]), and the DSO tier ([`DsoError`] /
//! [`ObjectError`]) — each with its own error type. [`CrucialError`]
//! subsumes them all with `From` conversions in every direction the layers
//! actually convert, so app code can use one `Result<_, CrucialError>` and
//! `?` throughout instead of matching three enums.

use std::fmt;

use dso::{DsoError, ObjectError};
use faas::FaasError;

use crate::thread::CloudError;

/// Any error the Crucial stack can surface, one level per layer.
///
/// ```
/// use crucial::{CloudError, CrucialError};
/// use faas::FaasError;
///
/// fn app() -> Result<(), CrucialError> {
///     let failed: Result<(), CloudError> = Err(FaasError::TimedOut.into());
///     failed?; // CloudError -> CrucialError via From
///     Ok(())
/// }
/// assert!(matches!(app(), Err(CrucialError::Cloud(_))));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum CrucialError {
    /// A cloud thread failed ([`ThreadFactory::start`] /
    /// [`JoinHandle::join`]).
    ///
    /// [`ThreadFactory::start`]: crate::ThreadFactory::start
    /// [`JoinHandle::join`]: crate::JoinHandle::join
    Cloud(CloudError),
    /// A direct FaaS invocation failed.
    Faas(FaasError),
    /// A DSO call failed (routing, retries exhausted, timeouts).
    Dso(DsoError),
    /// A shared object rejected a call.
    Object(ObjectError),
}

impl fmt::Display for CrucialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrucialError::Cloud(e) => write!(f, "{e}"),
            CrucialError::Faas(e) => write!(f, "{e}"),
            CrucialError::Dso(e) => write!(f, "{e}"),
            CrucialError::Object(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CrucialError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrucialError::Cloud(e) => Some(e),
            CrucialError::Faas(e) => Some(e),
            CrucialError::Dso(e) => Some(e),
            CrucialError::Object(e) => Some(e),
        }
    }
}

impl From<CloudError> for CrucialError {
    fn from(e: CloudError) -> CrucialError {
        CrucialError::Cloud(e)
    }
}

impl From<FaasError> for CrucialError {
    fn from(e: FaasError) -> CrucialError {
        CrucialError::Faas(e)
    }
}

impl From<DsoError> for CrucialError {
    fn from(e: DsoError) -> CrucialError {
        CrucialError::Dso(e)
    }
}

impl From<ObjectError> for CrucialError {
    fn from(e: ObjectError) -> CrucialError {
        CrucialError::Object(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_source_chain() {
        let ce: CrucialError = FaasError::UnknownFunction("f".into()).into();
        assert!(matches!(ce, CrucialError::Faas(_)));

        // FaasError -> CloudError -> CrucialError, the layering apps see.
        let cloud: CloudError = FaasError::TimedOut.into();
        let ce: CrucialError = cloud.into();
        assert!(matches!(ce, CrucialError::Cloud(CloudError::Faas(FaasError::TimedOut))));
        assert!(ce.source().is_some());
        assert_eq!(ce.to_string(), "cloud thread failed: function timed out");

        // ObjectError -> DsoError (pre-existing) and -> CrucialError.
        let oe = ObjectError::MethodNotFound("frob".into());
        let de: DsoError = oe.clone().into();
        assert!(matches!(de, DsoError::Object(_)));
        let ce: CrucialError = oe.into();
        assert!(matches!(ce, CrucialError::Object(_)));

        let ce: CrucialError = DsoError::GaveUp { attempts: 3 }.into();
        assert!(matches!(ce, CrucialError::Dso(_)));
    }
}
