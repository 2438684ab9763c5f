//! Error types for index construction and search.

use std::fmt;

/// Errors produced by index building and searching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// A vector had a different dimensionality than the index.
    DimensionMismatch {
        /// Dimensionality the index expects.
        expected: usize,
        /// Dimensionality that was provided.
        actual: usize,
    },
    /// The index has not been trained yet (no centroids).
    NotTrained,
    /// The requested parameter is outside the valid range.
    InvalidParameter(String),
    /// The operation needs more data than is available.
    NotEnoughData {
        /// Number of items required.
        required: usize,
        /// Number of items available.
        available: usize,
    },
    /// A vector held a NaN or infinite coordinate.
    NonFinite {
        /// Row of the input holding it (0 for a single vector).
        row: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            IndexError::NotTrained => write!(f, "index is not trained"),
            IndexError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            IndexError::NotEnoughData {
                required,
                available,
            } => write!(
                f,
                "not enough data: required {required}, available {available}"
            ),
            IndexError::NonFinite { row } => {
                write!(f, "row {row} has a NaN or infinite coordinate")
            }
        }
    }
}

impl std::error::Error for IndexError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = IndexError::DimensionMismatch {
            expected: 128,
            actual: 64,
        };
        assert!(e.to_string().contains("128"));
        assert!(e.to_string().contains("64"));
        assert_eq!(IndexError::NotTrained.to_string(), "index is not trained");
        assert!(IndexError::InvalidParameter("nlist must be > 0".into())
            .to_string()
            .contains("nlist"));
        let e = IndexError::NotEnoughData {
            required: 10,
            available: 3,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains("3"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(IndexError::NotTrained);
        assert_eq!(e.to_string(), "index is not trained");
    }
}
