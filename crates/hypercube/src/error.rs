use std::error::Error;
use std::fmt;

use crate::MAX_DIMENSION;

/// Error returned when a hypercube dimension is out of the supported range.
///
/// Produced by [`Hypercube::new`](crate::Hypercube::new) and the other
/// constructors that validate a dimension argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimensionError {
    requested: u32,
}

impl DimensionError {
    pub(crate) fn new(requested: u32) -> Self {
        Self { requested }
    }
}

impl fmt::Display for DimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hypercube dimension {} out of supported range 0..={}",
            self.requested, MAX_DIMENSION
        )
    }
}

impl Error for DimensionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_requested_and_limit() {
        let err = DimensionError::new(99);
        let msg = err.to_string();
        assert!(msg.contains("99"));
        assert!(msg.contains(&MAX_DIMENSION.to_string()));
    }
}
