//! Error types shared by the tensor kernels and samplers.

use std::error::Error;
use std::fmt;

/// Result alias for fallible tensor operations.
pub type TensorResult<T> = Result<T, ShapeError>;

/// A dimension mismatch between operands of a tensor operation.
///
/// Carries the operation name and both offending shapes so the message is
/// actionable without a debugger.
///
/// ```
/// use veda_tensor::ShapeError;
/// let e = ShapeError::new("gemv_inner", vec![4], vec![3, 2]);
/// assert_eq!(e.to_string(), "shape mismatch in gemv_inner: left [4] vs right [3, 2]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl ShapeError {
    /// Creates a shape error for operation `op` with the two offending shapes.
    pub fn new(op: &'static str, left: Vec<usize>, right: Vec<usize>) -> Self {
        Self { op, left, right }
    }

    /// The operation that rejected the operands.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Shape of the left operand.
    pub fn left(&self) -> &[usize] {
        &self.left
    }

    /// Shape of the right operand.
    pub fn right(&self) -> &[usize] {
        &self.right
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch in {}: left {:?} vs right {:?}", self.op, self.left, self.right)
    }
}

impl Error for ShapeError {}

/// A weight table that [`crate::rng::Categorical`] cannot draw from.
///
/// ```
/// use veda_tensor::rng::Categorical;
/// use veda_tensor::CategoricalError;
/// assert_eq!(Categorical::new(vec![]), Err(CategoricalError::Empty));
/// let e = Categorical::new(vec![0.5, -1.0]).unwrap_err();
/// assert_eq!(e.to_string(), "categorical weight 1 is -1, expected finite and >= 0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CategoricalError {
    /// The table has no weights.
    Empty,
    /// A weight is negative, infinite or NaN.
    Weight {
        /// Index of the first offending weight.
        index: usize,
        /// Its value.
        weight: f32,
    },
    /// The weights sum to less than `f32::MIN_POSITIVE` (zero or
    /// subnormal), or overflow `f32` to infinity.
    Total(f32),
}

impl fmt::Display for CategoricalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "categorical table is empty"),
            Self::Weight { index, weight } => {
                write!(f, "categorical weight {index} is {weight}, expected finite and >= 0")
            }
            Self::Total(total) => {
                write!(f, "categorical weights sum to {total:e}, expected finite and >= f32::MIN_POSITIVE")
            }
        }
    }
}

impl Error for CategoricalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_operation_and_shapes() {
        let e = ShapeError::new("matmul", vec![2, 3], vec![4, 5]);
        let msg = e.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[4, 5]"));
    }

    #[test]
    fn accessors_round_trip() {
        let e = ShapeError::new("gemv", vec![7], vec![8, 9]);
        assert_eq!(e.op(), "gemv");
        assert_eq!(e.left(), &[7]);
        assert_eq!(e.right(), &[8, 9]);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
        assert_send_sync::<CategoricalError>();
    }

    #[test]
    fn categorical_errors_name_the_fault() {
        assert_eq!(CategoricalError::Empty.to_string(), "categorical table is empty");
        let e = CategoricalError::Weight { index: 3, weight: f32::NAN };
        assert_eq!(e.to_string(), "categorical weight 3 is NaN, expected finite and >= 0");
        assert!(CategoricalError::Total(0.0).to_string().contains("sum to 0e0"));
    }
}
