//! Structured configuration errors shared by the builders and the engine.

/// Error building an [`crate::Engine`] or submitting a
/// [`crate::Request`].
///
/// Each variant carries a human-readable detail message; match on the
/// variant to branch programmatically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The functional model configuration is internally inconsistent.
    InvalidModel(String),
    /// The derived accelerator architecture is internally inconsistent.
    InvalidArch(String),
    /// The cache budget is unusable (zero, or a ratio outside `(0, 1]`).
    InvalidBudget(String),
    /// A submitted request is unusable (empty prompt, out-of-vocabulary
    /// tokens, …).
    InvalidRequest(String),
    /// The prefix-cache configuration admits no entry, or expires every
    /// entry before it can serve a hit.
    InvalidPrefixCache(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidModel(s) => write!(f, "invalid model configuration: {s}"),
            BuildError::InvalidArch(s) => write!(f, "invalid architecture configuration: {s}"),
            BuildError::InvalidBudget(s) => write!(f, "invalid cache budget: {s}"),
            BuildError::InvalidRequest(s) => write!(f, "invalid request: {s}"),
            BuildError::InvalidPrefixCache(s) => write!(f, "invalid prefix cache: {s}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_variant_context_and_detail() {
        let e = BuildError::InvalidBudget("fixed budget must be positive".into());
        let msg = e.to_string();
        assert!(msg.contains("budget"), "{msg}");
        assert!(msg.contains("positive"), "{msg}");
        assert!(msg.ends_with(": fixed budget must be positive"), "{msg}");
    }

    #[test]
    fn variants_are_distinguishable() {
        assert_ne!(BuildError::InvalidModel("x".into()), BuildError::InvalidArch("x".into()));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&BuildError::InvalidRequest("empty prompt".into()));
    }
}
