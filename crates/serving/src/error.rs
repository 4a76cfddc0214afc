//! Typed serving-plane errors.
//!
//! The serving stack's original constructors panicked on misconfiguration
//! — acceptable for a pure simulator, wrong for a plane whose whole point
//! is injecting faults and observing them *as values*. [`ServeError`]
//! carries every configuration- and topology-level failure the cluster
//! can detect, so callers (the CLI, the bench harness, library users)
//! choose between [`crate::Cluster::try_new`]'s `Result` and the
//! panicking [`crate::Cluster::new`] convenience wrapper. Runtime faults
//! (crashes, timeouts, shedding) are never errors at all: they flow
//! through [`crate::FaultPlan`] into counters, trace events and terminal
//! request states.

use std::fmt;

/// A serving-plane configuration or topology error.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The engine list handed to the cluster does not match the
    /// configured shard count.
    EngineCountMismatch {
        /// Engines provided.
        engines: usize,
        /// Shards configured.
        shards: usize,
    },
    /// A cluster needs at least one shard.
    EmptyCluster,
    /// An engine already had in-flight sessions; shards require idle
    /// engines.
    EngineNotIdle {
        /// Index of the offending engine.
        engine: usize,
    },
    /// The engines do not share one model geometry (migration moves KV
    /// state between them, so their shapes must agree).
    ModelGeometryMismatch,
    /// Migration thresholds must satisfy
    /// `0 < cold_fraction <= hot_fraction <= 1`.
    InvalidMigrationThresholds {
        /// Configured cold-side fraction.
        cold: f64,
        /// Configured hot-side fraction.
        hot: f64,
    },
    /// A fault plan failed to parse or referenced an impossible schedule
    /// (unknown shard, recovery before crash, bandwidth fraction outside
    /// `(0, 1]`). The message names the offending clause.
    InvalidFaultPlan(String),
    /// The load-shedding watermark must be a finite fraction in `(0, 1]`
    /// of the queue slots: NaN, zero or a negative value would shed every
    /// arrival on the tick it is queued.
    InvalidShedWatermark {
        /// Configured watermark.
        watermark: f64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EngineCountMismatch { engines, shards } => {
                write!(f, "cluster configured for {shards} shards but given {engines} engines")
            }
            ServeError::EmptyCluster => write!(f, "a cluster needs at least one shard"),
            ServeError::EngineNotIdle { engine } => {
                write!(f, "engine {engine} has in-flight sessions; shards require idle engines")
            }
            ServeError::ModelGeometryMismatch => {
                write!(f, "cluster shards must share one model geometry")
            }
            ServeError::InvalidMigrationThresholds { cold, hot } => write!(
                f,
                "migration thresholds must satisfy 0 < cold_fraction <= hot_fraction <= 1 \
                 (got cold={cold}, hot={hot})"
            ),
            ServeError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            ServeError::InvalidShedWatermark { watermark } => {
                write!(f, "shed watermark must be a finite fraction in (0, 1] (got {watermark})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        let e = ServeError::EngineCountMismatch { engines: 2, shards: 3 };
        assert!(e.to_string().contains("3 shards") && e.to_string().contains("2 engines"));
        assert!(ServeError::InvalidFaultPlan("bad clause".into()).to_string().contains("bad clause"));
        assert!(ServeError::InvalidMigrationThresholds { cold: 0.9, hot: 0.5 }
            .to_string()
            .contains("cold=0.9"));
        assert!(ServeError::InvalidShedWatermark { watermark: f64::NAN }.to_string().contains("got NaN"));
    }
}
