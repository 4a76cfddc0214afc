//! Cross-shard session migration: [`Engine::extract`] lifts a paused
//! session out as a [`MigratedSession`], [`Engine::adopt`] takes one in.

use veda_model::ModelConfig;
use veda_telemetry::TraceEventKind;

use super::{ActiveSession, Engine, Session};
use crate::error::BuildError;

/// A paused session lifted out of one [`Engine`] for adoption by another
/// ([`Engine::extract`] / [`Engine::adopt`]) — the unit of cross-shard
/// session migration. The wrapper is opaque: it carries the session's
/// complete decode state (KV cache, logits scratch, per-layer eviction
/// policies, prompt/generation progress and per-request accounting), so
/// the adopting engine continues the token stream bit-identically to an
/// unmigrated run. The KV payload a migration must move over the
/// interconnect is [`MigratedSession::kv_bytes`].
pub struct MigratedSession {
    inner: ActiveSession,
    /// Geometry of the source engine's model — adoption requires an
    /// identical configuration (same synthetic weights).
    config: ModelConfig,
}

impl MigratedSession {
    /// KV bytes (FP16) the session owns — the payload a migration moves
    /// over the interconnect, in each direction. Extraction privatizes
    /// any shared prefix span first, so this covers every resident row.
    pub fn kv_bytes(&self) -> u64 {
        self.inner.state.fp16_bytes() as u64
    }

    /// Tokens the session has generated so far.
    pub fn generated_tokens(&self) -> usize {
        self.inner.generated.len()
    }
}

impl std::fmt::Debug for MigratedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratedSession")
            .field("source_session", &self.inner.id)
            .field("kv_bytes", &self.kv_bytes())
            .field("generated_tokens", &self.inner.generated.len())
            .finish()
    }
}

impl Engine {
    /// Lifts a *paused* session out of this engine for adoption by
    /// another ([`Engine::adopt`]) — the engine half of cross-shard
    /// session migration. Returns `None` if the session is not paused
    /// (callers [`Engine::pause`] first; extraction of a mid-batch
    /// session would tear a tick in half).
    ///
    /// Any shared prefix span is privatized on the way out
    /// (`clear_shared_marker`): the rows were copied out of the cache
    /// entry when the session was seeded, so after extraction the
    /// session owns every resident byte and references nothing in this
    /// engine's prefix cache — [`MigratedSession::kv_bytes`] is then the
    /// complete interconnect payload. Like [`Engine::pause`], extraction
    /// never changes the session's remaining token stream.
    ///
    /// The extracted session's per-request cycle/energy accounting
    /// travels with it: when it finishes on the adopting engine, its
    /// `total_cycles` accrue to *that* engine's sequential-cycles
    /// aggregate.
    pub fn extract(&mut self, session: Session) -> Option<MigratedSession> {
        let idx = self.paused.iter().position(|s| s.id == session)?;
        let mut s = self.paused.remove(idx);
        s.state.clear_shared_marker();
        // Privatization severs the last reference into this engine's
        // prefix cache, so the seed pin is released here rather than
        // travelling with the session.
        self.release_seed_pin(&mut s);
        self.trace(s.trace_id, TraceEventKind::Extracted);
        Some(MigratedSession { inner: s, config: self.ctx.model.config().clone() })
    }

    /// Adopts a session extracted from another engine
    /// ([`Engine::extract`]). The session lands in this engine's *paused*
    /// set under a freshly allocated [`Session`] id (per-engine ids are
    /// not unique across a cluster) — [`Engine::resume`] releases it into
    /// the batch, which lets a serving layer serialize the interconnect
    /// transfer latency into its clock first.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidRequest`] if this engine's model
    /// geometry differs from the source's — migrating a session between
    /// different models would decode against different weights.
    pub fn adopt(&mut self, migrated: MigratedSession) -> Result<Session, BuildError> {
        if *self.ctx.model.config() != migrated.config {
            return Err(BuildError::InvalidRequest(
                "adopt requires the source engine's model geometry".into(),
            ));
        }
        let mut s = migrated.inner;
        s.id = Session(self.next_id);
        self.next_id += 1;
        // Extraction released the source-engine seed pin; an adopted
        // session must not carry a dangling pin id into this cache.
        s.seed_pin = None;
        if self.prefix_cache.is_none() {
            // The source engine promised a prefix-cache insertion this
            // engine cannot honor; dropping the recorded observations
            // changes nothing downstream (insertion only serves *future*
            // prompts).
            s.prefix_obs = None;
        }
        let id = s.id;
        self.trace(s.trace_id, TraceEventKind::Adopted);
        self.paused.push(s);
        Ok(id)
    }
}
