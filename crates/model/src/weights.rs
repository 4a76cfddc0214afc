//! Synthetic, *structured* weight generation.
//!
//! No pretrained checkpoints are available offline, so the reproduction
//! generates weights that give a random-initialized transformer the three
//! attention properties the KV-eviction literature documents for trained
//! LLMs (and which the VEDA algorithm exploits):
//!
//! * **attention sink** — every embedding carries a small shared component
//!   `u`, and the BOS token a large one, so `q · k_BOS` is systematically
//!   high (Xiao et al.);
//! * **content-based matching / heavy hitters** — `W_Q` and `W_K` contain a
//!   scaled identity, so tokens that recur in the context produce high
//!   query–key scores at their earlier occurrences;
//! * **recency** — RoPE rotation (applied in the attention module) makes
//!   nearby positions correlate more strongly on average.
//!
//! The result is not a language model that "knows English" — it is a
//! substrate whose attention-score *distributions* are realistic, which is
//! what the eviction-policy comparison consumes.
//!
//! Weights are a pure function of their [`ModelConfig`] and never change
//! after synthesis, so every live [`crate::TransformerModel`] of one
//! configuration shares one set, held by a table of weak references.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::config::ModelConfig;
use veda_tensor::rng::{fill_normal_parts, seeded, xavier_std};
use veda_tensor::Matrix;

/// Weight sets by the configuration they were synthesized from. Entries are
/// [`Weak`]: the table never keeps a set alive, and a set dies with the
/// last model that holds it.
type Table = Vec<(ModelConfig, Weak<ModelWeights>)>;

/// The process's live weight sets.
static INTERNED: Mutex<Table> = Mutex::new(Vec::new());

/// Drops the dead entries of `table`, then returns the live set of
/// `config`, if any.
fn live(table: &mut Table, config: &ModelConfig) -> Option<Arc<ModelWeights>> {
    table.retain(|(_, weights)| weights.strong_count() > 0);
    table.iter().find(|(key, _)| key == config).and_then(|(_, weights)| weights.upgrade())
}

/// Weights of one transformer layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query projection `(D, D)`.
    pub wq: Matrix,
    /// Key projection `(D, D)`.
    pub wk: Matrix,
    /// Value projection `(D, D)`.
    pub wv: Matrix,
    /// Output projection `(D, D)`.
    pub wo: Matrix,
    /// FFN gate projection `(D, F)`.
    pub w1: Matrix,
    /// FFN down projection `(F, D)`.
    pub w2: Matrix,
    /// FFN up projection `(D, F)` (gated FFN, as in Llama).
    pub w3: Matrix,
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// RMSNorm gain before the FFN.
    pub ffn_norm: Vec<f32>,
}

/// Full model weights (LM head tied to the embedding).
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// Token embedding `(V, D)`; also the output head.
    pub embedding: Matrix,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
}

/// Strength of the structural components injected into the synthetic
/// weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureParams {
    /// Identity-component scale in `W_Q`/`W_K` (content matching).
    pub match_gain: f32,
    /// Shared sink-direction component in every embedding.
    pub sink_base: f32,
    /// Extra sink component on token 0 (BOS).
    pub sink_bos: f32,
}

impl Default for StructureParams {
    fn default() -> Self {
        Self { match_gain: 1.0, sink_base: 0.15, sink_bos: 2.0 }
    }
}

impl ModelWeights {
    /// Generates structured synthetic weights for `config`.
    pub fn synthetic(config: &ModelConfig) -> Self {
        Self::synthetic_with(config, StructureParams::default())
    }

    /// Generates structured synthetic weights with explicit structure
    /// parameters (ablation hook). The model's Gaussians are one
    /// [`fill_normal_parts`] stream, drawn on every core of the host and
    /// bit-identical on any number of them.
    pub fn synthetic_with(config: &ModelConfig, sp: StructureParams) -> Self {
        config.validate().expect("valid model config");
        let d = config.d_model;
        let f = config.ffn_hidden;
        let v = config.vocab_size;

        let mut sink_dir = vec![0.0; d];
        let mut embedding = Matrix::zeros(v, d);
        let mut layers: Vec<LayerWeights> = (0..config.n_layers)
            .map(|_| LayerWeights {
                wq: Matrix::zeros(d, d),
                wk: Matrix::zeros(d, d),
                wv: Matrix::zeros(d, d),
                wo: Matrix::zeros(d, d),
                w1: Matrix::zeros(d, f),
                w2: Matrix::zeros(f, d),
                w3: Matrix::zeros(d, f),
                attn_norm: vec![1.0; d],
                ffn_norm: vec![1.0; d],
            })
            .collect();

        // Every Gaussian of the model in one stream, in a fixed order: the
        // sink direction, the embedding (unit-scale rows), then each layer's
        // wq wk wv wo w1 w2 w3 at its Xavier scale.
        let (attn, up, down) = (xavier_std(d, d), xavier_std(d, f), xavier_std(f, d));
        let mut parts =
            vec![(sink_dir.as_mut_slice(), 1.0), (embedding.as_mut_slice(), 1.0 / (d as f32).sqrt())];
        for layer in &mut layers {
            parts.extend([
                (layer.wq.as_mut_slice(), attn),
                (layer.wk.as_mut_slice(), attn),
                (layer.wv.as_mut_slice(), attn),
                (layer.wo.as_mut_slice(), attn),
                (layer.w1.as_mut_slice(), up),
                (layer.w2.as_mut_slice(), down),
                (layer.w3.as_mut_slice(), up),
            ]);
        }
        fill_normal_parts(&mut seeded(config.seed), &mut parts);

        // The sink direction is unit-norm; gains are in its units, i.e.
        // comparable to the ~unit embedding row norm.
        let n = veda_tensor::ops::norm2(&sink_dir).max(1e-6);
        for x in &mut sink_dir {
            *x /= n;
        }
        for t in 0..v {
            let gain = if t == 0 { sp.sink_bos } else { sp.sink_base };
            for (x, &u) in embedding.row_mut(t).iter_mut().zip(&sink_dir) {
                *x += gain * u;
            }
        }
        // Content matching: a scaled identity in W_Q and W_K.
        for layer in &mut layers {
            for m in [&mut layer.wq, &mut layer.wk] {
                for x in m.as_mut_slice().iter_mut().step_by(d + 1) {
                    *x += sp.match_gain;
                }
            }
        }

        Self { embedding, final_norm: vec![1.0; d], layers }
    }

    /// [`ModelWeights::synthetic`] for `config`, shared with every live
    /// holder of the same configuration: only the first build of a
    /// configuration synthesizes, until every holder has dropped it.
    ///
    /// The lock covers the lookup and the insert, never the synthesis, so
    /// builds of different configurations never wait on one another. Two
    /// racing first builds of one configuration both synthesize the same
    /// bits, and the one that registers second adopts the first's set.
    pub(crate) fn interned(config: &ModelConfig) -> Arc<Self> {
        let table = || INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(weights) = live(&mut table(), config) {
            return weights;
        }
        let fresh = Arc::new(Self::synthetic(config));
        let mut table = table();
        if let Some(weights) = live(&mut table, config) {
            return weights;
        }
        table.push((config.clone(), Arc::downgrade(&fresh)));
        fresh
    }

    /// Embedding row of a token.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn embed(&self, token: usize) -> &[f32] {
        self.embedding.row(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda_tensor::ops::dot;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = ModelWeights::synthetic(&cfg);
        let b = ModelWeights::synthetic(&cfg);
        assert_eq!(a.embedding.as_slice(), b.embedding.as_slice());
        assert_eq!(a.layers[0].wq.as_slice(), b.layers[0].wq.as_slice());
    }

    #[test]
    fn shapes_match_config() {
        let cfg = ModelConfig::tiny();
        let w = ModelWeights::synthetic(&cfg);
        assert_eq!(w.embedding.shape(), [cfg.vocab_size, cfg.d_model]);
        assert_eq!(w.layers.len(), cfg.n_layers);
        assert_eq!(w.layers[0].w1.shape(), [cfg.d_model, cfg.ffn_hidden]);
        assert_eq!(w.layers[0].w2.shape(), [cfg.ffn_hidden, cfg.d_model]);
    }

    #[test]
    fn bos_embedding_attracts_queries() {
        // The sink structure: <e_t, e_0> should on average exceed
        // <e_t, e_s> for random non-BOS s.
        let cfg = ModelConfig::tiny();
        let w = ModelWeights::synthetic(&cfg);
        let mut to_bos = 0.0;
        let mut to_other = 0.0;
        for t in 1..32 {
            to_bos += dot(w.embed(t), w.embed(0));
            to_other += dot(w.embed(t), w.embed(t + 16));
        }
        assert!(to_bos > to_other, "sink dot {to_bos} vs other {to_other}");
    }

    #[test]
    fn matching_structure_boosts_same_token_scores() {
        // q(x) · k(x) should exceed q(x) · k(y) on average thanks to the
        // identity components of W_Q / W_K.
        let cfg = ModelConfig::tiny();
        let w = ModelWeights::synthetic(&cfg);
        let l = &w.layers[0];
        let mut same = 0.0;
        let mut cross = 0.0;
        for t in 1..20 {
            let x = w.embed(t);
            let q = veda_tensor::ops::gemv_outer(x, &l.wq);
            let kx = veda_tensor::ops::gemv_outer(x, &l.wk);
            let ky = veda_tensor::ops::gemv_outer(w.embed(t + 20), &l.wk);
            same += dot(&q, &kx);
            cross += dot(&q, &ky);
        }
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn different_seeds_change_weights() {
        let mut cfg = ModelConfig::tiny();
        let a = ModelWeights::synthetic(&cfg);
        cfg.seed += 1;
        let b = ModelWeights::synthetic(&cfg);
        assert_ne!(a.embedding.as_slice(), b.embedding.as_slice());
    }
}
