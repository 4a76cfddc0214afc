//! Model geometry configuration.

use veda_tensor::activation::Activation;

/// Geometry and hyper-parameters of a decoder-only transformer.
///
/// ```
/// use veda_model::ModelConfig;
/// let cfg = ModelConfig::tiny();
/// assert_eq!(cfg.head_dim() * cfg.n_heads, cfg.d_model);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden (embedding) dimension `D`.
    pub d_model: usize,
    /// Number of attention heads `H` (must divide `d_model`).
    pub n_heads: usize,
    /// Number of transformer layers `N`.
    pub n_layers: usize,
    /// FFN hidden dimension (4·D in the paper's Fig. 1; 11008 in Llama-2 7B).
    pub ffn_hidden: usize,
    /// Maximum sequence length (4096 for Llama-2).
    pub max_seq_len: usize,
    /// FFN activation.
    pub activation: Activation,
    /// RoPE base frequency (10000 in Llama).
    pub rope_theta: f32,
    /// Seed for synthetic weight generation.
    pub seed: u64,
}

impl ModelConfig {
    /// Head dimension `d = D / H`.
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` does not divide `d_model`.
    pub fn head_dim(&self) -> usize {
        assert_eq!(self.d_model % self.n_heads, 0, "n_heads must divide d_model");
        self.d_model / self.n_heads
    }

    /// Llama-2 7B geometry (used by the cycle model; never materialized as
    /// tensors in this workspace).
    #[cfg(test)]
    pub(crate) fn llama2_7b() -> Self {
        Self {
            vocab_size: 32000,
            d_model: 4096,
            n_heads: 32,
            n_layers: 32,
            ffn_hidden: 11008,
            max_seq_len: 4096,
            activation: Activation::Silu,
            rope_theta: 10000.0,
            seed: 0,
        }
    }

    /// A small model that runs the full functional pipeline in seconds:
    /// D=256, H=8, 4 layers, 4 Ki vocabulary.
    pub fn small() -> Self {
        Self {
            vocab_size: 4096,
            d_model: 256,
            n_heads: 8,
            n_layers: 4,
            ffn_hidden: 1024,
            max_seq_len: 4096,
            activation: Activation::Silu,
            rope_theta: 10000.0,
            seed: 7,
        }
    }

    /// A unit-test-sized model: D=32, H=4, 2 layers, 64-token vocabulary.
    pub fn tiny() -> Self {
        Self {
            vocab_size: 64,
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            ffn_hidden: 64,
            max_seq_len: 512,
            activation: Activation::Silu,
            rope_theta: 10000.0,
            seed: 3,
        }
    }

    /// Total parameter count (embedding + per-layer attention/FFN + norms),
    /// with the LM head tied to the embedding.
    pub fn params(&self) -> u64 {
        let d = self.d_model as u64;
        let f = self.ffn_hidden as u64;
        let v = self.vocab_size as u64;
        let per_layer = 4 * d * d // wq wk wv wo
            + 3 * d * f           // w1 (gate), w3 (up), w2 (down) — gated FFN
            + 2 * d; //            two RMSNorm gains
        v * d + self.n_layers as u64 * per_layer + d
    }

    /// FLOPs of one decode step at cache length `l` (multiply-accumulate
    /// counted as 2 ops) — the workload the accelerator executes per token.
    pub fn decode_flops(&self, cache_len: usize) -> u64 {
        let d = self.d_model as u64;
        let f = self.ffn_hidden as u64;
        let l = cache_len as u64;
        let dh = self.head_dim() as u64;
        let h = self.n_heads as u64;
        let qkv = 3 * 2 * d * d;
        let attn = h * (2 * dh * l + 2 * l * dh);
        let proj = 2 * d * d;
        let ffn = 3 * 2 * d * f; // gate, up and down projections
        self.n_layers as u64 * (qkv + attn + proj + ffn)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.d_model == 0 || self.n_heads == 0 || self.n_layers == 0 || self.ffn_hidden == 0 {
            return Err("dimensions must be positive".into());
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!("n_heads {} must divide d_model {}", self.n_heads, self.d_model));
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err(format!(
                "head dimension {} must be even (RoPE rotates channel pairs)",
                self.head_dim()
            ));
        }
        if self.vocab_size < 2 {
            return Err("vocabulary must have at least 2 tokens".into());
        }
        if self.max_seq_len == 0 {
            return Err("max_seq_len must be positive".into());
        }
        if !(self.rope_theta.is_finite() && self.rope_theta > 0.0) {
            return Err(format!("rope_theta {} must be finite and positive", self.rope_theta));
        }
        Ok(())
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_head_dim_is_128() {
        assert_eq!(ModelConfig::llama2_7b().head_dim(), 128);
    }

    #[test]
    fn llama2_param_count_near_7b() {
        let p = ModelConfig::llama2_7b().params();
        assert!(p > 6_000_000_000 && p < 8_000_000_000, "params {p}");
    }

    #[test]
    fn presets_validate() {
        assert!(ModelConfig::llama2_7b().validate().is_ok());
        assert!(ModelConfig::small().validate().is_ok());
        assert!(ModelConfig::tiny().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ModelConfig::tiny();
        c.n_heads = 5;
        assert!(c.validate().is_err());
        c = ModelConfig::tiny();
        c.vocab_size = 1;
        assert!(c.validate().is_err());
        c = ModelConfig::tiny();
        c.d_model = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn odd_head_dim_and_empty_ffn_are_rejected() {
        let mut c = ModelConfig::tiny();
        (c.d_model, c.n_heads) = (6, 2);
        assert!(c.validate().unwrap_err().contains("even"));
        c.n_heads = 3;
        assert!(c.validate().is_ok(), "head dimension 2 is the smallest RoPE can rotate");
        c = ModelConfig::tiny();
        c.ffn_hidden = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rope_theta_that_would_fill_the_tables_with_nan_is_rejected() {
        for theta in [0.0, -0.0, -10000.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let c = ModelConfig { rope_theta: theta, ..ModelConfig::tiny() };
            assert!(c.validate().unwrap_err().contains("rope_theta"), "rope_theta {theta}");
        }
        let c = ModelConfig { rope_theta: f32::MIN_POSITIVE, ..ModelConfig::tiny() };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn decode_flops_grow_with_cache() {
        let c = ModelConfig::small();
        assert!(c.decode_flops(1024) > c.decode_flops(128));
    }
}
