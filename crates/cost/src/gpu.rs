//! Roofline model of a discrete GPU for the end-to-end comparison
//! (Table II, bottom).
//!
//! Single-batch LLM decode on a GPU is bandwidth-bound: every token
//! streams the full weight set through HBM/GDDR. Achieved throughput is
//! therefore `efficiency × bandwidth / bytes_per_token`, where
//! `efficiency` captures kernel-launch overhead, attention memory
//! irregularity and the fact that single-batch GEMV cannot saturate the
//! memory system — measured single-batch Llama-2 7B FP16 decode on an RTX
//! 4090 lands near 35–55 tokens/s depending on the stack, i.e. an
//! efficiency of roughly 0.5–0.75.

/// A bandwidth-roofline GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GpuModel {
    /// Marketing name.
    pub name: &'static str,
    /// Memory bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// Peak FP16 throughput in TFLOPS (for the compute roofline arm).
    pub fp16_tflops: f64,
    /// Board power in W.
    pub power_w: f64,
    /// Fraction of peak bandwidth achieved on single-batch decode.
    pub decode_efficiency: f64,
}

impl GpuModel {
    /// NVIDIA GeForce RTX 4090 (public specifications), with a measured
    /// single-batch decode efficiency of 0.7.
    pub(crate) fn rtx4090() -> Self {
        Self {
            name: "RTX 4090",
            bandwidth_gb_s: 1008.0,
            fp16_tflops: 82.58,
            power_w: 450.0,
            decode_efficiency: 0.7,
        }
    }

    /// Decode throughput in tokens/s for a model streaming
    /// `weight_bytes_per_token` (plus KV traffic) per token.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_token` is zero.
    pub(crate) fn decode_tokens_per_second(&self, bytes_per_token: u64) -> f64 {
        assert!(bytes_per_token > 0, "bytes per token must be positive");
        let bandwidth_arm = self.decode_efficiency * self.bandwidth_gb_s * 1e9 / bytes_per_token as f64;
        // Compute arm: 2 FLOPs per streamed FP16 weight byte pair.
        let flops_per_token = bytes_per_token as f64; // 2 FLOPs per 2 bytes
        let compute_arm = self.fp16_tflops * 1e12 / flops_per_token;
        bandwidth_arm.min(compute_arm)
    }

    /// Energy efficiency in tokens per joule at decode.
    pub(crate) fn tokens_per_joule(&self, bytes_per_token: u64) -> f64 {
        self.decode_tokens_per_second(bytes_per_token) / self.power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LLAMA7B_BYTES: u64 = 13_600_000_000;

    #[test]
    fn decode_is_bandwidth_bound_for_7b() {
        let gpu = GpuModel::rtx4090();
        let tps = gpu.decode_tokens_per_second(LLAMA7B_BYTES);
        // 0.7 × 1008 GB/s / 13.6 GB ≈ 52 tokens/s.
        assert!((45.0..60.0).contains(&tps), "tokens/s {tps}");
    }

    #[test]
    fn compute_arm_binds_for_tiny_models() {
        let gpu = GpuModel::rtx4090();
        // A 1 MB "model": bandwidth arm would be ~700k tokens/s; compute
        // arm is ~82.58e12 / 1e6 ≈ 82.6M tokens/s — bandwidth still binds.
        // Force the compute arm with an absurdly low-bandwidth GPU.
        let weird = GpuModel { bandwidth_gb_s: 1e9, ..gpu };
        let tps = weird.decode_tokens_per_second(1_000_000);
        assert!((tps - 82.58e6).abs() / 82.58e6 < 0.01, "tokens/s {tps}");
    }

    #[test]
    fn tokens_per_joule_consistent() {
        let gpu = GpuModel::rtx4090();
        let tpj = gpu.tokens_per_joule(LLAMA7B_BYTES);
        assert!((tpj - gpu.decode_tokens_per_second(LLAMA7B_BYTES) / 450.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bytes per token")]
    fn zero_bytes_rejected() {
        GpuModel::rtx4090().decode_tokens_per_second(0);
    }
}
