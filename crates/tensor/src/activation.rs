//! Nonlinear activations used by the feed-forward layers (GELU / ReLU /
//! SiLU, per Fig. 1 of the paper).

/// Rectified linear unit.
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Gaussian error linear unit (tanh approximation, as deployed in GPT-style
/// models).
pub(crate) fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Sigmoid linear unit `x * sigmoid(x)` (the Llama-family FFN activation).
pub(crate) fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Which FFN activation a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// `max(0, x)`
    Relu,
    /// tanh-approximated GELU
    Gelu,
    /// `x · σ(x)` — Llama default
    #[default]
    Silu,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => relu(x),
            Activation::Gelu => gelu(x),
            Activation::Silu => silu(x),
        }
    }

    /// Applies the activation element-wise in place.
    pub fn apply_slice(self, xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v = self.apply(*v);
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Activation::Relu => write!(f, "relu"),
            Activation::Gelu => write!(f, "gelu"),
            Activation::Silu => write!(f, "silu"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
    }

    #[test]
    fn gelu_known_points() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn silu_known_points() {
        assert!(silu(0.0).abs() < 1e-7);
        assert!((silu(1.0) - 0.7311).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_symmetry() {
        // silu(x) = x·σ(x), and σ(x) + σ(−x) = 1 gives silu(x) − silu(−x) = x.
        for &x in &[0.0_f32, 0.5, 3.0] {
            assert!((silu(x) - silu(-x) - x).abs() < 1e-6);
        }
    }

    #[test]
    fn activation_enum_dispatch_matches_functions() {
        for &x in &[-2.0_f32, -0.5, 0.0, 0.5, 2.0] {
            assert_eq!(Activation::Relu.apply(x), relu(x));
            assert_eq!(Activation::Gelu.apply(x), gelu(x));
            assert_eq!(Activation::Silu.apply(x), silu(x));
        }
    }

    #[test]
    fn apply_slice_is_elementwise() {
        let mut xs = vec![-1.0, 0.0, 1.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Silu.to_string(), "silu");
        assert_eq!(Activation::default(), Activation::Silu);
    }
}
