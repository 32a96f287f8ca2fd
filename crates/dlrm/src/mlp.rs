//! A functional multi-layer perceptron with procedurally generated weights.
//!
//! DLRM's bottom and top MLPs are ordinary dense layers with ReLU
//! activations (the final top-MLP layer uses a sigmoid to produce the CTR).
//! Weights are generated deterministically from a seed so that no multi-GB
//! parameter files are needed and results are reproducible.

/// A dense MLP: a stack of `Linear(in, out) + activation` layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    dims: Vec<u32>,
    seed: u64,
}

impl Mlp {
    /// Creates an MLP with the given layer dimensions (`dims[0]` is the input
    /// width, `dims.last()` the output width).
    ///
    /// # Panics
    /// Panics if fewer than two dimensions are given or any is zero.
    pub fn new(dims: Vec<u32>, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs an input and an output dimension"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "layer dimensions must be positive"
        );
        Mlp { dims, seed }
    }

    /// Input width.
    pub fn input_dim(&self) -> u32 {
        self.dims[0]
    }

    /// Weight of layer `layer` connecting input `i` to output `j`,
    /// deterministic in the seed. Scaled roughly like Xavier initialisation
    /// so deep stacks neither explode nor vanish.
    pub fn weight(&self, layer: usize, i: u32, j: u32) -> f32 {
        let fan_in = self.dims[layer] as f32;
        let mut x = (layer as u64)
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((i as u64) << 32 | j as u64)
            .wrapping_add(self.seed.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        let unit = ((x % 2000) as f32 - 1000.0) / 1000.0;
        unit / fan_in.sqrt()
    }

    /// Bias of output `j` of layer `layer`.
    pub fn bias(&self, layer: usize, j: u32) -> f32 {
        let mut x = (layer as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(j as u64)
            .wrapping_add(self.seed);
        x ^= x >> 31;
        ((x % 200) as f32 - 100.0) / 1000.0
    }

    /// Runs the MLP on a batch laid out row-major as
    /// `batch_size x input_dim`, returning `batch_size x output_dim`.
    /// Hidden layers use ReLU; the output layer is linear (callers apply
    /// sigmoid where needed).
    ///
    /// # Panics
    /// Panics if the input length is not a multiple of the input dimension.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let in_dim = self.input_dim() as usize;
        assert!(
            input.len().is_multiple_of(in_dim),
            "input length {} is not a multiple of the input dimension {}",
            input.len(),
            in_dim
        );
        let batch = input.len() / in_dim;
        let mut current = input.to_vec();
        for layer in 0..self.dims.len() - 1 {
            let (ni, no) = (self.dims[layer] as usize, self.dims[layer + 1] as usize);
            let is_last = layer == self.dims.len() - 2;
            let mut next = vec![0.0f32; batch * no];
            for b in 0..batch {
                for j in 0..no {
                    let mut acc = self.bias(layer, j as u32);
                    for i in 0..ni {
                        acc += current[b * ni + i] * self.weight(layer, i as u32, j as u32);
                    }
                    next[b * no + j] = if is_last { acc } else { acc.max(0.0) };
                }
            }
            current = next;
        }
        current
    }
}

/// The logistic sigmoid, used on the top MLP's output to produce a CTR.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_produces_expected_shape() {
        let mlp = Mlp::new(vec![8, 4, 2], 1);
        let out = mlp.forward(&[0.5; 3 * 8]);
        assert_eq!(out.len(), 3 * 2);
    }

    #[test]
    fn forward_is_deterministic_and_seed_sensitive() {
        let a = Mlp::new(vec![8, 4, 2], 1);
        let b = Mlp::new(vec![8, 4, 2], 1);
        let c = Mlp::new(vec![8, 4, 2], 2);
        let x = vec![0.3; 8];
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn hidden_layers_are_relu_clamped() {
        let mlp = Mlp::new(vec![4, 16, 16, 1], 3);
        // Run a single sample and inspect the hidden activation indirectly:
        // the output must be finite and bounded for bounded inputs.
        let out = mlp.forward(&[1.0, -1.0, 0.5, -0.5]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_finite());
        assert!(out[0].abs() < 100.0);
    }

    #[test]
    fn weights_scale_with_fan_in() {
        let mlp = Mlp::new(vec![10_000, 4], 0);
        for i in 0..100 {
            assert!(mlp.weight(0, i, 0).abs() <= 1.0 / (10_000f32).sqrt() + 1e-6);
        }
    }

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn batch_rows_are_independent() {
        let mlp = Mlp::new(vec![4, 3, 2], 9);
        let single = mlp.forward(&[0.1, 0.2, 0.3, 0.4]);
        let batch = mlp.forward(&[0.9, 0.8, 0.7, 0.6, 0.1, 0.2, 0.3, 0.4]);
        assert_eq!(&batch[2..4], single.as_slice());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn wrong_input_length_panics() {
        let mlp = Mlp::new(vec![4, 2], 0);
        let _ = mlp.forward(&[1.0; 6]);
    }

    #[test]
    #[should_panic(expected = "input and an output")]
    fn single_dim_rejected() {
        let _ = Mlp::new(vec![4], 0);
    }
}
