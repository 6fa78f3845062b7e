//! Neural-network layers built on [`autograd`], sized for the Meta-SGCL
//! reproduction: linear/embedding/layer-norm/dropout primitives, multi-head
//! self-attention, Transformer encoder blocks (SASRec-style), and a GRU for
//! the GRU4Rec baseline.
//!
//! Every layer follows the same conventions:
//!
//! * construction takes an explicit `&mut StdRng` (reproducibility),
//! * `forward` is written once against an [`autograd::Ctx`]: under the
//!   [`autograd::Graph`] it records the training tape, under
//!   [`autograd::Eager`] it runs on plain tensors over the same weights
//!   (serving),
//! * `parameters()` exposes the trainable leaves for optimizers and for the
//!   meta-optimized freezing schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod dropout;
mod embedding;
mod feedforward;
mod gru;
pub mod infer;
pub mod io;
mod linear;
mod norm;
mod packed;
mod transformer;

pub use attention::{causal_mask, MultiHeadSelfAttention};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use feedforward::{Activation, FeedForward};
pub use gru::Gru;
pub use infer::{EncoderKv, Freeze};
pub use linear::Linear;
pub use norm::LayerNorm;
pub use packed::Packing;
pub use transformer::{TopRows, TransformerEncoder, TransformerLayer};

use autograd::ParamRef;

/// A trainable component exposing its parameter leaves.
pub trait Module {
    /// All trainable parameters, in a stable order.
    fn parameters(&self) -> Vec<ParamRef>;

    /// Marks every parameter (non-)trainable. Used to freeze modules during
    /// the meta-optimized second stage.
    fn set_trainable(&self, trainable: bool) {
        for p in self.parameters() {
            p.borrow_mut().trainable = trainable;
        }
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.borrow_mut().zero_grad();
        }
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters()
            .iter()
            .map(|p| p.borrow().value.numel())
            .sum()
    }
}
