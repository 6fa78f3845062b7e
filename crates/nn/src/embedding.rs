//! Item/position embedding table (the `M ∈ R^{N×d}` of Eq. 4).

use autograd::{Ctx, Graph, ParamRef, Parameter, Var};
use rand::rngs::StdRng;
use tensor::init;

use crate::Module;

/// A learnable lookup table `[vocab, dim]`.
///
/// Index 0 is conventionally the padding item; models typically multiply
/// padded positions by a timeline mask, and evaluation never ranks item 0.
pub struct Embedding {
    pub(crate) table: ParamRef,
    pub(crate) vocab: usize,
    pub(crate) dim: usize,
}

impl Embedding {
    /// New table with `N(0, 0.02²)` entries (SASRec convention).
    pub fn new(rng: &mut StdRng, name: &str, vocab: usize, dim: usize) -> Self {
        let table = Parameter::shared(
            format!("{name}.table"),
            init::embedding_init(rng, vec![vocab, dim]),
        );
        Embedding { table, vocab, dim }
    }

    /// The full table as a graph var (for output projection `z · Mᵀ`).
    pub fn full(&self, g: &Graph) -> Var {
        g.param(&self.table)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The table parameter `[vocab, dim]` (tied scoring, ANN indexes,
    /// analytics like Fig. 6).
    pub fn table(&self) -> &ParamRef {
        &self.table
    }

    /// Looks up a flat index list, returning `[indices.len(), dim]`.
    pub fn forward_flat<C: Ctx>(&self, c: &C, indices: &[usize]) -> C::V {
        c.gather(&self.table, indices)
    }

    /// Looks up a batch of fixed-length sequences, returning
    /// `[batch, seq_len, dim]`.
    pub fn forward_batch<C: Ctx>(&self, c: &C, batch: &[Vec<usize>]) -> C::V {
        let b = batch.len();
        let n = batch.first().map_or(0, Vec::len);
        let flat: Vec<usize> = batch
            .iter()
            .flat_map(|s| {
                assert_eq!(s.len(), n, "all sequences in a batch must be padded equal");
                s.iter().copied()
            })
            .collect();
        c.reshape(&self.forward_flat(c, &flat), vec![b, n, self.dim])
    }

    /// Tied-table scores `x · Mᵀ` for `x: [.., dim]`.
    pub fn project<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        c.matmul_transb_w(x, &self.table)
    }
}

impl Module for Embedding {
    fn parameters(&self) -> Vec<ParamRef> {
        vec![self.table.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tensor::Tensor;

    #[test]
    fn lookup_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut rng, "item", 10, 4);
        let g = Graph::new();
        assert_eq!(e.forward_flat(&g, &[1, 2, 3]).dims(), vec![3, 4]);
        let batch = vec![vec![1, 2], vec![3, 0]];
        assert_eq!(e.forward_batch(&g, &batch).dims(), vec![2, 2, 4]);
    }

    #[test]
    fn lookup_matches_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut rng, "item", 5, 3);
        e.table().borrow_mut().value = Tensor::arange(15).reshape(vec![5, 3]).unwrap();
        let g = Graph::new();
        let v = e.forward_flat(&g, &[4, 1]);
        assert_eq!(v.value().data(), &[12.0, 13.0, 14.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn repeated_indices_accumulate_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut rng, "item", 5, 2);
        let g = Graph::new();
        let loss = e.forward_flat(&g, &[2, 2, 2]).sum_all();
        loss.backward();
        let grad = e.table().borrow().grad.clone();
        assert_eq!(grad.row(2), &[3.0, 3.0]);
        assert_eq!(grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "padded equal")]
    fn ragged_batch_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut rng, "item", 5, 2);
        let g = Graph::new();
        let _ = e.forward_batch(&g, &[vec![1, 2], vec![3]]);
    }
}
