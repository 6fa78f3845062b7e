//! Local gradient accumulation for data-parallel training.
//!
//! A [`GradientSet`] holds `(parameter, gradient)` pairs collected by
//! [`Graph::backward_collect`](crate::Graph::backward_collect) without
//! touching the shared [`Parameter::grad`](crate::Parameter) buffers. Worker
//! threads each produce one set per shard; the coordinator merges them with
//! [`GradientSet::merge_scaled`] **in fixed shard order** and deposits the
//! result once via [`GradientSet::apply`]. Because floating-point addition is
//! not associative, this fixed-order reduction is what makes training with
//! `threads = 1` and `threads = N` produce bitwise-identical updates: thread
//! count affects only which worker computes each shard, never the order in
//! which shard gradients are combined.

use std::collections::HashMap;

use tensor::Tensor;

use crate::graph::ParamRef;

/// An ordered collection of per-parameter gradients.
///
/// Entries keep their first-touch order (reverse-tape order within a shard,
/// merge order across shards), so every reduction over a `GradientSet` is
/// deterministic. The set is `Send`: it owns tensors and thread-safe
/// parameter handles only, so workers can build sets on worker threads and
/// move them back to the coordinator.
#[derive(Default)]
pub struct GradientSet {
    entries: Vec<(ParamRef, Tensor)>,
    /// Identity key ([`ParamRef::key`]) → index into `entries`.
    index: HashMap<usize, usize>,
}

impl GradientSet {
    /// Creates an empty set.
    pub fn new() -> GradientSet {
        GradientSet::default()
    }

    /// Number of parameters with a gradient in this set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no gradients have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `weight * grad` to the entry for `param`, creating it if absent.
    pub fn accumulate(&mut self, param: &ParamRef, grad: &Tensor, weight: f32) {
        match self.index.get(&param.key()) {
            Some(&i) => self.entries[i].1.axpy(weight, grad),
            None => {
                // Pooled storage: zeroed on take, so bitwise identical to a
                // fresh allocation (see `tensor::pool`).
                let mut g = Tensor::pooled_zeros(grad.dims().to_vec());
                g.axpy(weight, grad);
                self.index.insert(param.key(), self.entries.len());
                self.entries.push((param.clone(), g));
            }
        }
    }

    /// Merges `other` into `self`, scaling every gradient by `weight`.
    ///
    /// Shard reduction: the coordinator calls this once per shard, in shard
    /// order, with `weight = shard_len / batch_len`. The weights sum to one
    /// across shards, so the merged set is the *mean* gradient over the batch
    /// and downstream consumers (optimizer, clipping) are agnostic to how
    /// many shards produced it.
    pub fn merge_scaled(&mut self, other: &GradientSet, weight: f32) {
        for (p, g) in &other.entries {
            self.accumulate(p, g, weight);
        }
    }

    /// Gradient for `param`, if one was accumulated.
    pub fn get(&self, param: &ParamRef) -> Option<&Tensor> {
        self.index.get(&param.key()).map(|&i| &self.entries[i].1)
    }

    /// Iterates `(parameter, gradient)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&ParamRef, &Tensor)> {
        self.entries.iter().map(|(p, g)| (p, g))
    }

    /// Deposits every gradient into its parameter's shared `grad` buffer
    /// (adding to whatever is already accumulated there).
    pub fn apply(&self) {
        for (p, g) in &self.entries {
            p.borrow_mut().grad.add_assign(g);
        }
    }
}

impl Drop for GradientSet {
    /// A set lives for one step (a shard's, or the merged batch's); its
    /// pooled buffers serve the next step's sets.
    fn drop(&mut self) {
        for (_, g) in self.entries.drain(..) {
            g.recycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Parameter};

    fn assert_send<T: Send>() {}

    #[test]
    fn gradient_set_is_send() {
        assert_send::<GradientSet>();
    }

    #[test]
    fn collect_matches_direct_backward() {
        let p = Parameter::shared("p", Tensor::from_vec(vec![1.0, 2.0], vec![2]));
        let g = Graph::new();
        let loss = g.param(&p).mul(&g.param(&p)).sum_all();
        let set = g.backward_collect(&loss);
        assert_eq!(
            p.borrow().grad.data(),
            &[0.0, 0.0],
            "collect must not touch shared grads"
        );

        let g2 = Graph::new();
        let loss2 = g2.param(&p).mul(&g2.param(&p)).sum_all();
        g2.backward_from(&loss2);
        assert_eq!(set.get(&p).unwrap().data(), p.borrow().grad.data());
    }

    #[test]
    fn apply_deposits_into_shared_grads() {
        let p = Parameter::shared("p", Tensor::scalar(3.0));
        let g = Graph::new();
        let loss = g.param(&p).scale(2.0);
        let set = g.backward_collect(&loss);
        set.apply();
        set.apply();
        assert_eq!(
            p.borrow().grad.item(),
            4.0,
            "apply accumulates, twice = 2 + 2"
        );
    }

    #[test]
    fn merge_scaled_weights_sum_to_mean() {
        let p = Parameter::shared("p", Tensor::scalar(1.0));
        let shard = |factor: f32| {
            let g = Graph::new();
            let loss = g.param(&p).scale(factor);
            g.backward_collect(&loss)
        };
        // Two shards of sizes 3 and 1 over a batch of 4.
        let mut merged = GradientSet::new();
        merged.merge_scaled(&shard(2.0), 3.0 / 4.0);
        merged.merge_scaled(&shard(6.0), 1.0 / 4.0);
        assert_eq!(merged.get(&p).unwrap().item(), 3.0); // 0.75*2 + 0.25*6
    }
}
