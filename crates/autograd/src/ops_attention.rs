//! Segmented attention for [`Var`]: one tape node with its own adjoint.

use std::rc::Rc;

use tensor::bug::OrBug;
use tensor::segment::{self, Segments};
use tensor::Tensor;

use crate::graph::{Node, Var};
use crate::meta::ShapeSig;

impl Var {
    /// Multi-head attention inside each segment of packed rows
    /// ([`tensor::segment::seg_attention`]): `self`, `k` and `v` are the
    /// `[R, d]` query, key and value rows, `keep` an optional dropout
    /// keep-mask over the attention weights. The adjoint
    /// ([`tensor::segment::seg_attention_backward`]) keeps the three
    /// operands, the weights and the mask.
    pub fn seg_attention(
        &self,
        k: &Var,
        v: &Var,
        segs: &Segments,
        heads: usize,
        keep: Option<&Tensor>,
    ) -> Var {
        for other in [k, v] {
            assert!(
                Rc::ptr_eq(&self.graph.inner, &other.graph.inner),
                "vars belong to different graphs"
            );
        }
        let ids = [self.id, k.id, v.id];
        let inner = self.graph.inner.borrow();
        let [qv, kv, vv] = ids.map(|id| &inner.nodes[id].value);
        let (value, probs) =
            segment::seg_attention(qv, kv, vv, segs, heads, keep).or_bug("seg_attention");
        let requires = ids.iter().any(|&id| inner.nodes[id].requires_grad);
        let backward = requires.then(|| {
            let (qv, kv, vv) = (qv.clone(), kv.clone(), vv.clone());
            let (segs, keep) = (segs.clone(), keep.cloned());
            Box::new(move |g: &Tensor, sink: &mut crate::graph::GradSink| {
                let (dq, dk, dv) = segment::seg_attention_backward(
                    g,
                    &qv,
                    &kv,
                    &vv,
                    &probs,
                    &segs,
                    heads,
                    keep.as_ref(),
                )
                .or_bug("seg_attention-back");
                sink(ids[0], dq);
                sink(ids[1], dk);
                sink(ids[2], dv);
            }) as crate::graph::BackFn
        });
        drop(inner);
        let sig = ShapeSig::SegAttention {
            heads,
            cells: segs.cells(heads),
            masked: keep.is_some(),
        };
        self.graph.push(Node {
            value,
            requires_grad: requires,
            backward,
            param: None,
            op: "seg_attention",
            sig,
            inputs: ids.to_vec(),
        })
    }
}
