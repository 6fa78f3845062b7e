//! Gated recurrent unit, for the GRU4Rec baseline.

use autograd::{Ctx, ParamRef};
use rand::rngs::StdRng;
use tensor::Tensor;

use crate::{Linear, Module};

/// A single-layer GRU.
///
/// Update equations (Cho et al., 2014):
/// ```text
/// z  = σ(x·Wz + h·Uz + bz)
/// r  = σ(x·Wr + h·Ur + br)
/// h̃  = tanh(x·Wh + (r⊙h)·Uh + bh)
/// h' = (1−z)⊙h + z⊙h̃
/// ```
pub struct Gru {
    pub(crate) wz: Linear,
    pub(crate) uz: Linear,
    pub(crate) wr: Linear,
    pub(crate) ur: Linear,
    pub(crate) wh: Linear,
    pub(crate) uh: Linear,
    pub(crate) dim: usize,
}

impl Gru {
    /// Creates a GRU with input and hidden size `dim`.
    pub fn new(rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Gru {
            wz: Linear::new(rng, &format!("{name}.wz"), dim, dim, true),
            uz: Linear::new(rng, &format!("{name}.uz"), dim, dim, false),
            wr: Linear::new(rng, &format!("{name}.wr"), dim, dim, true),
            ur: Linear::new(rng, &format!("{name}.ur"), dim, dim, false),
            wh: Linear::new(rng, &format!("{name}.wh"), dim, dim, true),
            uh: Linear::new(rng, &format!("{name}.uh"), dim, dim, false),
            dim,
        }
    }

    /// Hidden size.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One step: `x: [b, dim]`, `h: [b, dim]` → new hidden `[b, dim]`.
    pub fn step<C: Ctx>(&self, c: &C, x: &C::V, h: &C::V) -> C::V {
        let gate = |w: &Linear, u: &Linear| c.sigmoid(&c.add(&w.forward(c, x), &u.forward(c, h)));
        let z = gate(&self.wz, &self.uz);
        let r = gate(&self.wr, &self.ur);
        let wx = self.wh.forward(c, x);
        let h_cand = c.tanh(&c.add(&wx, &self.uh.forward(c, &c.mul(&r, h))));
        let one_minus_z = c.add_scalar(&c.scale(&z, -1.0), 1.0);
        c.add(&c.mul(&one_minus_z, h), &c.mul(&z, &h_cand))
    }

    /// Input row `t` of `x: [b, n, dim]`, as `[b, dim]`.
    fn input_at<C: Ctx>(&self, c: &C, x: &C::V, t: usize) -> C::V {
        let b = c.dims(x)[0];
        c.reshape(&c.slice_axis(x, 1, t, t + 1), vec![b, self.dim])
    }

    /// Runs the GRU over a sequence `x: [b, n, dim]`, returning all hidden
    /// states stacked as `[b, n, dim]` (initial hidden is zero).
    pub fn forward_sequence<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        let dims = c.dims(x);
        let (b, n) = (dims[0], dims[1]);
        let mut h = c.constant(Tensor::zeros(vec![b, self.dim]));
        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            h = self.step(c, &self.input_at(c, x, t), &h);
            outputs.push(c.reshape(&h, vec![b, 1, self.dim]));
        }
        c.concat(&outputs.iter().collect::<Vec<_>>(), 1)
    }

    /// The last hidden state `[b, dim]` of the same recurrence, without
    /// stacking the others.
    pub fn forward_sequence_last<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        let dims = c.dims(x);
        let mut h = c.constant(Tensor::zeros(vec![dims[0], self.dim]));
        for t in 0..dims[1] {
            h = self.step(c, &self.input_at(c, x, t), &h);
        }
        h
    }
}

impl Module for Gru {
    fn parameters(&self) -> Vec<ParamRef> {
        [&self.wz, &self.uz, &self.wr, &self.ur, &self.wh, &self.uh]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Graph;
    use rand::SeedableRng;
    use tensor::init;

    #[test]
    fn step_and_sequence_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let gru = Gru::new(&mut rng, "gru", 4);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![2, 4], 0.0, 1.0));
        let h = g.constant(Tensor::zeros(vec![2, 4]));
        assert_eq!(gru.step(&g, &x, &h).dims(), vec![2, 4]);

        let xs = g.constant(init::randn(&mut rng, vec![2, 5, 4], 0.0, 1.0));
        assert_eq!(gru.forward_sequence(&g, &xs).dims(), vec![2, 5, 4]);
    }

    #[test]
    fn hidden_bounded_by_tanh_dynamics() {
        let mut rng = StdRng::seed_from_u64(0);
        let gru = Gru::new(&mut rng, "gru", 4);
        let g = Graph::new();
        let xs = g.constant(init::randn(&mut rng, vec![1, 20, 4], 0.0, 10.0));
        let h = gru.forward_sequence(&g, &xs).value();
        // h is a convex combination of tanh outputs, so |h| ≤ 1.
        assert!(h.max_all() <= 1.0 + 1e-5);
        assert!(h.min_all() >= -1.0 - 1e-5);
    }

    #[test]
    fn sequence_is_causal() {
        let mut rng = StdRng::seed_from_u64(1);
        let gru = Gru::new(&mut rng, "gru", 3);
        let base = init::randn(&mut rng, vec![1, 4, 3], 0.0, 1.0);
        let mut altered = base.clone();
        // change only the last timestep
        for j in 0..3 {
            altered.set(&[0, 3, j], 9.0);
        }
        let g = Graph::new();
        let y0 = gru.forward_sequence(&g, &g.constant(base)).value();
        let y1 = gru.forward_sequence(&g, &g.constant(altered)).value();
        for t in 0..3 {
            for j in 0..3 {
                assert!((y0.at(&[0, t, j]) - y1.at(&[0, t, j])).abs() < 1e-6);
            }
        }
        assert!((y0.at(&[0, 3, 0]) - y1.at(&[0, 3, 0])).abs() > 1e-4);
    }

    #[test]
    fn gradcheck_gru_step() {
        use autograd::numeric::assert_grads_close;
        let mut rng = StdRng::seed_from_u64(2);
        let gru = Gru::new(&mut rng, "gru", 3);
        let x = init::uniform(&mut rng, vec![2, 3], -1.0, 1.0);
        let h0 = init::uniform(&mut rng, vec![2, 3], -0.5, 0.5);
        let params = gru.parameters();
        assert_grads_close(&params, 1e-2, 3e-2, move |g| {
            gru.step(g, &g.constant(x.clone()), &g.constant(h0.clone()))
                .square()
                .sum_all()
        });
    }
}
