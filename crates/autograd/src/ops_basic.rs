//! Elementwise arithmetic and unary math ops for [`Var`].

use tensor::bug::OrBug;
use tensor::{ops, Tensor};

use crate::graph::Var;
use crate::meta::ShapeSig;

/// `sqrt(2/π)`, the GELU tanh-approximation constant.
const GELU_C: f32 = 0.797_884_6;

/// GELU (tanh approximation) of one value; shared with the eager context.
pub(crate) fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
}

/// Logistic sigmoid of one value; shared with the eager context.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Var {
    // -- binary arithmetic (broadcasting) ---------------------------------

    /// Elementwise `self + other` with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let value = self
            .with_value(|a| other.with_value(|b| ops::add(a, b)))
            .or_bug("add");
        let (aid, bid) = (self.id, other.id);
        let (ad, bd) = (self.dims(), other.dims());
        self.binary(other, "add", ShapeSig::Broadcast, value, move |g, sink| {
            sink(aid, ops::unbroadcast(g, &ad));
            sink(bid, ops::unbroadcast(g, &bd));
        })
    }

    /// Elementwise `self - other` with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self
            .with_value(|a| other.with_value(|b| ops::sub(a, b)))
            .or_bug("sub");
        let (aid, bid) = (self.id, other.id);
        let (ad, bd) = (self.dims(), other.dims());
        self.binary(other, "sub", ShapeSig::Broadcast, value, move |g, sink| {
            sink(aid, ops::unbroadcast(g, &ad));
            let mut gb = ops::unbroadcast(g, &bd);
            gb.scale_inplace(-1.0);
            sink(bid, gb);
        })
    }

    /// Elementwise `self * other` with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let a_val = self.value();
        let b_val = other.value();
        let value = ops::mul(&a_val, &b_val).or_bug("mul");
        let (aid, bid) = (self.id, other.id);
        self.binary(other, "mul", ShapeSig::Broadcast, value, move |g, sink| {
            let ga = ops::mul(g, &b_val).or_bug("mul-back");
            sink(aid, ops::unbroadcast(&ga, a_val.dims()));
            let gb = ops::mul(g, &a_val).or_bug("mul-back");
            sink(bid, ops::unbroadcast(&gb, b_val.dims()));
        })
    }

    /// Elementwise `self / other` with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let a_val = self.value();
        let b_val = other.value();
        let value = ops::div(&a_val, &b_val).or_bug("div");
        let (aid, bid) = (self.id, other.id);
        let out_val = value.clone();
        self.binary(other, "div", ShapeSig::Broadcast, value, move |g, sink| {
            // d/da (a/b) = 1/b ; d/db (a/b) = -a/b² = -(a/b)/b
            let ga = ops::div(g, &b_val).or_bug("div-back");
            sink(aid, ops::unbroadcast(&ga, a_val.dims()));
            let gb_full =
                ops::div(&ops::mul(g, &out_val).or_bug("div-back"), &b_val).or_bug("div-back");
            let mut gb = ops::unbroadcast(&gb_full, b_val.dims());
            gb.scale_inplace(-1.0);
            sink(bid, gb);
        })
    }

    // -- scalar ops --------------------------------------------------------

    /// `self * c`.
    pub fn scale(&self, c: f32) -> Var {
        let value = self.with_value(|a| a.map(|x| x * c));
        let aid = self.id;
        self.unary("scale", ShapeSig::Elementwise, value, move |g, sink| {
            let mut ga = g.clone();
            ga.scale_inplace(c);
            sink(aid, ga);
        })
    }

    /// `self + c`.
    pub fn add_scalar(&self, c: f32) -> Var {
        let value = self.with_value(|a| a.map(|x| x + c));
        let aid = self.id;
        self.unary(
            "add_scalar",
            ShapeSig::Elementwise,
            value,
            move |g, sink| sink(aid, g.clone()),
        )
    }

    /// `-self`.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    // -- unary math --------------------------------------------------------

    /// Elementwise `exp`.
    pub fn exp(&self) -> Var {
        let value = self.with_value(|a| a.map(f32::exp));
        let out = value.clone();
        let aid = self.id;
        self.unary("exp", ShapeSig::Elementwise, value, move |g, sink| {
            sink(aid, ops::mul(g, &out).or_bug("exp-back"));
        })
    }

    /// Elementwise natural log.
    pub fn log(&self) -> Var {
        let a_val = self.value();
        let value = a_val.map(f32::ln);
        let aid = self.id;
        self.unary("log", ShapeSig::Elementwise, value, move |g, sink| {
            sink(aid, ops::div(g, &a_val).or_bug("log-back"));
        })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let value = self.with_value(|a| a.map(f32::sqrt));
        let out = value.clone();
        let aid = self.id;
        self.unary("sqrt", ShapeSig::Elementwise, value, move |g, sink| {
            // d sqrt(x) = 1/(2 sqrt(x))
            let denom = out.map(|y| 2.0 * y);
            sink(aid, ops::div(g, &denom).or_bug("sqrt-back"));
        })
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let a_val = self.value();
        let value = a_val.map(|x| x * x);
        let aid = self.id;
        self.unary("square", ShapeSig::Elementwise, value, move |g, sink| {
            let two_a = a_val.map(|x| 2.0 * x);
            sink(aid, ops::mul(g, &two_a).or_bug("square-back"));
        })
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Var {
        let a_val = self.value();
        let value = a_val.map(|x| x.max(0.0));
        let aid = self.id;
        self.unary("relu", ShapeSig::Elementwise, value, move |g, sink| {
            let mask = a_val.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
            sink(aid, ops::mul(g, &mask).or_bug("relu-back"));
        })
    }

    /// Elementwise GELU (tanh approximation).
    pub fn gelu(&self) -> Var {
        let a_val = self.value();
        let value = a_val.map(gelu);
        let aid = self.id;
        self.unary("gelu", ShapeSig::Elementwise, value, move |g, sink| {
            let dgelu = a_val.map(|x| {
                let inner = GELU_C * (x + 0.044715 * x * x * x);
                let t = inner.tanh();
                let dt = (1.0 - t * t) * GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * dt
            });
            sink(aid, ops::mul(g, &dgelu).or_bug("gelu-back"));
        })
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.with_value(|a| a.map(f32::tanh));
        let out = value.clone();
        let aid = self.id;
        self.unary("tanh", ShapeSig::Elementwise, value, move |g, sink| {
            let d = out.map(|y| 1.0 - y * y);
            sink(aid, ops::mul(g, &d).or_bug("tanh-back"));
        })
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.with_value(|a| a.map(sigmoid));
        let out = value.clone();
        let aid = self.id;
        self.unary("sigmoid", ShapeSig::Elementwise, value, move |g, sink| {
            let d = out.map(|y| y * (1.0 - y));
            sink(aid, ops::mul(g, &d).or_bug("sigmoid-back"));
        })
    }

    /// Clamps values into `[lo, hi]`; gradient is passed through inside the
    /// range and zeroed outside (straight-through at the boundary).
    pub fn clamp(&self, lo: f32, hi: f32) -> Var {
        let a_val = self.value();
        let value = a_val.map(|x| x.clamp(lo, hi));
        let aid = self.id;
        self.unary("clamp", ShapeSig::Elementwise, value, move |g, sink| {
            let mask = a_val.map(|x| if x > lo && x < hi { 1.0 } else { 0.0 });
            sink(aid, ops::mul(g, &mask).or_bug("clamp-back"));
        })
    }

    /// Adds a constant tensor (no gradient for the constant), broadcasting.
    /// Convenience for additive attention masks.
    pub fn add_const(&self, c: &Tensor) -> Var {
        let value = self.with_value(|a| ops::add(a, c)).or_bug("add_const");
        let aid = self.id;
        let ad = self.dims();
        self.unary(
            "add_const",
            ShapeSig::BroadcastWith(c.dims().to_vec()),
            value,
            move |g, sink| {
                sink(aid, ops::unbroadcast(g, &ad));
            },
        )
    }

    /// Elementwise product with a constant tensor (broadcasting); the
    /// constant receives no gradient. Used for padding masks and dropout.
    pub fn mul_const(&self, c: &Tensor) -> Var {
        let value = self.with_value(|a| ops::mul(a, c)).or_bug("mul_const");
        let aid = self.id;
        let ad = self.dims();
        let c = c.clone();
        self.unary(
            "mul_const",
            ShapeSig::BroadcastWith(c.dims().to_vec()),
            value,
            move |g, sink| {
                let gm = ops::mul(g, &c).or_bug("mul_const-back");
                sink(aid, ops::unbroadcast(&gm, &ad));
            },
        )
    }
}
