//! Reverse-mode automatic differentiation over [`tensor::Tensor`].
//!
//! The engine is a classic define-by-run tape: every operation appends a node
//! to a [`Graph`] arena and returns a lightweight [`Var`] handle. Calling
//! [`Var::backward`] walks the tape in reverse, accumulating gradients, and
//! finally deposits leaf gradients into their [`Parameter`]s.
//!
//! Design choices (documented for contributors):
//!
//! * **Graphs are per-step and thread-local.** A fresh `Graph` is created for
//!   every training step (or shard) and dropped afterwards; tapes are never
//!   shared across threads. Parameters live *outside* the graph in
//!   thread-safe [`ParamRef`] cells (`Arc<RwLock<Parameter>>`) so optimizers
//!   can see accumulated gradients across steps and worker threads can run
//!   forward/backward on shards concurrently.
//! * **Data-parallel gradients go through [`GradientSet`].** Workers call
//!   [`Graph::backward_collect`] to gather shard gradients locally; the
//!   coordinator merges the sets in fixed shard order (deterministic
//!   regardless of thread count) and deposits them once.
//! * **This makes the paper's meta-optimized two-step schedule trivial**: in
//!   stage 2 the same forward computation is rebuilt with the frozen modules'
//!   parameters entered as *constants* ([`Graph::constant`]) and only the
//!   meta encoder `Enc_σ'` entered as trainable leaves.
//! * **Backward closures capture cloned inputs.** Each op stores a boxed
//!   closure holding clones of whatever it needs for its adjoint. This costs
//!   memory proportional to the graph but removes all borrow gymnastics.
//! * Shape errors during graph construction are programming errors and panic.
//!
//! ```
//! use autograd::{Graph, Parameter};
//! use tensor::Tensor;
//!
//! let w = Parameter::shared("w", Tensor::from_vec(vec![2.0, 3.0], vec![2, 1]));
//! let g = Graph::new();
//! let x = g.constant(Tensor::from_vec(vec![1.0, 4.0], vec![1, 2]));
//! let out = x.matmul(&g.param(&w)).sum_all();
//! out.backward();
//! assert_eq!(w.borrow().grad.data(), &[1.0, 4.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accum;
pub mod ctx;
mod graph;
pub mod meta;
pub mod numeric;
mod ops_attention;
mod ops_basic;
mod ops_matmul;
mod ops_reduce;
mod ops_shape;

pub use accum::GradientSet;
pub use ctx::{Ctx, Eager, Value};
pub use graph::{Graph, ParamRef, Parameter, Var};
pub use meta::{capture_bytes, NodeInfo, ParamInfo, ShapeSig};
pub use ops_reduce::IGNORE_INDEX;
