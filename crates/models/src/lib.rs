//! Baseline sequential recommenders for the Meta-SGCL reproduction.
//!
//! Implements every comparator from the paper's Table II on the shared
//! tensor/autograd/nn substrate:
//!
//! | family | models |
//! |---|---|
//! | traditional | [`Pop`], [`BprMf`] |
//! | sequential | [`Gru4Rec`], [`Caser`], [`SasRec`], [`Bert4Rec`], [`Vsan`] |
//! | contrastive | [`Acvae`], [`DuoRec`], [`ContrastVae`] |
//!
//! All models implement [`SequentialRecommender`] and share the
//! [`TransformerBackbone`] where applicable, so comparisons isolate the
//! *objective* differences the paper studies rather than implementation
//! noise. Scale reductions and simplifications relative to the original
//! papers are documented per model and in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod backbone;
pub mod cl;
mod common;
pub mod infer;
pub mod sampled;
pub mod vae;

mod acvae;
mod bert4rec;
mod bprmf;
mod caser;
mod cl4srec;
mod contrastvae;
mod duorec;
mod gru4rec;
#[cfg(test)]
mod packed_reference;
mod pop;
mod sasrec;
mod vsan;

pub use acvae::Acvae;
pub use audit::{audit_batch, audit_sequences, Auditable, StageContract, StageTrace};
pub use backbone::TransformerBackbone;
pub use bert4rec::Bert4Rec;
pub use bprmf::BprMf;
pub use caser::Caser;
pub use cl::{info_nce, info_nce_masked, Similarity};
pub use cl4srec::Cl4SRec;
pub use common::{
    evaluate_test, evaluate_valid, recommend_top_k, top_k_by, top_k_scores, SequentialRecommender,
    TrainConfig,
};
pub use contrastvae::Augmentation;
pub use contrastvae::ContrastVae;
pub use duorec::DuoRec;
pub use gru4rec::Gru4Rec;
pub use infer::GruState;
pub use pop::Pop;
pub use sampled::{NegativeSampler, SoftmaxMode};
pub use sasrec::{NetConfig, SasRec};
pub use vae::LossTerms;
pub use vsan::Vsan;
