//! **Meta-SGCL** — Meta-optimized Seq2Seq Generator and Contrastive
//! Learning for sequential recommendation (Hao et al., ICDE 2024).
//!
//! The model is a Transformer sequential encoder whose final features
//! parameterize *two* Gaussian posteriors over the same mean:
//!
//! * `Enc_μ`, `Enc_σ` — the primary posterior (Eq. 11), reparameterized to
//!   `z = μ + σ ⊙ ε` (Eq. 12);
//! * `Enc_σ'` — the *meta* variance encoder (Eq. 14) generating the second
//!   view `z' = μ + σ' ⊙ ε'` (Eq. 15). The second view is therefore a
//!   *generated* augmentation that preserves the sequence semantics, in
//!   contrast to crop/mask/reorder (data) or dropout (model) augmentation.
//!
//! A Transformer decoder (same architecture as the encoder, Eq. 13)
//! reconstructs the next-item distribution from each latent. Training
//! maximizes the **double ELBO** (Eq. 16): two reconstruction terms, two KL
//! terms, and a mutual-information term `I(z, z')` estimated by InfoNCE
//! (Eqs. 20, 26), combined per Eq. 28:
//!
//! ```text
//! L = L_rs + α·L_cl + β·L_kl
//! ```
//!
//! (The paper's Eq. 28 prints `−β·L_kl`; since its Eq. 16 *subtracts* the
//! KL from the lower bound, minimizing the loss requires *adding* the KL —
//! we implement the standard β-VAE sign and note the typo here.)
//!
//! The **meta-optimized two-step** schedule (Section IV-E-2) alternates:
//!
//! 1. update everything except `Enc_σ'` with the full objective;
//! 2. freeze the backbone/`Enc_μ`/`Enc_σ`/decoder, re-encode the batch, and
//!    update only `Enc_σ'` from the contrastive loss — the view generator
//!    *learns to produce views that are useful for the downstream task*.
//!
//! ```no_run
//! use meta_sgcl::{MetaSgcl, MetaSgclConfig};
//! use models::{evaluate_test, SequentialRecommender, TrainConfig};
//! use recdata::{synth, LeaveOneOut};
//!
//! let data = synth::generate(&synth::SynthConfig::toys_like(42));
//! let split = LeaveOneOut::split(&data);
//! let mut model = MetaSgcl::new(MetaSgclConfig::for_items(data.num_items));
//! model.fit(&split.train_sequences(), &TrainConfig::default());
//! let report = evaluate_test(&mut model, &split, &[5, 10]);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod checkpoint;
mod config;
mod exec;
pub mod infer;
mod model;
mod obs;
mod train;
#[cfg(test)]
mod train_reference;

pub use checkpoint::{TrainCheckpoint, TrainProgress};
pub use config::{Ablation, MetaSgclConfig, SecondView, TrainStrategy};
pub use exec::{BatchStats, Executor, NullObserver, TrainObserver};
pub use infer::FrozenMetaSgcl;
pub use model::MetaSgcl;
pub use train::{EpochStats, TrainingHistory};
