#![forbid(unsafe_code)]
//! Machine-learning substrate for the LoCEC reproduction, written from
//! scratch on `std` + `rand`.
//!
//! The paper's Phase II/III stack needs four learners, none of which may be
//! pulled in as an external dependency in this reproduction:
//!
//! * a convolutional neural network toolkit for **CommCNN** (paper Fig. 8) —
//!   [`tensor`] + [`nn`] provide NCHW tensors, Conv2D / MaxPool /
//!   GlobalMaxPool / Dense / ReLU layers with manual backprop, softmax
//!   cross-entropy, and the Adam optimizer;
//! * **XGBoost-style gradient-boosted trees** for LoCEC-XGB and the raw
//!   XGBoost baseline — [`gbdt`] implements second-order boosting with exact
//!   greedy splits, softmax multiclass objective and the leaf-value
//!   extraction used by the GBDT→LR trick (paper §IV-C, citing He et al.);
//! * **multinomial logistic regression** for Phase III edge labeling —
//!   [`linear`];
//! * **matrix factorization** for the Economix baseline — [`mf`].
//!
//! The [`nn`] layers compute through the [`kernel`] module — a blocked,
//! cache-tiled GEMM that reads a convolution's taps as shifted row views
//! of one zero-padded input plane, with no im2col matrix. The naive loops
//! it replaced are preserved as [`kernel::reference`], the oracle the tests
//! hold the GEMM path to, bit for bit on finite data (see the kernel docs);
//! no layer calls them. Data-dependent failures surface as typed
//! [`MlError`]s rather than panics.
//!
//! Shared infrastructure: [`minhash`] (ProbWP's structural similarity),
//! [`metrics`] (precision/recall/F1, the paper's evaluation metric), and
//! [`data`] (datasets, splits, shuffling).

pub mod data;
pub mod error;
pub mod gbdt;
pub mod kernel;
pub mod linear;
pub mod metrics;
pub mod mf;
pub mod minhash;
pub mod nn;
pub mod tensor;

pub use data::Dataset;
pub use error::MlError;
pub use gbdt::{Gbdt, GbdtConfig};
pub use kernel::Scratch;
pub use linear::{LogisticRegression, LogisticRegressionConfig};
pub use metrics::{evaluate, ClassMetrics, Evaluation};
pub use mf::{MatrixFactorization, MfConfig};
pub use minhash::MinHasher;
pub use tensor::Tensor;
