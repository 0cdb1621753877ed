//! Evaluation harness: the tasks, metrics and cost model of Section 5.
//!
//! * [`classify`] — multi-label node classification with one-vs-rest
//!   logistic regression on frozen embeddings, evaluated by Micro/Macro-F1
//!   under the literature's standard protocol (predict exactly as many
//!   labels per vertex as the ground truth has), at configurable label
//!   ratios — the protocol behind Table 4, Figure 2 and Figure 4.
//! * [`linkpred`] — link prediction in the PyTorch-BigGraph style: hold
//!   out a fraction of edges, rank each positive against sampled corrupted
//!   edges, report MR / MRR / HITS@K, plus ROC-AUC for the GraphVite
//!   comparison — the protocol behind Sections 5.2.1–5.2.2 and Figure 3.
//! * [`clustering`] — k-means + NMI, a label-free quality probe for the
//!   synthetic community workloads (standard in the embedding literature
//!   the paper builds on).
//! * [`metrics`] — the scalar ranking metrics behind the protocols
//!   (tie-aware ROC-AUC, Spearman, precision@K), total on degenerate
//!   input.
//! * [`structure`] — label-free structure-preservation probes:
//!   connected-component separability and centrality rank correlation.
//! * [`scenario`] — the quality scenario matrix: every generator profile
//!   × every task, feeding the
//!   committed `results/BENCH_quality.json` trajectory and its CI gate.
//! * [`cost`] — the Azure price table of Table 2, converting measured
//!   wall-clock into the dollar figures the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod clustering;
pub mod cost;
pub mod linkpred;
pub mod metrics;
pub mod scenario;
pub mod structure;

pub use classify::{
    evaluate_classification_report, evaluate_node_classification, ClassificationReport, F1Scores,
};
pub use clustering::{kmeans, nmi, KMeansResult};
pub use cost::{AzureInstance, CostModel};
pub use linkpred::{split_edges, LinkPredMetrics};
pub use metrics::{precision_at_k, roc_auc, spearman};
pub use scenario::{run_matrix, run_profile, MatrixConfig, ScenarioResult, Task};
pub use structure::{structure_report, StructureReport};
