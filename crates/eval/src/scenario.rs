//! The quality scenario matrix.
//!
//! Sweeps the full embedding pipeline over every generator profile
//! (`lightne_gen::Profile::ALL`) and three evaluation tasks — multi-label
//! classification (where the profile has labels), link prediction, and
//! graph-structure preservation — producing one [`ScenarioResult`] per
//! `(profile, task)` cell. `bench_quality_json` serializes the
//! matrix into the committed `results/BENCH_quality.json` trajectory, and
//! `cargo xtask gate quality` gates CI on its per-scenario floors.
//!
//! Profiles are rescaled so every generated graph has roughly
//! `target_n` vertices: the paper's datasets span 10K to 1.7B vertices,
//! and the matrix needs comparable, minutes-not-hours cells.

use crate::classify::{evaluate_classification_report, TrainConfig};
use crate::linkpred::{rank_held_out, split_edges};
use crate::structure::structure_report;
use lightne_core::{LightNe, LightNeConfig};
use lightne_gen::Profile;

/// Knobs of one matrix run. Everything that shapes a score is here, so
/// the bench report can record the exact configuration it measured.
#[derive(Debug, Clone, Copy)]
pub struct MatrixConfig {
    /// Approximate vertex count every profile is rescaled to.
    pub target_n: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Context window `T`.
    pub window: usize,
    /// Sample ratio (`M = ratio · T · m` samples).
    pub sample_ratio: f64,
    /// Labelled-vertex train fraction for classification.
    pub train_ratio: f64,
    /// Held-out edge fraction for link prediction.
    pub holdout: f64,
    /// Corrupted negatives per held-out positive.
    pub negatives: usize,
    /// Vertex pairs sampled for the component-separability AUC.
    pub pairs: usize,
    /// Seed shared by generation, embedding and every split.
    pub seed: u64,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            target_n: 4_000,
            dim: 32,
            window: 5,
            sample_ratio: 2.0,
            train_ratio: 0.5,
            holdout: 0.2,
            negatives: 50,
            pairs: 20_000,
            seed: 0x51,
        }
    }
}

/// The evaluation tasks of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Multi-label node classification (Micro/Macro-F1, precision@K).
    Classify,
    /// Held-out edge ranking (AUC, MRR, HITS@K).
    LinkPred,
    /// Structure preservation (component AUC, centrality correlations).
    Structure,
}

impl Task {
    /// Report name of the task.
    pub fn name(self) -> &'static str {
        match self {
            Task::Classify => "classify",
            Task::LinkPred => "linkpred",
            Task::Structure => "structure",
        }
    }
}

/// One cell of the matrix: a task scored on one profile.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Profile name as the paper spells it.
    pub profile: &'static str,
    /// Which task produced the scores.
    pub task: Task,
    /// The gated headline metric of this task (micro-F1 for
    /// classification, AUC for link prediction, component AUC for
    /// structure).
    pub primary: f64,
    /// All `(metric name, value)` pairs, primary included.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Runs every task on one profile.
pub fn run_profile(profile: Profile, cfg: &MatrixConfig) -> Vec<ScenarioResult> {
    let (pv, _) = profile.paper_stats();
    let scale = cfg.target_n as f64 / pv as f64;
    let data = profile.generate(scale, cfg.seed);
    let mut out = Vec::new();

    let ne_cfg = LightNeConfig {
        dim: cfg.dim,
        window: cfg.window,
        sample_ratio: cfg.sample_ratio,
        seed: cfg.seed,
        ..Default::default()
    };
    let full = LightNe::new(ne_cfg).embed(&data.graph);

    if let Some(labels) = &data.labels {
        let rep = evaluate_classification_report(
            &full.embedding,
            labels,
            cfg.train_ratio,
            cfg.seed,
            &TrainConfig::default(),
            &[1, 3],
        );
        let p_at =
            |k: usize| rep.precision_at.iter().find(|&&(kk, _)| kk == k).map_or(0.0, |&(_, v)| v);
        out.push(ScenarioResult {
            profile: data.name,
            task: Task::Classify,
            primary: rep.f1.micro,
            metrics: vec![
                ("micro_f1", rep.f1.micro),
                ("macro_f1", rep.f1.macro_),
                ("precision_at_1", p_at(1)),
                ("precision_at_3", p_at(3)),
            ],
        });
    }

    let s = structure_report(&data.graph, &full.embedding, cfg.pairs, cfg.seed);
    out.push(ScenarioResult {
        profile: data.name,
        task: Task::Structure,
        primary: s.component_auc,
        metrics: vec![
            ("component_auc", s.component_auc),
            ("degree_spearman", s.degree_spearman),
            ("pagerank_spearman", s.pagerank_spearman),
        ],
    });

    let (train, held) = split_edges(&data.graph, cfg.holdout, cfg.seed);
    let lp = LightNe::new(ne_cfg).embed(&train);
    let m = rank_held_out(&lp.embedding, &held, cfg.negatives, &[1, 10], cfg.seed);
    out.push(ScenarioResult {
        profile: data.name,
        task: Task::LinkPred,
        primary: m.auc,
        metrics: vec![("auc", m.auc), ("mrr", m.mrr), ("hits_at_10", m.hits_at(10).unwrap_or(0.0))],
    });
    out
}

/// Runs the matrix over the given profiles (pass `&Profile::ALL` for the
/// full sweep).
pub fn run_matrix(profiles: &[Profile], cfg: &MatrixConfig) -> Vec<ScenarioResult> {
    profiles.iter().flat_map(|&p| run_profile(p, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small config so the matrix tests stay fast.
    fn tiny() -> MatrixConfig {
        MatrixConfig { target_n: 400, dim: 16, pairs: 4_000, ..Default::default() }
    }

    #[test]
    fn blogcatalog_profile_produces_all_three_tasks() {
        let results = run_profile(Profile::BlogCatalog, &tiny());
        // Labelled profile → classify + structure + linkpred.
        assert_eq!(results.len(), 3);
        for task in [Task::Classify, Task::LinkPred, Task::Structure] {
            assert!(results.iter().any(|r| r.task == task), "missing {}", task.name());
        }
        for r in &results {
            assert!(r.primary.is_finite(), "{}/{} primary not finite", r.profile, r.task.name());
            assert!(r.metrics.iter().all(|&(_, v)| v.is_finite()));
        }
    }

    #[test]
    fn unlabelled_profile_skips_classification() {
        let results = run_profile(Profile::HyperlinkPld, &tiny());
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.task != Task::Classify));
    }

    #[test]
    fn embeddings_beat_chance_on_sbm_linkpred() {
        let results = run_profile(Profile::BlogCatalog, &tiny());
        for r in results.iter().filter(|r| r.task == Task::LinkPred) {
            assert!(r.primary > 0.6, "linkpred auc {}", r.primary);
        }
    }
}
