//! Multi-label node classification on frozen embeddings.
//!
//! The standard protocol of the network-embedding literature (used by
//! DeepWalk, NetMF, NetSMF, GraphVite and this paper): train one-vs-rest
//! logistic regression on a random fraction of labelled vertices, then for
//! each test vertex predict exactly as many labels as it truly has (the
//! "known k" convention) and score Micro-F1 (global counts) and Macro-F1
//! (per-class average).

use lightne_gen::Labels;
use lightne_linalg::DenseMatrix;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;

/// Micro and Macro F1 scores, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Scores {
    /// Micro-averaged F1 (%): global TP/FP/FN.
    pub micro: f64,
    /// Macro-averaged F1 (%): unweighted mean of per-class F1.
    pub macro_: f64,
}

/// Training hyper-parameters for the one-vs-rest logistic regression.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Full-batch gradient steps.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 100, lr: 0.5, l2: 1e-4 }
    }
}

/// A trained one-vs-rest logistic regression model.
#[derive(Debug, Clone)]
pub struct OneVsRest {
    /// Weights: `num_labels × (d + 1)` (last column is the bias).
    weights: Vec<Vec<f64>>,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl OneVsRest {
    /// Trains per-class binary classifiers on the given vertices.
    pub fn train(
        embedding: &DenseMatrix,
        labels: &Labels,
        train_vertices: &[usize],
        cfg: &TrainConfig,
    ) -> Self {
        let d = embedding.cols();
        let n = train_vertices.len().max(1);
        let weights: Vec<Vec<f64>> = (0..labels.num_labels() as u16)
            .into_par_iter()
            .map(|class| {
                let mut w = vec![0.0f64; d + 1];
                let targets: Vec<f64> = train_vertices
                    .iter()
                    .map(|&v| if labels.has(v, class) { 1.0 } else { 0.0 })
                    .collect();
                // Full-batch gradient descent with momentum.
                let mut velocity = vec![0.0f64; d + 1];
                let beta = 0.9;
                for _ in 0..cfg.epochs {
                    let mut grad = vec![0.0f64; d + 1];
                    for (&v, &y) in train_vertices.iter().zip(&targets) {
                        let x = embedding.row(v);
                        let mut z = w[d];
                        for (wi, &xi) in w[..d].iter().zip(x) {
                            z += wi * xi as f64;
                        }
                        let err = sigmoid(z) - y;
                        for (g, &xi) in grad[..d].iter_mut().zip(x) {
                            *g += err * xi as f64;
                        }
                        grad[d] += err;
                    }
                    for ((wi, g), vel) in w.iter_mut().zip(&grad).zip(velocity.iter_mut()) {
                        let step = g / n as f64 + cfg.l2 * *wi;
                        *vel = beta * *vel - cfg.lr * step;
                        *wi += *vel;
                    }
                }
                w
            })
            .collect();
        Self { weights }
    }

    /// Raw decision scores for one vertex (`num_labels` values).
    pub fn scores(&self, x: &[f32]) -> Vec<f64> {
        let d = x.len();
        self.weights
            .iter()
            .map(|w| {
                let mut z = w[d];
                for (wi, &xi) in w[..d].iter().zip(x) {
                    z += wi * xi as f64;
                }
                z
            })
            .collect()
    }

    /// All classes ranked by decreasing decision score.
    ///
    /// `total_cmp` keeps the ordering total even when a score is NaN
    /// (a diverged or all-zero model must degrade, not panic).
    pub fn rank_classes(&self, x: &[f32]) -> Vec<u16> {
        let scores = self.scores(x);
        let mut idx: Vec<u16> = (0..scores.len() as u16).collect();
        idx.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]));
        idx
    }
}

/// Splits the labelled vertices into train/test with the given ratio.
///
/// With fewer than two labelled vertices no split exists: everything goes
/// to the (possibly empty) train side and the test side is empty, instead
/// of the `len - 1` underflow this used to hit.
pub fn train_test_split(labels: &Labels, train_ratio: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(train_ratio > 0.0 && train_ratio < 1.0, "ratio must be in (0,1)");
    let mut vertices = labels.labelled_vertices();
    if vertices.len() < 2 {
        return (vertices, Vec::new());
    }
    let mut rng = XorShiftStream::new(seed, 0);
    for i in (1..vertices.len()).rev() {
        let j = rng.bounded_usize(i + 1);
        vertices.swap(i, j);
    }
    let cut =
        ((vertices.len() as f64 * train_ratio).round() as usize).max(1).min(vertices.len() - 1);
    let test = vertices.split_off(cut);
    (vertices, test)
}

/// Computes Micro/Macro F1 for predicted vs true label sets.
pub fn f1_scores(num_labels: usize, truth: &[&[u16]], predicted: &[Vec<u16>]) -> F1Scores {
    assert_eq!(truth.len(), predicted.len());
    let mut tp = vec![0u64; num_labels];
    let mut fp = vec![0u64; num_labels];
    let mut fnn = vec![0u64; num_labels];
    for (t, p) in truth.iter().zip(predicted) {
        for &l in p.iter() {
            if t.contains(&l) {
                tp[l as usize] += 1;
            } else {
                fp[l as usize] += 1;
            }
        }
        for &l in t.iter() {
            if !p.contains(&l) {
                fnn[l as usize] += 1;
            }
        }
    }
    let (tps, fps, fns): (u64, u64, u64) = (tp.iter().sum(), fp.iter().sum(), fnn.iter().sum());
    let micro = if 2 * tps + fps + fns == 0 {
        0.0
    } else {
        2.0 * tps as f64 / (2 * tps + fps + fns) as f64
    };
    // Macro over classes that appear in the truth (standard convention:
    // classes absent from the test set are skipped).
    let mut macro_sum = 0.0;
    let mut macro_n = 0usize;
    for l in 0..num_labels {
        let support = tp[l] + fnn[l];
        if support == 0 {
            continue;
        }
        let denom = 2 * tp[l] + fp[l] + fnn[l];
        macro_sum += if denom == 0 { 0.0 } else { 2.0 * tp[l] as f64 / denom as f64 };
        macro_n += 1;
    }
    let macro_ = if macro_n == 0 { 0.0 } else { macro_sum / macro_n as f64 };
    F1Scores { micro: 100.0 * micro, macro_: 100.0 * macro_ }
}

/// End-to-end protocol: split, train, predict top-k, score.
pub fn evaluate_node_classification(
    embedding: &DenseMatrix,
    labels: &Labels,
    train_ratio: f64,
    seed: u64,
) -> F1Scores {
    evaluate_with_config(embedding, labels, train_ratio, seed, &TrainConfig::default())
}

/// [`evaluate_node_classification`] with explicit training parameters.
pub fn evaluate_with_config(
    embedding: &DenseMatrix,
    labels: &Labels,
    train_ratio: f64,
    seed: u64,
    cfg: &TrainConfig,
) -> F1Scores {
    evaluate_classification_report(embedding, labels, train_ratio, seed, cfg, &[]).f1
}

/// F1 plus ranking-quality detail from one classification run.
#[derive(Debug, Clone)]
pub struct ClassificationReport {
    /// Micro/Macro F1 under the "known k" protocol.
    pub f1: F1Scores,
    /// `(K, mean precision@K)` over test vertices, for each requested `K`:
    /// the fraction of the top-`K` ranked classes that are true labels.
    pub precision_at: Vec<(usize, f64)>,
}

/// Full protocol with precision@K detail: split, train, rank classes per
/// test vertex, score. An empty test split (too few labelled vertices)
/// reports zeros rather than panicking.
pub fn evaluate_classification_report(
    embedding: &DenseMatrix,
    labels: &Labels,
    train_ratio: f64,
    seed: u64,
    cfg: &TrainConfig,
    precision_ks: &[usize],
) -> ClassificationReport {
    let (train, test) = train_test_split(labels, train_ratio, seed);
    if test.is_empty() {
        return ClassificationReport {
            f1: F1Scores { micro: 0.0, macro_: 0.0 },
            precision_at: precision_ks.iter().map(|&k| (k, 0.0)).collect(),
        };
    }
    let model = OneVsRest::train(embedding, labels, &train, cfg);
    let ranked: Vec<Vec<u16>> =
        test.par_iter().map(|&v| model.rank_classes(embedding.row(v))).collect();
    let predicted: Vec<Vec<u16>> = ranked
        .iter()
        .zip(&test)
        .map(|(r, &v)| {
            let mut p = r[..labels.of(v).len().min(r.len())].to_vec();
            p.sort_unstable();
            p
        })
        .collect();
    let truth: Vec<&[u16]> = test.iter().map(|&v| labels.of(v)).collect();
    let f1 = f1_scores(labels.num_labels(), &truth, &predicted);
    let precision_at = precision_ks
        .iter()
        .map(|&k| {
            let mean = ranked
                .iter()
                .zip(&truth)
                .map(|(r, t)| crate::metrics::precision_at_k(r, t, k))
                .sum::<f64>()
                / test.len() as f64;
            (k, mean)
        })
        .collect();
    ClassificationReport { f1, precision_at }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_perfect_prediction() {
        let truth: Vec<&[u16]> = vec![&[0, 1], &[2]];
        let pred = vec![vec![0, 1], vec![2]];
        let s = f1_scores(3, &truth, &pred);
        assert_eq!(s.micro, 100.0);
        assert_eq!(s.macro_, 100.0);
    }

    #[test]
    fn f1_total_miss() {
        let truth: Vec<&[u16]> = vec![&[0]];
        let pred = vec![vec![1]];
        let s = f1_scores(2, &truth, &pred);
        assert_eq!(s.micro, 0.0);
        assert_eq!(s.macro_, 0.0);
    }

    #[test]
    fn f1_known_hand_computed_case() {
        // v0: truth {0,1}, pred {0,2} → tp0=1, fp2=1, fn1=1
        // v1: truth {1},   pred {1}   → tp1=1
        let truth: Vec<&[u16]> = vec![&[0, 1], &[1]];
        let pred = vec![vec![0, 2], vec![1]];
        let s = f1_scores(3, &truth, &pred);
        // micro: tp=2, fp=1, fn=1 → 2*2/(4+1+1) = 0.6667
        assert!((s.micro - 66.666_666).abs() < 1e-3, "{}", s.micro);
        // macro over classes with support: class0 f1=1, class1: tp=1,fn=1 →
        // 2/(2+1)=0.6667; class2 skipped (no support) → (1+0.6667)/2
        assert!((s.macro_ - 83.333_333).abs() < 1e-3, "{}", s.macro_);
    }

    #[test]
    fn split_respects_ratio_and_partition() {
        let labels = Labels::new(3, (0..100).map(|i| vec![(i % 3) as u16]).collect());
        let (train, test) = train_test_split(&labels, 0.3, 1);
        assert_eq!(train.len(), 30);
        assert_eq!(test.len(), 70);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn logreg_learns_linearly_separable_labels() {
        // Embedding = 2-d points; class 0 = x>0, class 1 = y>0 (multi-label).
        let n = 400;
        let mut rng = XorShiftStream::new(9, 0);
        let mut emb = DenseMatrix::zeros(n, 2);
        let mut per_vertex = Vec::with_capacity(n);
        for i in 0..n {
            let x = rng.gaussian() as f32;
            let y = rng.gaussian() as f32;
            emb.set(i, 0, x);
            emb.set(i, 1, y);
            let mut ls = Vec::new();
            if x > 0.0 {
                ls.push(0u16);
            }
            if y > 0.0 {
                ls.push(1u16);
            }
            if ls.is_empty() {
                ls.push(2u16); // ensure every vertex is labelled
            }
            per_vertex.push(ls);
        }
        let labels = Labels::new(3, per_vertex);
        let s = evaluate_node_classification(&emb, &labels, 0.5, 3);
        assert!(s.micro > 90.0, "micro {}", s.micro);
        assert!(s.macro_ > 85.0, "macro {}", s.macro_);
    }

    #[test]
    fn random_embedding_scores_near_chance() {
        let n = 300;
        let emb = DenseMatrix::gaussian(n, 8, 4);
        let labels = Labels::new(10, (0..n).map(|i| vec![(i % 10) as u16]).collect());
        let s = evaluate_node_classification(&emb, &labels, 0.5, 5);
        // Chance for single-label/10 classes with top-1 prediction ≈ 10%.
        assert!(s.micro < 30.0, "suspiciously high micro {}", s.micro);
    }

    #[test]
    fn rank_classes_orders_by_decreasing_score() {
        let model = OneVsRest { weights: vec![vec![0.0, 1.0], vec![0.0, 3.0], vec![0.0, 2.0]] };
        assert_eq!(model.rank_classes(&[1.0]), vec![1, 2, 0]);
    }
}
