//! Regression extension: predict the *raw* degradation level instead of
//! a severity bin.
//!
//! The paper deliberately classifies into bins ("we do not try to
//! predict the exact slowdown ratio", §IV-A). This module implements the
//! alternative so the design choice can be quantified: a kernel network
//! with a single linear output trained on `ln(level)` with MSE, whose
//! predictions can be thresholded back into the paper's bins. The
//! `ablation_model_extensions` bench compares both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{Dataset, Standardizer};
use crate::infer::InferScratch;
use crate::matrix::Matrix;
use crate::model::KernelNet;
use crate::optim::Adam;
use crate::train::TrainConfig;

/// Mean-squared-error loss and gradient for a single-output prediction.
pub fn mse_loss(pred: &Matrix, targets: &[f32]) -> (f32, Matrix) {
    assert_eq!(pred.cols(), 1, "regression expects one output");
    assert_eq!(pred.rows(), targets.len());
    let n = targets.len() as f32;
    let mut grad = Matrix::zeros(pred.rows(), 1);
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let d = pred.get(i, 0) - t;
        loss += d * d;
        grad.set(i, 0, 2.0 * d / n);
    }
    (loss / n, grad)
}

/// A trained degradation-level regressor.
pub struct RegressionModel {
    net: KernelNet,
    standardizer: Standardizer,
    /// Mean training MSE per epoch.
    pub loss_curve: Vec<f32>,
}

impl RegressionModel {
    /// Predict the degradation level (≥ ~0) for every sample of `data`.
    pub fn predict_levels(&self, data: &Dataset) -> Vec<f64> {
        let mut scratch = InferScratch::new();
        self.net
            .forward_standardized(
                &self.standardizer,
                data.x.data(),
                data.x.rows(),
                &mut scratch,
            )
            .iter()
            .map(|&v| (v as f64).exp())
            .collect()
    }
}

/// Train a level regressor on `data` with per-sample raw degradation
/// `levels` (the pre-binning values from dataset generation). Targets
/// are log-transformed: levels span 1x to 40x+, and the log keeps the
/// loss from being dominated by the extreme tail.
pub fn train_regression(data: &Dataset, levels: &[f64], cfg: &TrainConfig) -> RegressionModel {
    assert_eq!(data.len(), levels.len());
    assert!(!data.is_empty());
    let standardizer = Standardizer::fit(&data.x);
    let mut x = data.x.clone();
    standardizer.transform(&mut x);
    let std_data = Dataset {
        x,
        y: data.y.clone(),
        n_servers: data.n_servers,
    };
    let targets: Vec<f32> = levels.iter().map(|&l| (l.max(1e-3) as f32).ln()).collect();

    let mut net = KernelNet::new(
        std_data.n_features(),
        std_data.n_servers,
        &cfg.kernel_hidden,
        &cfg.head_hidden,
        1,
        cfg.seed,
    );
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7E62);
    let n = std_data.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut loss_curve = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch) {
            let sub = std_data.subset(chunk);
            let t: Vec<f32> = chunk.iter().map(|&i| targets[i]).collect();
            let pred = net.forward(&sub.x);
            let (loss, grad) = mse_loss(&pred, &t);
            net.backward(&grad);
            net.apply(&mut opt);
            epoch_loss += loss;
            batches += 1;
        }
        loss_curve.push(epoch_loss / batches.max(1) as f32);
        opt.set_lr(opt.lr() * cfg.lr_decay);
    }
    RegressionModel {
        net,
        standardizer,
        loss_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize) -> (Dataset, Vec<f64>) {
        // Level = 1 + 3 * mean(hot feature), recoverable from features.
        let servers = 3;
        let mut rng = StdRng::seed_from_u64(9);
        let mut samples = Vec::new();
        let mut levels = Vec::new();
        for _ in 0..n {
            let hot: f32 = rng.gen_range(0.0..2.0f32);
            let mut block = Vec::new();
            for _ in 0..servers {
                block.extend_from_slice(&[
                    hot + rng.gen_range(-0.05..0.05f32),
                    rng.gen_range(0.0..1.0),
                    hot * 0.5,
                    rng.gen_range(-0.2..0.2),
                ]);
            }
            samples.push(block);
            levels.push(1.0 + 3.0 * hot as f64);
        }
        let y = levels.iter().map(|&l| usize::from(l >= 2.0)).collect();
        (Dataset::from_samples(samples, y, servers), levels)
    }

    #[test]
    fn mse_loss_gradient_is_correct() {
        let pred = Matrix::from_vec(2, 1, vec![1.0, -0.5]);
        let (loss, grad) = mse_loss(&pred, &[0.0, 0.5]);
        assert!((loss - (1.0 + 1.0) / 2.0).abs() < 1e-6);
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-6); // 2*(1-0)/2
        assert!((grad.get(1, 0) + 1.0).abs() < 1e-6); // 2*(-1)/2
    }

    #[test]
    fn regressor_recovers_the_level() {
        let (data, levels) = synth(400);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let model = train_regression(&data, &levels, &cfg);
        let preds = model.predict_levels(&data);
        let mae: f64 = preds
            .iter()
            .zip(&levels)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / levels.len() as f64;
        assert!(mae < 0.6, "MAE {mae:.3}");
        // Loss decreased substantially.
        let first = model.loss_curve[0];
        let last = *model.loss_curve.last().expect("non-empty");
        assert!(last < first * 0.3, "loss {first} -> {last}");
    }

    #[test]
    fn thresholded_regression_classifies() {
        let (data, levels) = synth(400);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let model = train_regression(&data, &levels, &cfg);
        let preds = model.predict_levels(&data);
        let correct = preds
            .iter()
            .zip(&data.y)
            .filter(|(p, &y)| usize::from(**p >= 2.0) == y)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.9,
            "acc {correct}/{}",
            data.len()
        );
    }
}
