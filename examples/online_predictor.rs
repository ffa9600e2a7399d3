//! Train an interference model on the IO500 grid, ship it through its
//! `QIMODEL` file — schema section and all — and deploy it as an online
//! predictor against runs it has never seen (different seeds and
//! interference mixes), reporting per-window predictions vs truth — the
//! deployment loop of the paper's Figure 2.
//!
//! Everything rides the one feature pipeline: the training vectors, the
//! predictor's online vectors, and the schema validation that refuses a
//! model whose training-time layout disagrees with the serving monitor.
//!
//! ```sh
//! cargo run --release --example online_predictor
//! ```

use quanterference_repro::framework::prelude::*;
use quanterference_repro::ml::serialize::{model_from_text, model_to_text};
use quanterference_repro::serve::ModelRegistry;

fn main() -> Result<(), QiError> {
    // Train on a small IO500 grid (reduced scale so the example runs in
    // seconds; the benches use the full grid).
    let mut spec = DatasetSpec::smoke();
    spec.targets = vec![
        WorkloadKind::IorEasyRead,
        WorkloadKind::IorEasyWrite,
        WorkloadKind::MdtHardWrite,
    ];
    spec.noise_kinds = vec![WorkloadKind::IorEasyRead, WorkloadKind::IorEasyWrite];
    spec.intensities = vec![1, 2];
    spec.seeds = vec![1, 2, 3];

    println!("== training on {} scenario runs ==", spec.n_runs());
    let tcfg = TrainConfig {
        epochs: 30,
        ..TrainConfig::default()
    };
    let (dataset, predictor, report) = train_and_evaluate(&spec, &tcfg, 99)?;
    println!(
        "dataset: {} windows, class counts {:?}",
        dataset.data.len(),
        dataset.class_counts()
    );
    println!("{}", report.render());
    println!("offline F1 = {:.3}", report.headline_f1());
    println!("feature schema: {}\n", dataset.schema);

    // The model ships as a QIMODEL v2 file with its schema embedded.
    // Loading it back restores the schema bit-for-bit, and a registry
    // configured for the same pipeline accepts and activates it.
    println!("== QIMODEL round trip + schema validation ==");
    let model = predictor.into_model();
    let text = model_to_text(&model);
    let restored = model_from_text(&text).map_err(|e| QiError::Serve(e.to_string()))?;
    assert_eq!(restored.schema(), &dataset.schema);
    println!(
        "serialized {} bytes; schema survived the round trip",
        text.len()
    );
    let mut registry = ModelRegistry::new(restored.shape(), dataset.schema.clone());
    registry.load_text(1, &text)?;
    registry.activate(1)?;
    println!("registry accepted and activated the model (v1 active)");

    // A registry monitoring with a different window length refuses the
    // very same file — before any inference could run on skewed vectors.
    let wrong_window =
        FeatureSchema::current(WindowConfig::seconds(2), spec.features, spec.imputation);
    let mut skewed = ModelRegistry::new(restored.shape(), wrong_window);
    match skewed.load_text(1, &text) {
        Err(e @ QiError::SchemaMismatch { .. }) => {
            println!("2s-window registry refused it, as it must:\n  {e}\n")
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }

    // Rebind the restored model for online scoring. Predictor::new
    // re-validates the schema against the monitoring configuration.
    let predictor = Predictor::new(
        restored,
        spec.window,
        spec.features,
        spec.cluster.n_devices(),
        dataset.bins.clone(),
        spec.imputation,
    )?;

    // Deploy: fresh runs with UNSEEN seeds, including an unseen noise mix.
    println!("== online deployment on unseen runs ==");
    let mut total = 0;
    let mut hits = 0;
    for (label, target, noise, instances, seed) in [
        (
            "seen mix, new seed",
            WorkloadKind::IorEasyRead,
            WorkloadKind::IorEasyWrite,
            2,
            77,
        ),
        (
            "unseen intensity",
            WorkloadKind::IorEasyWrite,
            WorkloadKind::IorEasyWrite,
            2,
            78,
        ),
        (
            "unseen noise kind",
            WorkloadKind::MdtHardWrite,
            WorkloadKind::IorHardWrite,
            2,
            79,
        ),
    ] {
        let scenario = Scenario {
            cluster: ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(target, seed)
        }
        .with_interference(InterferenceSpec {
            kind: noise,
            instances,
            ranks: 2,
        });
        let (app, base) = scenario.run_baseline()?;
        let (_, noisy) = scenario.run()?;
        let idx = BaselineIndex::new(&base, app);
        let truth = window_degradation(&idx, &noisy, app, spec.window);
        let scored = predictor.score_run(&noisy, app, &truth)?;
        let ok = scored.iter().filter(|(_, p, t)| p == t).count();
        println!(
            "{label:<22} target={:<15} noise={:<15} windows={:>3} correct={:>3}",
            target.name(),
            noise.name(),
            scored.len(),
            ok
        );
        total += scored.len();
        hits += ok;
    }
    println!(
        "\nonline accuracy: {hits}/{total} = {:.1}%",
        100.0 * hits as f64 / total.max(1) as f64
    );
    Ok(())
}
