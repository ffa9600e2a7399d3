//! Quickstart: build a cluster, measure a workload alone and under
//! interference, label the degradation, train a model, and predict.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use quanterference_repro::framework::prelude::*;

fn main() -> Result<(), QiError> {
    // ------------------------------------------------------------------
    // 1. A scenario: ior-easy-read measured while 2 looping instances of
    //    ior-easy-read run on the other client nodes (the paper's
    //    data-collection methodology, §III-D).
    // ------------------------------------------------------------------
    let scenario = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 42)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyRead,
        instances: 2,
        ranks: 2,
    });

    println!("== running baseline (target alone) ==");
    let (app, base) = scenario.run_baseline()?;
    let base_dur = target_duration(&base, app).expect("baseline finished");
    println!("baseline: {} ops in {}", base.ops_of(app).count(), base_dur);

    println!("\n== running with 2x ior-easy-read interference ==");
    let (_, noisy) = scenario.run()?;
    let noisy_dur = target_duration(&noisy, app).expect("target finished");
    let slowdown = completion_slowdown(&base, &noisy, app).expect("both finished");
    println!("interfered: {noisy_dur} -> slowdown {slowdown:.2}x");

    // ------------------------------------------------------------------
    // 2. Label each time window with its degradation level (§III-D).
    // ------------------------------------------------------------------
    let window = WindowConfig::seconds(1);
    let idx = BaselineIndex::new(&base, app);
    let levels = window_degradation(&idx, &noisy, app, window);
    let mut windows: Vec<_> = levels.iter().collect();
    windows.sort_by_key(|(w, _)| **w);
    println!("\n== per-window degradation levels ==");
    for (w, level) in windows {
        let bin = Bins::binary().classify(*level);
        println!(
            "window {w}: {level:.2}x -> {}",
            Bins::binary().labels()[bin]
        );
    }

    // ------------------------------------------------------------------
    // 3. Generate a labelled dataset over a scenario grid, train the
    //    kernel-based network, evaluate on the held-out 20% (Fig. 3).
    // ------------------------------------------------------------------
    println!("\n== generating dataset + training the kernel network ==");
    let mut spec = DatasetSpec::smoke();
    spec.intensities = vec![1, 2, 3];
    spec.seeds = (1..=6).collect();
    let tcfg = TrainConfig {
        epochs: 25,
        ..TrainConfig::default()
    };
    let (dataset, predictor, report) = train_and_evaluate(&spec, &tcfg, 7)?;
    println!(
        "dataset: {} windows ({:?} per class)",
        dataset.data.len(),
        dataset.class_counts()
    );
    println!("{}", report.render());
    println!(
        "headline F1 = {:.3} on {} held-out windows",
        report.headline_f1(),
        report.test_size
    );

    // ------------------------------------------------------------------
    // 4. Use the trained predictor on the fresh interfered run.
    // ------------------------------------------------------------------
    println!("\n== online prediction on the interfered run ==");
    let scored = predictor.score_run(&noisy, app, &levels)?;
    let correct = scored.iter().filter(|(_, p, t)| p == t).count();
    println!(
        "predicted {} windows, {}/{} match the ground-truth bin",
        scored.len(),
        correct,
        scored.len()
    );
    Ok(())
}
