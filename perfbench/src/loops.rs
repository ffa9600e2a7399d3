//! `closed_loop`: guided online control. Setup trains a predictor at
//! 100 ms windows and runs every scenario's baseline and unmitigated
//! references once; the timed body is only the controlled runs, each
//! with a `ControlLoop` + `ShardedServeEngine` + `GuidedThrottle`
//! installed on the cluster.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qi_ml::serialize::{model_from_text, model_to_text};
use qi_serve::{ModelRegistry, OverloadPolicy, ServeConfig};
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::MetricsSnapshot;
use quanterference::prelude::*;

use crate::digest::Digest;
use crate::report::{Counts, Outcome, Run};
use crate::stats::{BestOf, Iteration};
use crate::wrap::{run_scenario, ServeStats, TimedController, TimedPolicy, TimedService};
use crate::{derive_seed, trace};

/// Rate the guided policy throttles noise applications to.
pub const RATE: f64 = 5.0e6;

/// Scenarios per regime in one timed iteration.
const SEEDS_PER_REGIME: u64 = 20;
/// Grid seeds the predictor trains on.
const TRAIN_SEEDS: u64 = 30;
const TRAIN_EPOCHS: usize = 40;

/// One interference regime of the closed-loop sweep.
pub struct Regime {
    /// Row label.
    pub name: &'static str,
    target: WorkloadKind,
    noise_kind: WorkloadKind,
    faulted: bool,
}

/// Metadata-vs-bulk, read-vs-read, and the first on a 3× slow MDT.
pub const REGIMES: [Regime; 3] = [
    Regime {
        name: "mdt-hard-write vs 2x ior-easy-write",
        target: WorkloadKind::MdtHardWrite,
        noise_kind: WorkloadKind::IorEasyWrite,
        faulted: false,
    },
    Regime {
        name: "ior-easy-read vs 2x ior-easy-read",
        target: WorkloadKind::IorEasyRead,
        noise_kind: WorkloadKind::IorEasyRead,
        faulted: false,
    },
    Regime {
        name: "mdt-hard-write vs 2x ior-easy-write, slow MDT",
        target: WorkloadKind::MdtHardWrite,
        noise_kind: WorkloadKind::IorEasyWrite,
        faulted: true,
    },
];

/// The regime's scenario on the small cluster at scenario seed `seed`.
pub fn regime_scenario(r: &Regime, seed: u64) -> Scenario {
    let s = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(r.target, seed)
    }
    .with_interference(InterferenceSpec {
        kind: r.noise_kind,
        instances: 2,
        ranks: 2,
    });
    if !r.faulted {
        return s;
    }
    // Slow the MDT's backing disk (device index n_osts), which the
    // metadata target feels directly.
    s.with_fault_plan(FaultPlan::new().with(FaultEvent::SlowDisk {
        dev: ClusterConfig::small().n_osts(),
        factor: 3.0,
        from: SimTime::ZERO + SimDuration::from_secs(1),
        until: SimTime::ZERO + SimDuration::from_secs(20),
    }))
}

/// Train the predictor on the smoke grid at 100 ms windows over
/// `seeds`; returns the frozen model text and its held-out F1.
pub fn train_text(seeds: &[u64], split_seed: u64, epochs: usize) -> (String, f64) {
    let mut spec = DatasetSpec::smoke();
    spec.seeds = seeds.to_vec();
    spec.window = WindowConfig::millis(100);
    let tcfg = TrainConfig {
        epochs,
        seed: split_seed ^ 0x5EED,
        ..TrainConfig::default()
    };
    let (_, predictor, report) =
        train_and_evaluate(&spec, &tcfg, split_seed).expect("the smoke grid trains");
    (model_to_text(&predictor.into_model()), report.headline_f1())
}

/// A serve engine rebuilt from frozen model text, so every controlled
/// run deploys the identical model.
fn fresh_service(text: &str, tenants: &[AppId]) -> ShardedServeEngine {
    let _s = trace::span("serve.load", 0);
    let model = model_from_text(text).expect("frozen model text parses");
    let window = model
        .schema()
        .window_config()
        .expect("trained schemas carry a window");
    let mut registry = ModelRegistry::new(model.shape(), model.schema().clone());
    registry.load_text(1, text).expect("frozen model loads");
    registry.activate(1).expect("loaded version activates");
    let cfg = ServeConfig {
        max_batch: tenants.len().max(1),
        max_delay: window.window,
        queue_cap: 4 * tenants.len().max(1),
        admission: None,
        overload: OverloadPolicy::Shed,
        tenants: tenants.to_vec(),
        threads: Some(1),
    };
    ShardedServeEngine::new(cfg, registry, 2).expect("two shards build")
}

/// The guided control loop for `s`. With `timed = Some((req, stats))`
/// its serve engine and policy sit behind timing wrappers.
pub fn guided_loop(
    text: &str,
    s: &Scenario,
    timed: Option<(u64, Arc<Mutex<ServeStats>>)>,
) -> ControlLoop {
    let target = AppId(0);
    let noise = noise_app_ids(s);
    let mut tenants = vec![target];
    tenants.extend(noise.iter().copied());
    let policy = GuidedThrottle::new(target, noise, 1, RATE).expect("valid policy");
    let service = fresh_service(text, &tenants);
    let builder = ControlLoop::builder().n_devices(s.cluster.n_devices());
    let builder = match timed {
        Some((req, st)) => builder
            .predictor(TimedService::new(service, req, st))
            .policy(TimedPolicy::new(policy, req)),
        None => builder.predictor(service).policy(policy),
    };
    builder.build().expect("guided loop builds")
}

/// Windows during which at least one app had a rate limit in force: a
/// limit applied at the close of window `w` acts from `w + 1` through
/// the window whose close clears it, or the end of the run.
fn throttled_windows(trace: &RunTrace, wcfg: WindowConfig) -> HashSet<u64> {
    let mut engaged: BTreeMap<u32, u64> = BTreeMap::new();
    let mut out = HashSet::new();
    for rec in &trace.directives {
        match &rec.directive {
            ControlDirective::RateLimit { app, .. } => {
                engaged.entry(app.0).or_insert(rec.window);
            }
            ControlDirective::ClearRateLimit { app } => {
                if let Some(start) = engaged.remove(&app.0) {
                    out.extend(start + 1..=rec.window);
                }
            }
            _ => {}
        }
    }
    let end_window = wcfg.index_of(trace.end);
    for start in engaged.into_values() {
        out.extend(start + 1..=end_window);
    }
    out
}

fn target_secs(trace: &RunTrace, app: AppId) -> Option<f64> {
    target_duration(trace, app).map(|d| d.as_secs_f64())
}

fn noise_ops(trace: &RunTrace, target: AppId) -> usize {
    trace.ops.iter().filter(|o| o.token.app != target).count()
}

/// One scenario's references, measured once in setup.
struct Reference {
    regime: usize,
    scenario: Scenario,
    baseline_s: f64,
    unmitigated_s: f64,
    noise_ops_unmitigated: usize,
}

struct Setup {
    text: String,
    f1: f64,
    refs: Vec<Reference>,
    /// Reference runs that failed (error or deadline).
    failed_runs: u64,
}

/// Train on `train_seeds` grid seeds and measure the references of
/// `per_regime` scenarios in every regime.
fn setup(seed: u64, train_seeds: u64, per_regime: u64) -> Setup {
    let train_seeds: Vec<u64> = (0..train_seeds)
        .map(|k| derive_seed(seed, 100 + k))
        .collect();
    let (text, f1) = train_text(&train_seeds, derive_seed(seed, 1), TRAIN_EPOCHS);
    let mut refs = Vec::new();
    let mut failed_runs = 0;
    for (ri, r) in REGIMES.iter().enumerate() {
        for k in 0..per_regime {
            let scenario = regime_scenario(r, derive_seed(seed, 1000 + k));
            let base = scenario.run_baseline().ok();
            let unmit = scenario.run().ok();
            let (Some((app, base)), Some((_, unmit))) = (base, unmit) else {
                failed_runs += 2;
                continue;
            };
            let (Some(baseline_s), Some(unmitigated_s)) =
                (target_secs(&base, app), target_secs(&unmit, app))
            else {
                failed_runs += 2;
                continue;
            };
            refs.push(Reference {
                regime: ri,
                baseline_s,
                unmitigated_s,
                noise_ops_unmitigated: noise_ops(&unmit, app),
                scenario,
            });
        }
    }
    Setup {
        text,
        f1,
        refs,
        failed_runs,
    }
}

/// What one pass over every scenario produced.
struct Pass {
    /// Host times: one unit per controlled run, one decision per tick.
    times: Iteration,
    digest: u64,
    outcomes: Vec<(usize, MitigationOutcome)>,
    counts: Counts,
}

/// One controlled run per scenario. `traced` deploys the workloads
/// through [`run_scenario`] instead of `Scenario::run_with`.
fn controlled_pass(st: &Setup, traced: bool) -> Pass {
    let mut counts = Counts::default();
    let mut times = Iteration::default();
    let mut digest = Digest::default();
    let mut outcomes = Vec::with_capacity(st.refs.len());
    let ticks = Arc::new(Mutex::new(Vec::new()));
    let _root = trace::span("bench.iteration", 0);
    for (i, r) in st.refs.iter().enumerate() {
        let req = i as u64;
        let serve = Arc::new(Mutex::new(ServeStats::default()));
        let t = Instant::now();
        let ctl = TimedController::new(
            guided_loop(&st.text, &r.scenario, Some((req, Arc::clone(&serve)))),
            req,
            Arc::clone(&ticks),
        );
        let install = |cl: &mut Cluster| cl.install_controller(Box::new(ctl));
        let run = if traced {
            run_scenario(&r.scenario, req, install)
        } else {
            r.scenario.run_with(install)
        };
        times.units_s.push(t.elapsed().as_secs_f64());
        let sv = serve.lock().expect("serve stats lock").clone();
        times.serve_s.push(sv.busy_ns as f64 / 1e9);
        times.preds += sv.preds;
        counts.serve.add(&sv);
        counts.runs += 1;
        let Ok((app, trace)) = run else {
            counts.failed_runs += 1;
            continue;
        };
        counts.absorb_trace(&trace, r.scenario.fault_plan.is_none());
        counts.control_errors += trace.metrics.counter("control.errors").unwrap_or(0);
        let Some(mitigated_s) = target_secs(&trace, app) else {
            counts.failed_runs += 1;
            continue;
        };
        let throttled = throttled_windows(&trace, WindowConfig::millis(100));
        counts.control_directives += trace.directives.len() as u64;
        counts.control_throttled_windows += throttled.len() as u64;
        digest
            .u64(req)
            .str(&format!("{:?}", trace.directives))
            .f64(mitigated_s);
        let outcome = MitigationOutcome {
            baseline_s: r.baseline_s,
            unmitigated_s: r.unmitigated_s,
            mitigated_s,
            throttled_windows: throttled,
            noise_ops_unmitigated: r.noise_ops_unmitigated,
            noise_ops_mitigated: noise_ops(&trace, app),
            directives: trace.directives.clone(),
            metrics: MetricsSnapshot::new(),
        };
        {
            let _s = trace::span("pfs.trace_drop", req);
            drop(trace);
        }
        outcomes.push((r.regime, outcome));
    }
    let ticks = std::mem::take(&mut *ticks.lock().expect("tick log lock"));
    times.decisions_us = ticks.iter().map(|&ns| ns as f64 / 1e3).collect();
    Pass {
        times,
        digest: digest.finish(),
        outcomes,
        counts,
    }
}

/// Output checks on one pass: every scenario completed, every admitted
/// request was answered, every regime acts, and in every regime the
/// guided runs take at most 1.05× the unmitigated time.
fn check_pass(st: &Setup, pass: &Pass, out: &mut Outcome) {
    out.same_digest("directives+durations", pass.digest);
    for (ri, r) in REGIMES.iter().enumerate() {
        let mine: Vec<&MitigationOutcome> = pass
            .outcomes
            .iter()
            .filter(|(g, _)| *g == ri)
            .map(|(_, o)| o)
            .collect();
        let acts = mine.iter().any(|o| !o.directives.is_empty());
        out.check(&format!("acts [{}]", r.name), acts, "no directive emitted");
        let mitigated: f64 = mine.iter().map(|o| o.mitigated_s).sum();
        let unmitigated: f64 = mine.iter().map(|o| o.unmitigated_s).sum();
        out.check(
            &format!("guided <= 1.05x unmitigated [{}]", r.name),
            !mine.is_empty() && mitigated <= 1.05 * unmitigated,
            &format!("{mitigated:.3} s guided vs {unmitigated:.3} s unmitigated"),
        );
    }
    out.check(
        "every scenario completed",
        pass.outcomes.len() == st.refs.len(),
        &format!("{} of {}", pass.outcomes.len(), st.refs.len()),
    );
    let sv = &pass.counts.serve;
    out.check(
        "every admitted request answered",
        sv.preds + sv.shed + sv.stale == sv.submits,
        &format!("{} answered of {} submitted", sv.preds, sv.submits),
    );
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// Run the `closed_loop` workload.
pub fn run(cfg: &Run) -> Outcome {
    let mut out = Outcome::new();
    let pool = cfg.pool(1);
    let (setup_times, st) =
        cfg.repeat_setup(|| pool.install(|| setup(cfg.seed, TRAIN_SEEDS, SEEDS_PER_REGIME)));
    out.setup(&setup_times);
    out.note(&format!(
        "{} scenarios ({} regimes x {} seeds), predictor F1 {:.3}",
        st.refs.len(),
        REGIMES.len(),
        SEEDS_PER_REGIME,
        st.f1
    ));
    let mut best = BestOf::default();
    let mut first: Option<Pass> = None;
    // Set-up ran a baseline and an unmitigated reference per scenario.
    let mut attempted = 2 * st.refs.len() as u64 + st.failed_runs;
    let mut failed = st.failed_runs;
    let peak = cfg.measure(&mut best, || {
        let pass = pool.install(|| controlled_pass(&st, false));
        let c = &pass.counts;
        attempted += c.runs + pass.times.decisions_us.len() as u64 + c.serve.submits;
        failed +=
            c.failed_runs + c.healthy_failed_ops + c.control_errors + c.serve.shed + c.serve.stale;
        check_pass(&st, &pass, &mut out);
        let times = pass.times.clone();
        first.get_or_insert(pass);
        Some(times)
    });
    out.account(attempted, failed);
    let first = first.expect("at least one timed pass");
    let recovered = mean(first.outcomes.iter().map(|(_, o)| o.recovered_fraction()));
    let cost = mean(first.outcomes.iter().map(|(_, o)| o.noise_cost_fraction()));
    out.note(&format!(
        "recovered_frac {recovered:.4}, noise_cost_frac {cost:.4} (mean over scenarios)"
    ));
    if !cfg.trace {
        out.end_to_end(&best, peak, st.f1);
        return out;
    }

    // Traced passes: the same scenarios through wrapped workloads, on
    // the same one-thread pool, as many as the untraced half ran (at
    // most 8, which bounds the span buffer).
    let n = best.iterations().clamp(1, 8);
    let mut traced = BestOf::default();
    let mut counts = Counts::default();
    trace::start();
    for _ in 0..n {
        let pass = pool.install(|| controlled_pass(&st, true));
        check_pass(&st, &pass, &mut out);
        traced.add(&pass.times);
        counts.add(&pass.counts);
    }
    let spans = trace::stop();
    counts.recovered_frac = recovered;
    counts.noise_cost_frac = cost;
    out.per_layer(spans, &counts, &traced, &best);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_passes_agree() {
        let st = setup(3, 4, 1);
        assert_eq!(st.refs.len(), REGIMES.len());
        let plain = controlled_pass(&st, false);
        trace::start();
        let traced = controlled_pass(&st, true);
        let spans = trace::stop();
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.outcomes.len(), st.refs.len());
        for name in [
            "pfs.run_until_app",
            "control.on_window",
            "serve.submit",
            "control.policy",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
        // Ticks nest inside the event loop that calls them.
        let tick = spans
            .iter()
            .find(|s| s.name == "control.on_window")
            .expect("a tick span");
        let parent = tick.parent.expect("ticks have a parent");
        assert_eq!(spans[parent].name, "pfs.run_until_app");
    }
}
