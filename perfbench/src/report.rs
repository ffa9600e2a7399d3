//! Run configuration, per-run outcome (checks, digests, metrics), and
//! the per-layer metric arithmetic over a traced pass.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use qi_pfs::ops::RunTrace;

use crate::stats::{self, BestOf, Iteration};
use crate::trace::{self, Span};
use crate::wrap::ServeStats;

/// Set-up repetitions whose median is reported as `setup_s`.
pub const SETUP_REPS: usize = 5;

/// One benchmark invocation.
pub struct Run {
    /// Workload seed; every scenario, split and model seed derives from it.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Sizes of the thread pools the workload built.
    pub pools: Mutex<Vec<usize>>,
}

impl Run {
    /// A rayon pool of `threads` workers, capped at `nproc`; its size is
    /// recorded in the stamp.
    pub fn pool(&self, threads: usize) -> rayon::ThreadPool {
        let n = threads.min(self.nproc).max(1);
        self.pools.lock().expect("pool list lock").push(n);
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("a rayon pool builds")
    }

    /// Run `setup` [`SETUP_REPS`] times; returns each repetition's wall
    /// time and the last repetition's result.
    pub fn repeat_setup<T>(&self, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        (times, last.expect("at least one set-up repetition"))
    }

    /// Call `iteration` until the budget is spent (the whole `seconds`
    /// untraced, the first half in a traced run), folding each result
    /// into `best`; `None` marks a failed iteration, which still counts
    /// its time. Stops before an iteration that would overshoot the
    /// budget by more than half its expected length; always runs one.
    /// Returns the peak RSS reached by the end of the first iteration, in
    /// MiB: every iteration repeats the same work, and a later reading
    /// would depend on how many iterations the budget allowed.
    pub fn measure(
        &self,
        best: &mut BestOf,
        mut iteration: impl FnMut() -> Option<Iteration>,
    ) -> f64 {
        let budget = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        let t0 = Instant::now();
        let mut peak = None;
        loop {
            let t = Instant::now();
            if let Some(it) = iteration() {
                best.add(&it);
            }
            let last = t.elapsed().as_secs_f64();
            let peak = *peak.get_or_insert_with(peak_rss_mib);
            if t0.elapsed().as_secs_f64() + last / 2.0 > budget {
                return peak;
            }
        }
    }
}

/// Per-layer counts gathered from library outputs during traced passes.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Simulator runs attempted.
    pub runs: u64,
    /// Runs that returned an error or missed their deadline.
    pub failed_runs: u64,
    /// Events the simulator delivered.
    pub events: u64,
    /// Client operations completed.
    pub ops: u64,
    /// RPCs issued.
    pub rpcs: u64,
    /// Operations that failed, on any run.
    pub failed_ops: u64,
    /// Operations that failed on runs without an injected fault plan.
    pub healthy_failed_ops: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Feature windows assembled by the monitor.
    pub monitor_windows: u64,
    /// Windows given a degradation label.
    pub labelled_windows: u64,
    /// Training samples × epochs.
    pub sample_epochs: u64,
    /// Samples evaluated.
    pub eval_rows: u64,
    /// Window vectors scored by the anomaly forest.
    pub anomaly_vectors: u64,
    /// Serving counters.
    pub serve: ServeStats,
    /// Control ticks whose serving or pipeline step failed.
    pub control_errors: u64,
    /// Directives the controller applied.
    pub control_directives: u64,
    /// Windows with a rate limit in force.
    pub control_throttled_windows: u64,
    /// Mean share of the interference slowdown the guided loop removed.
    pub recovered_frac: f64,
    /// Mean share of background throughput the guided loop cost.
    pub noise_cost_frac: f64,
}

impl Counts {
    /// Fold one run's trace into the simulator counts.
    pub fn absorb_trace(&mut self, t: &RunTrace, healthy: bool) {
        self.events += t.events_processed;
        self.ops += t.ops.len() as u64;
        self.rpcs += t.rpcs.len() as u64;
        self.failed_ops += t.failed_ops.len() as u64;
        if healthy {
            self.healthy_failed_ops += t.failed_ops.len() as u64;
        }
        self.sim_s += t.end.as_secs_f64();
    }

    /// Add another pass's counts (the control fractions are set by the
    /// caller).
    pub fn add(&mut self, o: &Counts) {
        self.serve.add(&o.serve);
        self.runs += o.runs;
        self.failed_runs += o.failed_runs;
        self.events += o.events;
        self.ops += o.ops;
        self.rpcs += o.rpcs;
        self.failed_ops += o.failed_ops;
        self.healthy_failed_ops += o.healthy_failed_ops;
        self.sim_s += o.sim_s;
        self.monitor_windows += o.monitor_windows;
        self.labelled_windows += o.labelled_windows;
        self.sample_epochs += o.sample_epochs;
        self.eval_rows += o.eval_rows;
        self.anomaly_vectors += o.anomaly_vectors;
        self.control_errors += o.control_errors;
        self.control_directives += o.control_directives;
        self.control_throttled_windows += o.control_throttled_windows;
    }
}

/// A metric value with its unit.
pub type Metric = (f64, &'static str);

/// Everything one workload run reports.
pub struct Outcome {
    /// (name, passed, detail on failure).
    pub checks: Vec<(String, bool, String)>,
    /// Free-form lines printed ahead of the metrics.
    pub notes: Vec<String>,
    /// Output digests; every pass must reproduce the first.
    pub digests: BTreeMap<String, u64>,
    /// Reported metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Sample count behind each reported statistic.
    pub samples: BTreeMap<String, usize>,
    /// Attempted units of work: scenario runs, serve requests, control ticks.
    pub attempted: u64,
    /// Failed units of work.
    pub failed: u64,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// Median set-up time, seconds.
    setup_s: f64,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Outcome {
            checks: Vec::new(),
            notes: Vec::new(),
            digests: BTreeMap::new(),
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            setup_s: 0.0,
        }
    }

    /// Record an output check; a check repeated every pass is listed
    /// once and fails if any pass failed it.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        match self.checks.iter_mut().find(|(n, _, _)| n == name) {
            Some(c) if c.1 && !ok => *c = (name.to_string(), ok, detail.to_string()),
            Some(_) => {}
            None => self.checks.push((name.to_string(), ok, detail.to_string())),
        }
    }

    /// Record a line of context.
    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// Record digest `name`; a pass whose digest differs from the first
    /// one fails the run.
    pub fn same_digest(&mut self, name: &str, d: u64) {
        match self.digests.get(name) {
            None => {
                self.digests.insert(name.to_string(), d);
            }
            Some(&first) if first != d => self.check(
                &format!("{name} digest repeats"),
                false,
                &format!("{d:016x} differs from the first pass's {first:016x}"),
            ),
            Some(_) => {}
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record the set-up repetitions (their median is reported as
    /// `setup_s` by an untraced run).
    pub fn setup(&mut self, times: &[f64]) {
        self.setup_s = stats::median(times).expect("set-up ran");
        self.samples.insert("setup_s".into(), times.len());
    }

    /// Record the attempted and failed units of work.
    pub fn account(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted.max(1);
        self.failed = failed;
    }

    /// Record the end-to-end metrics of an untraced run (after
    /// [`Outcome::account`]) from the iterations' best times.
    pub fn end_to_end(&mut self, best: &BestOf, peak_rss_mib: f64, f1: f64) {
        self.check(
            "every iteration repeats the same work",
            !best.mismatched,
            "an iteration's units, decisions or predictions differ from the first's",
        );
        self.note(&format!(
            "raw iteration wall: median {:.4} s over {} iterations; best-of sum {:.4} s",
            stats::median(&best.walls).unwrap_or(0.0),
            best.iterations(),
            best.wall_s()
        ));
        self.put("setup_s", self.setup_s, "s");
        self.put("wall_s", best.wall_s(), "s");
        self.samples.insert("iterations".into(), best.iterations());
        self.put("peak_rss_mib", peak_rss_mib, "MiB");
        let failed_frac = self.failed as f64 / self.attempted as f64;
        self.note(&format!(
            "failed_frac {failed_frac:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        ));
        self.put("ok_frac", 1.0 - failed_frac, "frac");
        let d = best.decisions_us();
        let p50 = stats::median(d);
        let p99 = stats::tail_percentile(d, 99.0);
        self.check(
            "decision p99 has >= 10 samples beyond it",
            p99.is_some(),
            &format!("only {} decisions timed", d.len()),
        );
        self.put("decision_p50_us", p50.unwrap_or(0.0), "us");
        self.put("decision_p99_us", p99.unwrap_or(0.0), "us");
        self.samples.insert("decisions".into(), d.len());
        self.put("preds_per_s", best.preds_per_s(), "1/s");
        self.put("f1", f1, "frac");
    }

    /// Record the per-layer metrics of `n` traced passes (values are
    /// per pass), plus the tracing overhead against the untraced median.
    pub fn per_layer(&mut self, spans: Vec<Span>, c: &Counts, traced: &BestOf, untraced: &BestOf) {
        let n = traced.iterations();
        let tot = trace::totals(&spans);
        let per = n.max(1) as f64;
        let self_s = |name: &str| tot.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9) / per;
        let total_s = |name: &str| tot.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9) / per;
        let count = |name: &str| tot.get(name).map_or(0, |t| t.count) as f64 / per;
        let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let k = |v: u64| v as f64 / per;

        let run_s = self_s("pfs.run_until_app");
        self.put("pfs.runs", count("pfs.run_until_app"), "count");
        self.put("pfs.run_s", run_s, "s");
        self.put("pfs.events", k(c.events), "count");
        self.put("pfs.events_per_s", rate(k(c.events), run_s), "1/s");
        self.put("pfs.ops", k(c.ops), "count");
        self.put("pfs.rpcs", k(c.rpcs), "count");
        self.put("pfs.failed_ops", k(c.failed_ops), "count");
        self.put("pfs.sim_s", c.sim_s / per, "s");
        self.put("pfs.trace_drop_s", self_s("pfs.trace_drop"), "s");

        self.put("workloads.scripts", count("workloads.script"), "count");
        self.put("workloads.script_s", self_s("workloads.script"), "s");

        let feat_s = self_s("monitor.window_vectors");
        self.put("monitor.windows", k(c.monitor_windows), "count");
        self.put("monitor.featurize_s", feat_s, "s");
        self.put(
            "monitor.windows_per_s",
            rate(k(c.monitor_windows), feat_s),
            "1/s",
        );

        self.put("core.labelled_windows", k(c.labelled_windows), "count");
        self.put("core.label_s", self_s("core.window_degradation"), "s");
        self.put("core.dataset_s", self_s("core.dataset"), "s");

        let train_s = self_s("ml.train");
        self.put("ml.sample_epochs", k(c.sample_epochs), "count");
        self.put("ml.train_s", train_s, "s");
        self.put(
            "ml.sample_epochs_per_s",
            rate(k(c.sample_epochs), train_s),
            "1/s",
        );
        self.put("ml.eval_rows", k(c.eval_rows), "count");
        self.put("ml.eval_s", self_s("ml.evaluate"), "s");
        let score_s = self_s("ml.anomaly.score");
        self.put("ml.anomaly.fit_s", self_s("ml.anomaly.fit"), "s");
        self.put("ml.anomaly.score_s", score_s, "s");
        self.put(
            "ml.anomaly.vectors_per_s",
            rate(k(c.anomaly_vectors), score_s),
            "1/s",
        );

        let sv = &c.serve;
        self.put("serve.submits", k(sv.submits), "count");
        self.put("serve.preds", k(sv.preds), "count");
        self.put("serve.batches", k(sv.batches()), "count");
        self.put(
            "serve.mean_batch",
            rate(sv.preds as f64, sv.batches() as f64),
            "count",
        );
        self.put("serve.submit_s", self_s("serve.submit"), "s");
        self.put("serve.load_s", self_s("serve.load"), "s");
        self.put("serve.shed", k(sv.shed), "count");
        self.put("serve.stale", k(sv.stale), "count");

        self.put("control.ticks", count("control.on_window"), "count");
        self.put("control.tick_s", total_s("control.on_window"), "s");
        self.put("control.self_s", self_s("control.on_window"), "s");
        self.put("control.policy_s", self_s("control.policy"), "s");
        self.put("control.directives", k(c.control_directives), "count");
        self.put(
            "control.throttled_windows",
            k(c.control_throttled_windows),
            "count",
        );
        self.put("control.recovered_frac", c.recovered_frac, "frac");
        self.put("control.noise_cost_frac", c.noise_cost_frac, "frac");

        self.put("bench.other_s", self_s("bench.iteration"), "s");
        let traced = traced.wall_s();
        self.put("trace.wall_s", traced, "s");
        self.put(
            "trace.overhead_frac",
            rate(traced, untraced.wall_s()) - 1.0,
            "frac",
        );
        self.put("trace.spans", spans.len() as f64 / per, "count");
        self.samples.insert("trace.passes".into(), n);

        // Each layer's share of all self time (which sums to the traced
        // passes' wall time), grouping spans by their name's first segment.
        let all_ns: u64 = tot.values().map(|t| t.self_ns).sum();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, t) in &tot {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += t.self_ns;
        }
        let shares: Vec<String> = by_layer
            .iter()
            .map(|(layer, &ns)| format!("{layer} {:.1}%", 100.0 * rate(ns as f64, all_ns as f64)))
            .collect();
        self.note(&format!("traced layer shares: {}", shares.join(", ")));
        self.spans = spans;
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`,
    /// and every declared metric is printed.
    #[test]
    fn printed_metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = decl.find(&format!("\"{key}\"")).expect("section present");
            let body = &decl[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };

        let mut best = BestOf::default();
        best.add(&Iteration {
            units_s: vec![1.0],
            decisions_us: (0..1000).map(f64::from).collect(),
            serve_s: vec![1.0],
            preds: 1,
        });
        let mut e2e = Outcome::new();
        e2e.setup(&[1.0]);
        e2e.account(1, 0);
        e2e.end_to_end(&best, 1.0, 1.0);
        let printed: Vec<String> = e2e.metrics.keys().cloned().collect();
        let mut declared = section("end_to_end");
        declared.sort();
        assert_eq!(printed, declared);

        let mut layers = Outcome::new();
        layers.per_layer(Vec::new(), &Counts::default(), &best, &best);
        let printed: Vec<String> = layers.metrics.keys().cloned().collect();
        let mut declared = section("per_layer");
        declared.sort();
        assert_eq!(printed, declared);
    }
}
