//! Running many monitoring tasks concurrently.
//!
//! A datacenter runs "a large number of monitoring tasks" (§I) at once;
//! [`FleetRunner`] executes a batch of independent distributed tasks in
//! parallel — a pool of the one drive loop, each task configured by its
//! own [`TaskRunner`] and stepped on the pool thread that picked it up,
//! so the fleet runs on exactly its pool — and collects their reports in
//! submission order. Tasks are isolated: a task's monitors, fault plan
//! and allowance budget never touch another's.

use volley_core::VolleyError;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::runner::{RuntimeReport, TaskRunner};

/// One task submission for a fleet run: a configured runner — spec,
/// scheme, faults, deadline, standby, WAL, recorder (tag shared
/// recorders with [`SampleRecorder::for_task`](volley_store::SampleRecorder::for_task)
/// so tasks stay distinguishable in one store) — plus its traces.
#[derive(Debug)]
pub struct FleetTask {
    /// How this task runs.
    pub runner: TaskRunner,
    /// Per-monitor ground-truth traces (`traces[i][t]`).
    pub traces: Vec<Vec<f64>>,
}

/// Aggregate statistics over a fleet run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetSummary {
    /// Tasks executed.
    pub tasks: usize,
    /// Total sampling operations across all tasks.
    pub total_samples: u64,
    /// Baseline (periodic) sampling operations across all tasks.
    pub baseline_samples: u64,
    /// Total alerts raised.
    pub alerts: u64,
    /// Total global polls.
    pub polls: u64,
}

impl FleetSummary {
    /// Fleet-wide sampling-cost ratio versus periodic.
    pub fn cost_ratio(&self) -> f64 {
        if self.baseline_samples == 0 {
            1.0
        } else {
            self.total_samples as f64 / self.baseline_samples as f64
        }
    }
}

/// Executes batches of independent monitoring tasks in parallel.
#[derive(Debug, Default)]
pub struct FleetRunner {
    /// Worker-thread cap; `None` runs every task on a thread of its own.
    threads: Option<usize>,
}

impl FleetRunner {
    /// Creates a fleet runner that gives every task a thread of its own.
    pub fn new() -> Self {
        FleetRunner::default()
    }

    /// Caps the fleet at `threads` concurrently-running tasks (clamped to
    /// at least 1): workers pull submissions off a shared queue, so a
    /// million-task fleet no longer needs a million OS threads. Reports
    /// stay in submission order and are bit-identical for every cap —
    /// tasks are isolated, so the cap changes scheduling only.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Runs all submissions concurrently (up to the
    /// [`with_threads`](Self::with_threads) cap, default one thread per
    /// task) and returns their reports in submission order plus a
    /// fleet summary.
    ///
    /// # Errors
    ///
    /// Returns the first task error encountered (tasks that already
    /// completed are discarded — submissions are expected to be
    /// pre-validated via [`TaskSpec`](volley_core::task::TaskSpec)
    /// construction).
    pub fn run(
        &self,
        tasks: Vec<FleetTask>,
    ) -> Result<(Vec<RuntimeReport>, FleetSummary), VolleyError> {
        let results: Vec<Mutex<Option<Result<RuntimeReport, VolleyError>>>> =
            (0..tasks.len()).map(|_| Mutex::new(None)).collect();
        let workers = self
            .threads
            .unwrap_or(tasks.len())
            .clamp(1, tasks.len().max(1));
        if !tasks.is_empty() {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tasks = &tasks;
                    let results = &results;
                    let next = &next;
                    scope.spawn(move || loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(index) else {
                            break;
                        };
                        let outcome = task.runner.run(&task.traces);
                        *results[index].lock().expect("result slot lock") = Some(outcome);
                    });
                }
            });
        }
        let mut reports = Vec::with_capacity(tasks.len());
        let mut summary = FleetSummary::default();
        for (result, task) in results.into_iter().zip(&tasks) {
            let report = result
                .into_inner()
                .expect("result slot lock")
                .expect("every slot filled")?;
            summary.tasks += 1;
            summary.total_samples += report.total_samples;
            // A completed run had one trace per monitor.
            summary.baseline_samples += report.ticks * task.traces.len() as u64;
            summary.alerts += report.alerts;
            summary.polls += report.polls;
            reports.push(report);
        }
        Ok((reports, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use volley_core::task::TaskSpec;

    use crate::failure::FaultPlan;

    /// A default-configured submission.
    fn task(spec: TaskSpec, traces: Vec<Vec<f64>>) -> FleetTask {
        let runner = TaskRunner::new(&spec).unwrap();
        FleetTask { runner, traces }
    }

    fn spec(monitors: usize, threshold: f64) -> TaskSpec {
        TaskSpec::builder(threshold)
            .monitors(monitors)
            .error_allowance(0.02)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap()
    }

    fn quiet_traces(monitors: usize, ticks: usize, base: f64) -> Vec<Vec<f64>> {
        (0..monitors)
            .map(|m| vec![base + m as f64; ticks])
            .collect()
    }

    #[test]
    fn empty_fleet_is_trivial() {
        let (reports, summary) = FleetRunner::new().run(Vec::new()).unwrap();
        assert!(reports.is_empty());
        assert_eq!(summary.tasks, 0);
        assert_eq!(summary.cost_ratio(), 1.0);
    }

    #[test]
    fn fleet_matches_individual_runs() {
        let make_tasks = || {
            vec![
                (spec(2, 500.0), quiet_traces(2, 400, 5.0)),
                (spec(3, 900.0), quiet_traces(3, 400, 10.0)),
                (spec(1, 50.0), {
                    let mut t = quiet_traces(1, 400, 5.0);
                    // A sustained violation spanning more than the max
                    // interval (8), so at least one sample must land on it.
                    t[0][120..140].fill(75.0);
                    t
                }),
            ]
        };
        let fleet = make_tasks().into_iter().map(|(s, t)| task(s, t)).collect();
        let (fleet_reports, summary) = FleetRunner::new().run(fleet).unwrap();
        assert_eq!(fleet_reports.len(), 3);
        assert_eq!(summary.tasks, 3);
        // Individually-run tasks must produce identical reports.
        for (spec, traces) in make_tasks() {
            let solo = TaskRunner::new(&spec).unwrap().run(&traces).unwrap();
            let matching = fleet_reports.contains(&solo);
            assert!(matching, "no fleet report matches the solo run");
        }
        assert!(summary.alerts >= 1);
        assert_eq!(summary.baseline_samples, (2 + 3 + 1) * 400);
        assert!(summary.cost_ratio() < 1.0);
    }

    #[test]
    fn fleet_propagates_task_errors() {
        // A task whose trace count mismatches its monitor count fails.
        let bad = task(spec(2, 100.0), quiet_traces(1, 50, 1.0));
        let err = FleetRunner::new().run(vec![bad]).unwrap_err();
        assert!(matches!(err, VolleyError::ValueCountMismatch { .. }));
    }

    #[test]
    fn faulty_task_completes_without_contaminating_the_fleet() {
        use volley_core::task::MonitorId;
        let healthy = task(spec(2, 500.0), quiet_traces(2, 100, 5.0));
        let mut faulty = task(spec(2, 500.0), quiet_traces(2, 100, 5.0));
        faulty.runner = faulty
            .runner
            .with_fault_plan(FaultPlan::new(3).with_crash(MonitorId(0), 10))
            .with_tick_deadline(Duration::from_millis(25));
        let (reports, summary) = FleetRunner::new().run(vec![healthy, faulty]).unwrap();
        assert_eq!(summary.tasks, 2);
        assert_eq!(reports[0].quarantines, 0, "healthy task unaffected");
        assert_eq!(reports[1].quarantines, 1);
        assert_eq!(reports[1].restarts, 1);
        assert_eq!(reports[1].ticks, 100, "faulty task still completes");
    }

    #[test]
    fn standby_task_survives_a_coordinator_crash_in_the_fleet() {
        let dir = std::env::temp_dir().join("volley-fleet-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("standby-{}.wal", std::process::id()));
        let healthy = task(spec(2, 500.0), quiet_traces(2, 80, 5.0));
        let mut durable = task(spec(2, 500.0), quiet_traces(2, 80, 5.0));
        durable.runner = durable
            .runner
            .with_fault_plan(FaultPlan::new(3).with_coordinator_crash(40))
            .with_tick_deadline(Duration::from_millis(50))
            .with_standby(true)
            .with_wal(&path, 10);
        let (reports, summary) = FleetRunner::new().run(vec![healthy, durable]).unwrap();
        assert_eq!(summary.tasks, 2);
        assert_eq!(reports[0].coordinator_failovers, 0);
        assert_eq!(reports[1].coordinator_failovers, 1);
        assert_eq!(reports[1].checkpoint_restores, 2);
        assert_eq!(reports[1].ticks, 80, "failed-over task still completes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounded_pool_matches_unbounded_for_every_cap() {
        let make_tasks = || {
            (0..6)
                .map(|i| task(spec(2, 800.0 + i as f64), quiet_traces(2, 150, 2.0)))
                .collect::<Vec<_>>()
        };
        let (unbounded, baseline) = FleetRunner::new().run(make_tasks()).unwrap();
        for threads in [1, 2, 8] {
            let (bounded, summary) = FleetRunner::new()
                .with_threads(threads)
                .run(make_tasks())
                .unwrap();
            assert_eq!(unbounded, bounded, "threads={threads} changed reports");
            assert_eq!(baseline, summary, "threads={threads} changed summary");
        }
    }

    #[test]
    fn large_fleet_completes() {
        let tasks: Vec<FleetTask> = (0..12)
            .map(|i| task(spec(2, 1000.0 + i as f64), quiet_traces(2, 200, 1.0)))
            .collect();
        let (reports, summary) = FleetRunner::new().run(tasks).unwrap();
        assert_eq!(reports.len(), 12);
        assert_eq!(summary.tasks, 12);
        assert_eq!(summary.alerts, 0);
    }
}
