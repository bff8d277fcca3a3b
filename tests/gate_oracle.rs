//! Differential oracle for the §II.B follower gate: the simulator's DDoS
//! cascade on one VM and the live runtime's multi-task runner on the
//! same planted pair must sample the gated follower on exactly the same
//! ticks after training, and so detect exactly the same violations.
//!
//! The runtime is the reference. Its leader samples every tick
//! (`max_interval(1)`), as the simulator's leader probe does, so the
//! leader activity both sides feed their gate is the same ground truth;
//! the follower runs the simulator's adaptation (`err`, `I_m` 16,
//! patience 5) and both sides learn with one [`CorrelationConfig`].

use volley::core::correlation::CorrelationConfig;
use volley::core::task::TaskSpec;
use volley::runtime::{MultiTask, MultiTaskConfig, MultiTaskRunner};
use volley::sim::{ClusterConfig, DdosCascadeConfig, DdosCascadeScenario};
use volley::traces::PlantedPair;

const SEEDS: [u64; 4] = [3, 7, 11, 20130708];
const ALLOWANCES: [f64; 2] = [0.02, 0.10];
const THREADS: [usize; 3] = [1, 2, 8];

fn scenario(seed: u64, err: f64) -> DdosCascadeConfig {
    DdosCascadeConfig {
        cluster: ClusterConfig::new(1, 1, 1),
        error_allowance: err,
        seed,
        ..DdosCascadeConfig::default()
    }
}

/// The runtime's view of the one VM's pair: (leader, follower) tasks.
fn runtime_tasks(config: &DdosCascadeConfig) -> Vec<MultiTask> {
    let (response, rho) =
        PlantedPair::new(config.seed, 1, config.ticks, config.attack_period).generate_vm(0);
    // The simulator's thresholds: the leader at selectivity 8 %, the
    // follower at 2 %.
    let leader = TaskSpec::builder(volley::selectivity_threshold(&response, 8.0).unwrap())
        .monitors(1)
        .max_interval(1)
        .build()
        .expect("valid leader spec");
    let follower = TaskSpec::builder(volley::selectivity_threshold(&rho, 2.0).unwrap())
        .monitors(1)
        .error_allowance(config.error_allowance)
        .max_interval(16)
        .patience(5)
        .build()
        .expect("valid follower spec");
    vec![
        MultiTask::new(leader, vec![response]),
        MultiTask::new(follower, vec![rho]),
    ]
}

fn run_runtime(
    tasks: &[MultiTask],
    correlation: CorrelationConfig,
    train: u64,
) -> volley::runtime::MultiTaskOutcome {
    MultiTaskRunner::new(MultiTaskConfig {
        correlation,
        train_ticks: train,
    })
    .expect("valid multi-task config")
    .run(tasks)
    .expect("multi-task run")
}

#[test]
fn simulator_gates_the_follower_exactly_as_the_runtime_does() {
    for seed in SEEDS {
        for err in ALLOWANCES {
            let config = scenario(seed, err);
            let train = config.train_ticks as u64;
            let tasks = runtime_tasks(&config);
            let full = run_runtime(&tasks, config.correlation, train);
            assert_eq!(
                full.gates.len(),
                1,
                "seed {seed}, err {err}: the runtime must gate the follower"
            );
            assert_eq!((full.gates[0].follower, full.gates[0].leader), (1, 0));
            // The training prefix alone: no gate, and the same samples as
            // the full run's first `train` ticks.
            let prefix: Vec<MultiTask> = tasks
                .iter()
                .map(|task| {
                    let traces = task.traces.iter().map(|t| t[..train as usize].to_vec());
                    MultiTask::new(task.spec.clone(), traces.collect())
                })
                .collect();
            let trained = run_runtime(&prefix, config.correlation, train);
            let follower = &full.reports[1];
            let runtime_samples = follower.total_samples - trained.reports[1].total_samples;
            let runtime_alerts = follower.alert_ticks.iter().filter(|&&t| t >= train).count();

            for threads in THREADS {
                let sim = DdosCascadeScenario::from_config(config.clone()).run(threads);
                assert_eq!(sim.gated_vms, 1, "seed {seed}, err {err}: sim gate");
                assert_eq!(
                    sim.follower_samples, runtime_samples,
                    "seed {seed}, err {err}, {threads} threads: post-training follower samples"
                );
                assert_eq!(
                    sim.accuracy.detected, runtime_alerts,
                    "seed {seed}, err {err}, {threads} threads: detected violations"
                );
            }
        }
    }
}
