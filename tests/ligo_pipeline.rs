//! LIGO-specific integration tests: the 9-dimensional ensemble exercises
//! deeper DAGs (up to 7 stages), AND-joins, and the larger consumer budget.

use miras::prelude::*;

#[test]
fn ligo_cluster_processes_all_four_workflow_types() {
    let ensemble = Ensemble::ligo();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(1);
    let mut env = MicroserviceEnv::new(ensemble.clone(), config);
    let _ = env.reset();
    env.inject_burst(&BurstSpec::new(vec![5, 5, 5, 5]));
    // A generous static allocation processes everything.
    let mut per_type = [0usize; 4];
    for _ in 0..40 {
        let out = env.step(&[4, 4, 6, 3, 3, 3, 3, 3, 1]);
        for (acc, c) in per_type.iter_mut().zip(&out.metrics.completions) {
            *acc += c;
        }
    }
    for (i, &done) in per_type.iter().enumerate() {
        assert!(
            done >= 5,
            "workflow type {} ({}) completed only {done}",
            i,
            ensemble.workflow(WorkflowTypeId::new(i)).name
        );
    }
}

#[test]
fn ligo_inspiral_is_the_bottleneck_under_load() {
    // Inspiral (12 s mean service) is visited by every workflow; starving it
    // must back up its queue more than any other stage.
    let ensemble = Ensemble::ligo();
    let inspiral = ensemble.task_type_by_name("Inspiral").unwrap();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(2);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    env.inject_burst(&BurstSpec::new(vec![30, 30, 20, 10]));
    // Ample capacity upstream but a single Inspiral consumer: the heavy
    // shared stage backs up more than any other.
    let mut last = Vec::new();
    for _ in 0..20 {
        last = env.step(&[5, 5, 1, 4, 3, 3, 3, 3, 2]).metrics.wip.clone();
    }
    let max = *last.iter().max().unwrap();
    assert_eq!(
        last[inspiral.index()],
        max,
        "expected Inspiral to dominate: {last:?}"
    );
}

#[test]
fn miras_smoke_trains_on_ligo() {
    let ensemble = Ensemble::ligo();
    let config = EnvConfig::for_ensemble(&ensemble).with_seed(3);
    let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
    let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(3));
    let report = trainer.run_iteration(&mut env);
    assert!(report.model_loss.is_finite());
    let agent = trainer.agent();
    assert_eq!(agent.num_task_types(), 9);
    let m = agent.allocate(&[10.0; 9]);
    assert!(m.iter().sum::<usize>() <= 30);
}

#[test]
fn ligo_coire_deferral_is_possible() {
    // The paper observes MIRAS deferring Coire under large bursts. Verify the
    // emulator supports that strategy: zeroing Coire's consumers stalls only
    // Coire-terminated workflows, and restoring them later completes the
    // deferred work.
    let ensemble = Ensemble::ligo();
    let coire = ensemble.task_type_by_name("Coire").unwrap();
    let datafind_wf = ensemble.workflow_by_name("DataFind").unwrap();
    let config = EnvConfig {
        arrival_rates: vec![0.0; 4],
        ..EnvConfig::for_ensemble(&ensemble).with_seed(4)
    };
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    env.inject_burst(&BurstSpec::new(vec![10, 10, 0, 0]));

    // Phase 1: everything but Coire.
    let mut alloc = vec![4usize, 4, 6, 4, 2, 2, 4, 0, 0];
    let mut datafind_done = 0usize;
    let mut cat_done = 0usize;
    for _ in 0..25 {
        let out = env.step(&alloc);
        datafind_done += out.metrics.completions[datafind_wf.index()];
        cat_done += out.metrics.completions[1]; // CAT ends at Coire
    }
    assert_eq!(datafind_done, 10, "non-Coire workflows finish");
    assert_eq!(cat_done, 0, "CAT is stalled at the deferred Coire stage");
    let stalled = env.state()[coire.index()];
    assert!(stalled > 0.0, "Coire queue holds the deferred work");

    // Phase 2: turn back to Coire.
    alloc[coire.index()] = 6;
    for _ in 0..20 {
        let out = env.step(&alloc);
        cat_done += out.metrics.completions[1];
    }
    assert_eq!(
        cat_done, 10,
        "deferred CAT workflows complete after the turn"
    );
}
