//! The step counters of forward-only runs. A resident tape never calls
//! `reset` or `begin_step`, so its run boundary, `Tape::truncate`, is
//! what publishes `nn.tape.steps` and `nn.pool.miss`. With recording
//! on, `k` runs must publish `k` steps, and the misses they publish
//! must be exactly the allocations the tape made, also after runs made
//! with recording off. This file holds one test, so no other test
//! shares the process-wide registry.

use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_nn::layers::{Activation, Mlp};
use tsgb_nn::{Params, ResidentTapes};

fn counter(name: &str) -> u64 {
    tsgb_obs::snapshot()
        .counters
        .into_iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn resident_runs_publish_their_steps_and_misses() {
    tsgb_obs::set_enabled(true);
    let mut rng = seeded(3);
    let mut p = Params::new();
    let mlp = Mlp::new(
        &mut p,
        "m",
        &[6, 16, 4],
        Activation::Relu,
        Activation::None,
        &mut rng,
    );
    let tapes = ResidentTapes::new();
    let run = |rows: usize, seed: u64| {
        let x = randn_matrix(rows, 6, &mut seeded(seed));
        tapes.run(&[&p], |t, b| {
            let before = t.pool_misses();
            let xv = t.constant(x);
            let y = mlp.forward(t, &b[0], xv);
            let _ = t.value(y);
            (before, t.pool_misses())
        })
    };
    // the first run binds the weights
    run(2, 1);

    let (steps0, miss0) = (counter("nn.tape.steps"), counter("nn.pool.miss"));
    let k = 5u64;
    let mut allocated = 0;
    for i in 0..k {
        let (before, after) = run(1 + i as usize, 10 + i);
        assert!(after > before, "run {i} records its graph in fresh buffers");
        allocated += after - before;
    }
    assert_eq!(counter("nn.tape.steps") - steps0, k);
    assert_eq!(counter("nn.pool.miss") - miss0, allocated);

    // Runs made with recording off publish nothing, and the first run
    // after recording resumes publishes its own misses only.
    tsgb_obs::set_enabled(false);
    for i in 0..k {
        let (before, after) = run(20 + i as usize, 30 + i);
        assert!(after > before, "untraced run {i} allocates too");
    }
    tsgb_obs::set_enabled(true);
    let (steps1, miss1) = (counter("nn.tape.steps"), counter("nn.pool.miss"));
    let (before, after) = run(40, 50);
    assert_eq!(counter("nn.tape.steps") - steps1, 1);
    assert_eq!(counter("nn.pool.miss") - miss1, after - before);
}
