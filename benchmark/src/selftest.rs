//! The harness checks itself: a benchmark that cannot fail measures
//! nothing. On a small cluster, a clean lap must pass, a deliberately
//! wrong expected list must fail, and a killed node must fail.

use crate::cluster::{Cluster, Shape};
use crate::gen::ClusterInputs;
use crate::gen::Op;
use crate::load::{conn_lap, publish_corpus};
use crate::Env;
use node::client::Client;

const SHAPE: Shape = Shape {
    n_nodes: 4,
    dims: 3,
    depth: 12,
};
const OBJECTS: usize = 400;
const RADIUS: f64 = 0.1;
const OPS: usize = 24;

pub fn run(env: &Env) -> Result<(), String> {
    let inp = ClusterInputs::new(SHAPE, OBJECTS, RADIUS, env.seed);
    let mut ops = inp.uniform_ops(OPS, 0);
    env.pin()?;
    let mut cluster = Cluster::spawn(&env.node_bin, SHAPE, &env.out.join("logs"), "selftest")?;
    publish_corpus(&mut cluster, &inp.corpus)?;
    let mut client = Client::connect(&cluster.addrs[0])?;

    let clean = conn_lap(&mut client, &ops, (0, 1), RADIUS, None);
    if !clean.failures.is_empty() || clean.queries.len() != OPS {
        return Err(cluster.failure(&format!("clean lap failed: {:?}", clean.failures)));
    }
    println!("self-test: clean lap, {OPS} of {OPS} answers exact");

    // One wrong oracle: the nearest result's distance off by one bit.
    let flip = |op: &mut Op| match op {
        Op::Query(q) => q.expected[0].1 ^= 1,
        Op::Publish { .. } => unreachable!("uniform op lists hold queries only"),
    };
    flip(&mut ops[0]);
    let wrong = conn_lap(&mut client, &ops[..1], (OPS as u32, 1), RADIUS, None);
    if wrong.failures.len() != 1 {
        return Err("a wrong expected list was accepted".to_string());
    }
    println!(
        "self-test: wrong expected list rejected ({})",
        wrong.failures[0]
    );
    flip(&mut ops[0]);

    // One killed node: queries that reach it can no longer complete.
    cluster.kill(2);
    let broken = conn_lap(&mut client, &ops, (2 * OPS as u32, 1), RADIUS, None);
    if broken.failures.is_empty() {
        return Err("every query completed with a node killed".to_string());
    }
    println!(
        "self-test: killed node detected, failed_ops_ratio {:.3} ({})",
        broken.failures.len() as f64 / (broken.failures.len() + broken.queries.len()) as f64,
        broken.failures[0]
    );
    if cluster.check_alive().is_ok() {
        return Err("the liveness check missed a killed node".to_string());
    }
    println!("self-test passed");
    Ok(())
}
