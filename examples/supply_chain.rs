//! Figure 1(d): supply-chain management across mutually distrustful
//! enterprises.
//!
//! Private data, private updates, private constraints. Each enterprise
//! keeps its shipments in a private database; a service-level agreement
//! caps the total quantity any enterprise may ship per window; the cap
//! is checked with MPC so no enterprise reveals its volumes. Global
//! integrity of the shared shipment log comes from a PBFT-replicated
//! ledger over the enterprises' mutually distrustful data managers —
//! the paper's permissioned-blockchain substrate, running here on the
//! deterministic network simulator.
//!
//! Run with: `cargo run --example supply_chain`

use prever_consensus::pbft::{cluster, PbftMsg, NOOP_ID};
use prever_consensus::Command;
use prever_mpc::FederatedBoundCheck;
use prever_sim::{NetConfig, Simulation};
use prever_workloads::domain::shipment_stream;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let enterprises = 4usize;
    let sla_cap = 200i64; // units per enterprise per window (private SLA)
    let window_len = 50_000u64;

    // Private per-(enterprise, window) shipped totals.
    let mut totals: HashMap<(usize, u64), i64> = HashMap::new();
    let mut mpc = FederatedBoundCheck::new();

    // The PBFT cluster: one replica per enterprise's data manager.
    let mut sim = Simulation::new(cluster(enterprises), NetConfig::default(), 1);
    let mut committed_ids: Vec<u64> = Vec::new();

    let shipments = shipment_stream(enterprises, 40, 60, &mut rng);
    let (mut accepted, mut rejected) = (0, 0);
    for s in &shipments {
        let window = s.ts / window_len;
        // SLA check via MPC: the *shipping* enterprise's private total
        // plus the new quantity must stay under the cap. The other
        // enterprises participate as MPC parties without learning the
        // total (inputs: shipper's total, zeros elsewhere — each party
        // contributes its share blindly).
        let mut inputs = vec![0i64; enterprises];
        inputs[s.from] = totals.get(&(s.from, window)).copied().unwrap_or(0);
        let verdict = mpc.check_upper_bound(&inputs, s.quantity as i64, sla_cap, &mut rng)?;
        if !verdict.verdict {
            rejected += 1;
            println!(
                "shipment {:>2} e{}→e{} qty {:>2}: REJECTED by SLA (cap {})",
                s.id, s.from, s.to, s.quantity, sla_cap
            );
            continue;
        }
        accepted += 1;
        *totals.entry((s.from, window)).or_insert(0) += s.quantity as i64;
        // Replicate the accepted shipment on the permissioned ledger.
        let payload = format!("ship:{}:{}:{}:{}", s.id, s.from, s.to, s.quantity);
        let target = s.from % enterprises;
        sim.inject(target, target, PbftMsg::request(Command::new(s.id, payload)), sim.now() + 1);
        committed_ids.push(s.id);
        println!(
            "shipment {:>2} e{}→e{} qty {:>2}: accepted, submitted to consensus",
            s.id, s.from, s.to, s.quantity
        );
    }

    // Drive consensus to completion.
    let need = committed_ids.len();
    let done = sim.run_until_pred(5_000_000, |nodes| {
        nodes.iter().all(|n| n.core.executed_commands() >= need)
    });
    assert!(done, "consensus did not commit all shipments");

    println!("\naccepted {accepted}, rejected {rejected}");
    println!(
        "PBFT committed {} shipments across {} replicas in {:.1} ms simulated time",
        sim.node(0).core.executed_commands(),
        enterprises,
        sim.now() as f64 / 1000.0
    );

    // Every replica holds the same order — mutually distrustful parties
    // agree on the global shipment history.
    let ids = |i: usize| -> Vec<u64> {
        let executed = sim.node(i).core.executed();
        executed.iter().map(|d| d.command.id).filter(|&id| id != NOOP_ID).collect()
    };
    let reference = ids(0);
    for i in 1..enterprises {
        assert_eq!(ids(i), reference, "replica {i} diverged");
    }
    println!("all replicas agree on the shipment order: OK");
    println!(
        "MPC cost for {} SLA checks: {} rounds, {} field elements",
        accepted + rejected,
        mpc.stats.rounds,
        mpc.stats.elements_sent
    );
    Ok(())
}
