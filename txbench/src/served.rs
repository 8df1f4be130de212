//! `served_oltp`: the bank of `escrow_oltp` behind the TCP server. One
//! client connection runs a closed loop of requests: half autocommit
//! deposits, a quarter branch point reads, a quarter branch AVGs. This is
//! the one workload that crosses the wire codec, sessions, the worker
//! queue and socket hand-offs. The client, the server's reader and its
//! worker share one CPU, so each hand-off is a switch on that core rather
//! than a cross-core wake-up.

use crate::escrow::{build_bank, read_accounts, VIEW};
use crate::ledger::check_bank;
use crate::run::{
    chain_entries, pin_to_one_cpu, read_groups, setup_repeated, Config, Delta, Measured, Outcome,
    Tally, Window,
};
use std::sync::Arc;
use std::time::Instant;
use txview_common::rng::Rng;
use txview_common::Value;
use txview_engine::Database;
use txview_server::{Client, Server, ServerConfig, ServerStats};

const ACCOUNTS: i64 = 32_768;
const BRANCHES: i64 = 8;
const POOL_PAGES: usize = 4096;
const CONNECTIONS: u64 = 1;
const WORKERS: usize = 1;

struct Served {
    db: Arc<Database>,
    initial: Vec<i64>,
    server: Server,
}

fn build(seed: u64) -> Served {
    let (db, initial) =
        build_bank(seed, ACCOUNTS, BRANCHES, true, POOL_PAGES).expect("bank set-up");
    let cfg = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", cfg).expect("server start");
    Served {
        db,
        initial,
        server,
    }
}

pub fn run(cfg: &Config) -> Outcome {
    pin_to_one_cpu();
    let (s, setup_s) = setup_repeated(|| build(cfg.seed));
    let mut m = Measured {
        setup_s,
        ..Default::default()
    };
    let addr = s.server.local_addr();
    let w = Window::after_warmup(cfg);
    let (before, after, results) = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| sc.spawn(move || client(addr, cfg, c, &w)))
            .collect();
        Window::sleep_until(w.open);
        let before = (s.db.metrics_snapshot(), s.server.stats());
        Window::sleep_until(w.end);
        let after = (s.db.metrics_snapshot(), s.server.stats());
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (before, after, results)
    });
    let Served {
        db,
        initial,
        server,
    } = s;
    // Drain before reading the ledger back: every ack the server wrote is
    // durable once shutdown returns.
    if let Err(e) = server.shutdown() {
        m.t.violations.push(format!("server shutdown: {e}"));
    }
    let mut expected = initial;
    for (tally, deltas) in results {
        m.t.absorb(tally);
        for (e, d) in expected.iter_mut().zip(deltas) {
            *e += d;
        }
    }
    let branches: Vec<i64> = (0..BRANCHES).collect();
    m.t.violations.extend(check_bank(
        &expected,
        BRANCHES,
        &read_accounts(&db),
        &read_groups(&db, VIEW, &branches),
        None,
    ));
    m.slice_s = w.slices();
    let d = Delta::new(before.0, after.0);
    d.engine_layers(&db, &mut m.layers, m.t.write_txns);
    server_layers(&mut m, &d, &before.1, &after.1);
    m.layers.set(
        "versions.chain_entries",
        chain_entries(&db, VIEW, &branches),
    );
    m.finish()
}

/// Round trip per request as the clients saw it, and the part of it spent
/// outside the engine's phase timers (lock acquire, maintenance, commit).
fn server_layers(m: &mut Measured, d: &Delta, before: &ServerStats, after: &ServerStats) {
    let requests = (after.requests - before.requests) as f64;
    let samples = m.t.writes.iter().chain(&m.t.reads);
    let n = (m.t.writes.len() + m.t.reads.len()) as f64;
    let round_trip = samples.map(|s| s.1).sum::<f64>() / n;
    let engine: f64 = [
        "txn.phase.acquire_us",
        "txn.phase.maintain_us",
        "txn.phase.commit_us",
    ]
    .iter()
    .map(|h| d.hist(h).1)
    .sum();
    m.layers.set("server.round_trip_us", round_trip);
    m.layers
        .set("server.self_us", round_trip - engine / requests);
    m.layers.set("server.requests", requests);
    m.layers.set(
        "server.error_responses",
        (after.error_responses - before.error_responses) as f64,
    );
}

/// The connection's closed loop; returns its tally and acked deposits per
/// account.
fn client(addr: std::net::SocketAddr, cfg: &Config, c: u64, w: &Window) -> (Tally, Vec<i64>) {
    let mut rng = Rng::new(cfg.seed ^ (0xC0FF_EE00_D15C_0000u64.wrapping_add(c)));
    let mut tally = Tally::default();
    let mut deltas = vec![0i64; ACCOUNTS as usize];
    let mut conn = Client::connect(addr).expect("connect to the server");
    let per_branch = ACCOUNTS / BRANCHES;
    while Instant::now() < w.end {
        let t0 = Instant::now();
        let b = rng.below(BRANCHES as u64) as i64;
        match rng.below(4) {
            0 | 1 => {
                let (id, d) = (rng.below(ACCOUNTS as u64) as i64, rng.range_inclusive(1, 9));
                let res = conn.deposit(id, d);
                tally.op(w, t0, true, matches!(res, Ok(Some(_))), 1);
                match res {
                    Ok(Some(_)) => deltas[id as usize] += d,
                    other => eprintln!("deposit not acked: {other:?}"),
                }
            }
            2 => {
                let res = conn.view_read(VIEW, vec![Value::Int(b)]);
                tally.op(w, t0, false, res.is_ok(), 0);
                match res {
                    Ok(Some(v)) if v.get(1) == Some(&Value::Int(per_branch)) => {}
                    Ok(v) => tally.violation(format!("read of branch {b} saw {v:?}")),
                    Err(e) => eprintln!("view read failed: {e}"),
                }
            }
            _ => {
                let res = conn.view_avg(VIEW, vec![Value::Int(b)], 0);
                tally.op(w, t0, false, res.is_ok(), 0);
                match res {
                    // Balances start at 100 or more and only grow.
                    Ok(Some(avg)) if avg >= 100.0 && avg.is_finite() => {}
                    Ok(v) => tally.violation(format!("AVG of branch {b} saw {v:?}")),
                    Err(e) => eprintln!("view avg failed: {e}"),
                }
            }
        }
    }
    (tally, deltas)
}
