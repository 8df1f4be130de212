//! `escrow_oltp`: the paper's case. Two threads run short read-committed
//! transactions against a bank of 32,768 accounts in 8 branches: multi-row
//! deposits funnel escrow increments onto 8 hot `SUM` rows and, through
//! the commit-time cascade, onto one global rollup row above them.
//! A share of the transactions are RC point reads of a branch row. Both
//! threads share one CPU: while one waits on the device sync the other
//! runs, and no hand-off between them waits on a cross-core wake-up.

use crate::ledger::check_bank;
use crate::run::{
    add_to, chain_entries, int_triple, pin_to_one_cpu, read_groups, setup_repeated, timed, Config,
    Delta, Measured, Outcome, Tally, Window, SYNC_US,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_common::rng::Rng;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Result, Value};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

pub const TABLE: &str = "accounts";
pub const VIEW: &str = "branch_balance";
const TOTAL: &str = "bank_total";
const ACCOUNTS: i64 = 32_768;
const BRANCHES: i64 = 8;
/// 32 MiB of 8 KiB pages: the whole bank stays resident.
const POOL_PAGES: usize = 4096;
const THREADS: u64 = 2;
/// Accounts credited per deposit transaction.
const ROWS_PER_DEPOSIT: usize = 4;
/// Share of transactions that are branch point reads.
const READ_SHARE: f64 = 0.25;

/// A bank: `accounts(id, branch, balance)` with `branch = id % branches`,
/// seeded balances, an escrow `SUM(balance) GROUP BY branch` view and,
/// with `rollup`, a derived global total over it. Returns the database
/// and the initial balances.
pub fn build_bank(
    seed: u64,
    accounts: i64,
    branches: i64,
    rollup: bool,
    pool_pages: usize,
) -> Result<(Arc<Database>, Vec<i64>)> {
    let db =
        Database::new_in_memory_slow_sync(pool_pages, Duration::from_secs(10), SYNC_US, 0, seed);
    let t = db.create_table(
        TABLE,
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("branch", ValueType::Int),
                Column::new("balance", ValueType::Int),
            ],
            vec![0],
        )?,
    )?;
    let mut rng = Rng::new(seed);
    let initial: Vec<i64> = (0..accounts)
        .map(|_| rng.range_inclusive(100, 1000))
        .collect();
    for chunk in (0..accounts).collect::<Vec<_>>().chunks(1024) {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for &id in chunk {
            db.insert(
                &mut txn,
                TABLE,
                row![id, id % branches, initial[id as usize]],
            )?;
        }
        db.commit(&mut txn)?;
    }
    db.create_indexed_view(ViewSpec {
        name: VIEW.into(),
        source: ViewSource::Single {
            table: t,
            group_by: vec![1],
        },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })?;
    if rollup {
        // Parent rows are [branch | COUNT | SUM]: roll column 2 up.
        db.create_derived_view(
            TOTAL,
            VIEW,
            vec![],
            vec![AggSpec::SumInt { col: 2 }],
            MaintenanceMode::Escrow,
        )?;
    }
    Ok((db, initial))
}

/// Final balances as `(id, branch, balance)`.
pub fn read_accounts(db: &Database) -> Vec<(i64, i64, i64)> {
    db.dump_table(TABLE)
        .expect("dump accounts")
        .iter()
        .map(int_triple)
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    pin_to_one_cpu();
    let ((db, initial), setup_s) = setup_repeated(|| {
        build_bank(cfg.seed, ACCOUNTS, BRANCHES, true, POOL_PAGES).expect("bank set-up")
    });
    let mut m = Measured {
        setup_s,
        ..Default::default()
    };
    let w = Window::after_warmup(cfg);
    let (before, after, results) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &db;
                s.spawn(move || client(db, cfg, t, &w))
            })
            .collect();
        Window::sleep_until(w.open);
        let before = db.metrics_snapshot();
        Window::sleep_until(w.end);
        let after = db.metrics_snapshot();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (before, after, results)
    });
    let mut expected = initial;
    for (tally, deltas) in results {
        m.t.absorb(tally);
        for (e, d) in expected.iter_mut().zip(deltas) {
            *e += d;
        }
    }
    let branches: Vec<i64> = (0..BRANCHES).collect();
    let total = read_groups(&db, TOTAL, &[0])[0].map(|(_, c, s)| (c, s));
    if total.is_none() {
        m.t.violations.push("global rollup row missing".into());
    }
    m.t.violations.extend(check_bank(
        &expected,
        BRANCHES,
        &read_accounts(&db),
        &read_groups(&db, VIEW, &branches),
        total,
    ));
    m.slice_s = w.slices();
    Delta::new(before, after).engine_layers(&db, &mut m.layers, m.t.write_txns);
    m.layers.set(
        "versions.chain_entries",
        chain_entries(&db, VIEW, &branches),
    );
    m.finish()
}

/// One closed-loop client; returns its tally and the deposits it committed
/// per account.
fn client(db: &Database, cfg: &Config, t: u64, w: &Window) -> (Tally, Vec<i64>) {
    let mut rng = Rng::new(cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1)));
    let mut tally = Tally::default();
    let mut deltas = vec![0i64; ACCOUNTS as usize];
    let per_branch = ACCOUNTS / BRANCHES;
    while Instant::now() < w.end {
        let t0 = Instant::now();
        if rng.chance(READ_SHARE) {
            let b = rng.below(BRANCHES as u64) as i64;
            let mut txn = db.begin(IsolationLevel::ReadCommitted);
            let got = tally.calls.read(db, cfg.trace, || {
                db.view_lookup(&mut txn, VIEW, &[Value::Int(b)])
            });
            let out = got.and_then(|r| db.commit(&mut txn).map(|_| r));
            let ok = out.is_ok();
            tally.op(w, t0, false, ok, 0);
            match out {
                Ok(Some(r)) if int_triple(&r).1 == per_branch => {}
                Ok(r) => tally.violation(format!("RC read of branch {b} saw {r:?}")),
                Err(e) => {
                    if txn.is_active() {
                        let _ = db.rollback(&mut txn);
                    }
                    eprintln!("branch read failed: {e}");
                }
            }
        } else {
            let mut ids: Vec<i64> = Vec::with_capacity(ROWS_PER_DEPOSIT);
            while ids.len() < ROWS_PER_DEPOSIT {
                let id = rng.below(ACCOUNTS as u64) as i64;
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            // Ascending ids: two deposits never wait on each other in a cycle.
            ids.sort_unstable();
            let amounts: Vec<i64> = ids.iter().map(|_| rng.range_inclusive(1, 9)).collect();
            let mut txn = db.begin(IsolationLevel::ReadCommitted);
            let calls = &mut tally.calls;
            let out = ids
                .iter()
                .zip(&amounts)
                .try_for_each(|(&id, &d)| {
                    timed(cfg.trace, &mut calls.dml, || {
                        db.update_with(&mut txn, TABLE, &[Value::Int(id)], |r| add_to(r, 2, d))
                    })
                })
                .and_then(|()| timed(cfg.trace, &mut calls.commit, || db.commit(&mut txn)));
            tally.op(w, t0, true, out.is_ok(), ROWS_PER_DEPOSIT as u64);
            match out {
                Ok(_) => {
                    for (&id, &d) in ids.iter().zip(&amounts) {
                        deltas[id as usize] += d;
                    }
                }
                Err(e) => {
                    if txn.is_active() {
                        let _ = db.rollback(&mut txn);
                    }
                    eprintln!("deposit failed: {e}");
                }
            }
        }
    }
    (tally, deltas)
}
