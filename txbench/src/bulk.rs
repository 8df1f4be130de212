//! `bulk_churn`: big transactions and the ghost path. One thread repeats
//! rounds on a table that already holds a history: one transaction inserts
//! 4,096 rows into 32 fresh groups under an escrow `SUM` view, RC reads
//! check every group, a second transaction deletes all of those rows (each
//! group falls to zero and becomes a ghost), ghost cleanup runs, and RC
//! reads check that no churned group is left.
//!
//! Write latency here is per statement (each insert, delete and commit the
//! client issues), since a round holds only two transactions.

use crate::ledger::{check_cleanup, check_groups};
use crate::run::{
    chain_entries, int_triple, read_groups, setup_repeated, us, Config, Delta, Measured, Outcome,
    Tally, Window, SYNC_US,
};
use crate::stats::Mean;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_common::rng::Rng;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Result, Value};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

const TABLE: &str = "events";
const VIEW: &str = "group_totals";
const HISTORY_ROWS: i64 = 16_384;
const HISTORY_GROUPS: i64 = 64;
/// Rows inserted (and then deleted) by each bulk transaction.
const ROWS: usize = 4096;
/// Fresh groups per round.
const GROUPS: usize = 32;
/// Rows at each end of a bulk transaction whose call times are compared.
const HEAD_TAIL: usize = 1024;
/// 64 RC reads a round: 16 rounds give the read p99 ten samples beyond it.
/// Rounds are whole: the last one may end after the window closes.
const MIN_ROUNDS: usize = 16;
const POOL_PAGES: usize = 4096;

/// `(COUNT, SUM)` of each history group as loaded.
type History = Vec<(i64, i64)>;

fn build(seed: u64) -> Result<(Arc<Database>, History)> {
    let db =
        Database::new_in_memory_slow_sync(POOL_PAGES, Duration::from_secs(10), SYNC_US, 0, seed);
    let t = db.create_table(
        TABLE,
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("amount", ValueType::Int),
            ],
            vec![0],
        )?,
    )?;
    let mut rng = Rng::new(seed);
    let mut history = vec![(0i64, 0i64); HISTORY_GROUPS as usize];
    for chunk in (0..HISTORY_ROWS).collect::<Vec<_>>().chunks(1024) {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for &id in chunk {
            let (g, amount) = (id % HISTORY_GROUPS, rng.range_inclusive(1, 100));
            db.insert(&mut txn, TABLE, row![id, g, amount])?;
            history[g as usize].0 += 1;
            history[g as usize].1 += amount;
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
    Ok((db, history))
}

/// Per-call timers of the traced run. Head and tail means are indexed by
/// statement kind: [`INSERT`] or [`DELETE`].
#[derive(Default)]
struct BulkCalls {
    head: [Mean; 2],
    tail: [Mean; 2],
    cleanup_ms: Mean,
    removed: Mean,
}

const INSERT: usize = 0;
const DELETE: usize = 1;

struct Round<'a> {
    db: &'a Database,
    trace: bool,
    tally: Tally,
    calls: BulkCalls,
    counted: bool,
    /// Slice of the current round: one slice per counted round.
    slice: usize,
}

impl Round<'_> {
    /// One statement of a bulk transaction, timed as a write sample; with
    /// tracing, also as a head or tail call of its transaction.
    fn statement(&mut self, kind: usize, i: usize, f: impl FnOnce() -> Result<()>) -> Result<()> {
        let t0 = Instant::now();
        let out = f();
        let lat = us(t0.elapsed());
        if self.counted {
            self.tally.attempted += 1;
            self.tally.sample(self.slice, true, lat);
            if self.trace {
                self.tally.calls.dml.add(lat);
                if i < HEAD_TAIL {
                    self.calls.head[kind].add(lat);
                } else if i >= ROWS - HEAD_TAIL {
                    self.calls.tail[kind].add(lat);
                }
            }
        }
        out
    }

    fn commit(&mut self, txn: &mut txview_engine::Transaction) -> Result<()> {
        let t0 = Instant::now();
        let out = self.db.commit(txn).map(|_| ());
        let lat = us(t0.elapsed());
        if self.counted {
            self.tally.attempted += 1;
            self.tally.sample(self.slice, true, lat);
            self.tally.txn(self.slice, true, ROWS as u64);
            if self.trace {
                self.tally.calls.commit.add(lat);
            }
        }
        out
    }

    /// RC point reads of `groups`, one transaction each, as read samples.
    fn read(&mut self, groups: &[i64]) -> Result<Vec<Option<(i64, i64, i64)>>> {
        let mut out = Vec::with_capacity(groups.len());
        for &g in groups {
            let t0 = Instant::now();
            let mut txn = self.db.begin(IsolationLevel::ReadCommitted);
            let db = self.db;
            let row = self.tally.calls.read(db, self.trace && self.counted, || {
                db.view_lookup(&mut txn, VIEW, &[Value::Int(g)])
            })?;
            db.commit(&mut txn)?;
            if self.counted {
                self.tally.attempted += 1;
                self.tally.sample(self.slice, false, us(t0.elapsed()));
                self.tally.txn(self.slice, false, 0);
            }
            out.push(row.as_ref().map(int_triple));
        }
        Ok(out)
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let ((db, history), setup_s) = setup_repeated(|| build(cfg.seed).expect("bulk set-up"));
    let mut m = Measured {
        setup_s,
        ..Default::default()
    };
    let mut rng = Rng::new(cfg.seed.wrapping_add(1));
    let mut r = Round {
        db: &db,
        trace: cfg.trace,
        tally: Tally::default(),
        calls: BulkCalls::default(),
        counted: false,
        slice: 0,
    };
    let w = Window::after_warmup(cfg);
    let mut before = None;
    let mut seq = 0i64;
    let mut last_groups = Vec::new();
    loop {
        let t0 = Instant::now();
        if t0 >= w.end && m.slice_s.len() >= MIN_ROUNDS {
            break;
        }
        r.counted = t0 >= w.open;
        r.slice = m.slice_s.len();
        if r.counted && before.is_none() {
            before = Some(db.metrics_snapshot());
        }
        // Fresh group and row ids every round, counted or not.
        let groups: Vec<i64> = (0..GROUPS as i64)
            .map(|j| HISTORY_GROUPS + seq * GROUPS as i64 + j)
            .collect();
        match churn(&mut r, &mut rng, &groups, HISTORY_ROWS + seq * ROWS as i64) {
            Ok(v) => r.tally.violations.extend(v),
            Err(e) => {
                r.tally.violations.push(format!("churn round failed: {e}"));
                break;
            }
        }
        seq += 1;
        if r.counted {
            m.slice_s.push(t0.elapsed().as_secs_f64());
        }
        last_groups = groups;
    }
    let before = before.expect("at least one counted round");
    let after = db.metrics_snapshot();
    let write_txns = r.tally.write_txns;
    m.t.absorb(r.tally);
    // The history must be exactly what set-up loaded.
    let hist_groups: Vec<i64> = (0..HISTORY_GROUPS).collect();
    let want: Vec<(i64, Option<(i64, i64)>)> = history
        .iter()
        .enumerate()
        .map(|(g, &cs)| (g as i64, Some(cs)))
        .collect();
    m.t.violations.extend(check_groups(
        "history",
        &want,
        &read_groups(&db, VIEW, &hist_groups),
    ));
    let live = db.dump_table(TABLE).expect("dump events").len() as i64;
    if live != HISTORY_ROWS {
        m.t.violations.push(format!(
            "{live} live events, expected the {HISTORY_ROWS} of the history"
        ));
    }
    let d = Delta::new(before, after);
    d.engine_layers(&db, &mut m.layers, write_txns);
    let rows = (write_txns * ROWS as u64) as f64;
    m.layers
        .set("lock.grants_per_row", d.counter("lock.acquired") / rows);
    m.layers
        .set("wal.bytes_per_row", d.counter("wal.appended_bytes") / rows);
    m.layers
        .set("engine.insert_us.head", r.calls.head[INSERT].get());
    m.layers
        .set("engine.insert_us.tail", r.calls.tail[INSERT].get());
    m.layers
        .set("engine.delete_us.head", r.calls.head[DELETE].get());
    m.layers
        .set("engine.delete_us.tail", r.calls.tail[DELETE].get());
    m.layers
        .set("engine.ghost_cleanup_ms", r.calls.cleanup_ms.get());
    m.layers
        .set("engine.ghosts_removed_per_round", r.calls.removed.get());
    m.layers.set(
        "versions.chain_entries",
        chain_entries(&db, VIEW, &last_groups),
    );
    m.finish()
}

/// One round: bulk insert, check, bulk delete, ghost cleanup, check.
fn churn(r: &mut Round, rng: &mut Rng, groups: &[i64], first_id: i64) -> Result<Vec<String>> {
    let db = r.db;
    let rows: Vec<(i64, i64, i64)> = (0..ROWS)
        .map(|i| {
            (
                first_id + i as i64,
                groups[i % GROUPS],
                rng.range_inclusive(1, 100),
            )
        })
        .collect();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (i, &(id, g, amount)) in rows.iter().enumerate() {
        r.statement(INSERT, i, || {
            db.insert(&mut txn, TABLE, row![id, g, amount])
        })?;
    }
    r.commit(&mut txn)?;
    let mut want: Vec<(i64, Option<(i64, i64)>)> =
        groups.iter().map(|&g| (g, Some((0, 0)))).collect();
    for (i, &(_, _, amount)) in rows.iter().enumerate() {
        let cs = want[i % GROUPS]
            .1
            .as_mut()
            .expect("every group is live after insert");
        cs.0 += 1;
        cs.1 += amount;
    }
    let mut bad = check_groups("after insert", &want, &r.read(groups)?);

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (i, &(id, _, _)) in rows.iter().enumerate() {
        r.statement(DELETE, i, || db.delete(&mut txn, TABLE, &[Value::Int(id)]))?;
    }
    r.commit(&mut txn)?;

    let t0 = Instant::now();
    let report = db.run_ghost_cleanup()?;
    if r.counted && r.trace {
        r.calls.cleanup_ms.add(us(t0.elapsed()) / 1000.0);
        r.calls.removed.add(report.removed as f64);
    }
    bad.extend(check_cleanup(report.removed, ROWS, GROUPS));
    let gone: Vec<(i64, Option<(i64, i64)>)> = groups.iter().map(|&g| (g, None)).collect();
    bad.extend(check_groups("after cleanup", &gone, &r.read(groups)?));
    Ok(bad)
}
