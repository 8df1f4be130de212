//! `htap_snapshot`: snapshot scans over a view whose every row has a
//! version chain, beside a paced escrow writer. A reader thread alternates
//! snapshot-isolation 10-row range scans with RC point reads over a view
//! of 16,384 groups; one writer thread commits single-row escrow updates
//! at a fixed offered rate. Table and view together are several times the
//! buffer pool.
//!
//! End-to-end `read.*` here are the RC point reads (they bypass the
//! version store); the scans count in `txn_per_s` and their own
//! percentiles are per-layer figures.

use crate::ledger::{check_groups, check_scans, ScanRecord};
use crate::run::{
    add_to, chain_entries, int_triple, read_groups, setup_repeated, timed, us, Config, Delta,
    Measured, Outcome, Tally, Window, SYNC_US,
};
use crate::stats::{Latencies, Mean};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_common::rng::Rng;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Result, Value};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

const TABLE: &str = "readings";
const VIEW: &str = "sensor_totals";
const GROUPS: i64 = 16_384;
const ROWS_PER_GROUP: i64 = 2;
/// Groups per snapshot range scan.
const WIDTH: i64 = 10;
/// 1 MiB of 8 KiB pages, against about 8 MiB of table and view.
const POOL_PAGES: usize = 128;
/// Mean offered rate of the paced writer (Poisson arrivals).
const WRITES_PER_S: f64 = 400.0;
/// Groups whose version chains are measured at run end.
const CHAIN_SAMPLE: i64 = 256;
/// Padding that makes each base row about 100 bytes.
const PAD: &str = "htap-padding-htap-padding-htap-padding-htap-padding-htap-padding";

/// Rows are `(id, grp = id % GROUPS, value, pad)`. After the load, one
/// update per group gives every view row a version chain. Returns the
/// database and each group's SUM after set-up.
fn build(seed: u64) -> Result<(Arc<Database>, Vec<i64>)> {
    let db =
        Database::new_in_memory_slow_sync(POOL_PAGES, Duration::from_secs(10), SYNC_US, 0, seed);
    let t = db.create_table(
        TABLE,
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("value", ValueType::Int),
                Column::new("pad", ValueType::Str),
            ],
            vec![0],
        )?,
    )?;
    let mut rng = Rng::new(seed);
    let mut sums = vec![0i64; GROUPS as usize];
    let ids: Vec<i64> = (0..GROUPS * ROWS_PER_GROUP).collect();
    for chunk in ids.chunks(1024) {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for &id in chunk {
            let v = rng.range_inclusive(1, 1000);
            sums[(id % GROUPS) as usize] += v;
            db.insert(&mut txn, TABLE, row![id, id % GROUPS, v, PAD])?;
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
    for chunk in (0..GROUPS).collect::<Vec<_>>().chunks(1024) {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for &g in chunk {
            let d = rng.range_inclusive(1, 9);
            sums[g as usize] += d;
            db.update_with(&mut txn, TABLE, &[Value::Int(g)], |r| add_to(r, 2, d))?;
        }
        db.commit(&mut txn)?;
    }
    Ok((db, sums))
}

struct ReaderOut {
    tally: Tally,
    scans: Vec<ScanRecord>,
    scan_us: Vec<f64>,
}

struct WriterOut {
    tally: Tally,
    /// `(commit LSN, group, delta)` of every committed write.
    log: Vec<(u64, i64, i64)>,
    late: Mean,
}

pub fn run(cfg: &Config) -> Outcome {
    let ((db, initial), setup_s) = setup_repeated(|| build(cfg.seed).expect("htap set-up"));
    let mut m = Measured {
        setup_s,
        ..Default::default()
    };
    let w = Window::after_warmup(cfg);
    let (before, after, reader, writer) = std::thread::scope(|s| {
        let db = &db;
        let r = s.spawn(move || reader(db, cfg, &w));
        let wr = s.spawn(move || writer(db, cfg, &w));
        Window::sleep_until(w.open);
        let before = db.metrics_snapshot();
        Window::sleep_until(w.end);
        let after = db.metrics_snapshot();
        (
            before,
            after,
            r.join().expect("reader thread"),
            wr.join().expect("writer thread"),
        )
    });
    m.t.violations.extend(check_scans(
        &initial,
        ROWS_PER_GROUP,
        WIDTH,
        &writer.log,
        &reader.scans,
    ));
    let mut want: Vec<(i64, Option<(i64, i64)>)> = initial
        .iter()
        .enumerate()
        .map(|(g, &s)| (g as i64, Some((ROWS_PER_GROUP, s))))
        .collect();
    for &(_, g, d) in &writer.log {
        want[g as usize].1.as_mut().expect("all groups live").1 += d;
    }
    let all: Vec<i64> = (0..GROUPS).collect();
    m.t.violations
        .extend(check_groups("final", &want, &read_groups(&db, VIEW, &all)));

    let scans = Latencies::new(reader.scan_us);
    m.layers
        .set("snapshot_scan.p50_us", scans.percentile(0.5).unwrap_or(0.0));
    m.layers
        .set("snapshot_scan.p99_us", scans.tail(0.99).unwrap_or(0.0));
    m.layers.set("writer.late_us", writer.late.get());
    let sample: Vec<i64> = (0..CHAIN_SAMPLE)
        .map(|i| i * (GROUPS / CHAIN_SAMPLE))
        .collect();
    m.layers
        .set("versions.chain_entries", chain_entries(&db, VIEW, &sample));
    m.t.absorb(reader.tally);
    m.t.absorb(writer.tally);
    m.slice_s = w.slices();
    Delta::new(before, after).engine_layers(&db, &mut m.layers, m.t.write_txns);
    m.finish()
}

/// Closed loop: a snapshot range scan, then an RC point read, repeated.
fn reader(db: &Database, cfg: &Config, w: &Window) -> ReaderOut {
    let mut rng = Rng::new(cfg.seed ^ 0x5EED_0F5C_A11E_D000);
    let mut out = ReaderOut {
        tally: Tally::default(),
        scans: Vec::new(),
        scan_us: Vec::new(),
    };
    let t = &mut out.tally;
    while Instant::now() < w.end {
        let t0 = Instant::now();
        let lo = rng.below((GROUPS - WIDTH + 1) as u64) as i64;
        let mut txn = db.begin(IsolationLevel::Snapshot);
        let snapshot = txn.snapshot_lsn.0;
        let scanned = timed(cfg.trace, &mut t.calls.scan, || {
            db.view_scan(
                &mut txn,
                VIEW,
                Some(&[Value::Int(lo)]),
                Some(&[Value::Int(lo + WIDTH)]),
            )
        })
        .and_then(|rows| db.commit(&mut txn).map(|_| rows));
        if w.counts(t0) {
            t.attempted += 1;
            match &scanned {
                Ok(_) => {
                    t.txn(w.slice(t0), false, 0);
                    out.scan_us.push(us(t0.elapsed()));
                }
                Err(_) => t.failed += 1,
            }
        }
        match scanned {
            Ok(rows) => out.scans.push(ScanRecord {
                snapshot,
                lo,
                rows: rows.iter().map(int_triple).collect(),
            }),
            Err(e) => eprintln!("snapshot scan failed: {e}"),
        }

        let t0 = Instant::now();
        let g = rng.below(GROUPS as u64) as i64;
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        let got = t.calls.read(db, cfg.trace, || {
            db.view_lookup(&mut txn, VIEW, &[Value::Int(g)])
        });
        let got = got.and_then(|r| db.commit(&mut txn).map(|_| r));
        t.op(w, t0, false, got.is_ok(), 0);
        match got {
            Ok(Some(r)) if int_triple(&r).0 == g && int_triple(&r).1 == ROWS_PER_GROUP => {}
            Ok(r) => t.violation(format!("RC read of group {g} saw {r:?}")),
            Err(e) => eprintln!("point read failed: {e}"),
        }
    }
    out
}

/// Open loop: single-row escrow updates with seeded exponential gaps, so
/// `WRITES_PER_S` arrive per second on average whatever the engine does.
/// Each is timed from when it was issued; how late the generator issued it
/// after it was due is reported apart (`writer.late_us`).
fn writer(db: &Database, cfg: &Config, w: &Window) -> WriterOut {
    let mut rng = Rng::new(cfg.seed ^ 0x00DD_BA11_5EED);
    let mut out = WriterOut {
        tally: Tally::default(),
        log: Vec::new(),
        late: Mean::default(),
    };
    let mut due = Instant::now();
    loop {
        let gap = -(1.0 - rng.f64()).ln() / WRITES_PER_S;
        due += Duration::from_secs_f64(gap);
        if due >= w.end {
            break;
        }
        pace_until(due);
        let issued = Instant::now();
        if w.counts(due) {
            out.late.add(us(issued - due));
        }
        let id = rng.below((GROUPS * ROWS_PER_GROUP) as u64) as i64;
        let d = rng.range_inclusive(1, 9);
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        let calls = &mut out.tally.calls;
        let res = timed(cfg.trace, &mut calls.dml, || {
            db.update_with(&mut txn, TABLE, &[Value::Int(id)], |r| add_to(r, 2, d))
        })
        .and_then(|()| timed(cfg.trace, &mut calls.commit, || db.commit(&mut txn)));
        out.tally
            .op_timed_from(w, due, issued, true, res.is_ok(), 1);
        match res {
            Ok(lsn) => out.log.push((lsn.0, id % GROUPS, d)),
            Err(e) => {
                if txn.is_active() {
                    let _ = db.rollback(&mut txn);
                }
                eprintln!("paced write failed: {e}");
            }
        }
    }
    out
}

/// Sleep until just before `due`, then yield until it passes: an OS sleep
/// alone overshoots by tens of microseconds.
fn pace_until(due: Instant) {
    let margin = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + margin {
        std::thread::sleep(due - now - margin);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}
