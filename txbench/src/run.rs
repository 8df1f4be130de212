//! What every workload shares: configuration, the metric catalogue, set-up
//! timing, snapshot deltas, the traced per-call timers, and turning raw
//! samples into the reported metrics.

use crate::ledger::GroupRow;
use crate::stats::{median, Latencies, Mean};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use txview_common::obs::Snapshot;
use txview_common::{Row, Value};
use txview_engine::{Database, IsolationLevel};

/// Per-sync latency of the seeded log-device model, in microseconds.
pub const SYNC_US: u64 = 50;
/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS: usize = 5;
/// Unmeasured lead-in before the window opens (caches fill, threads start).
pub const WARMUP: Duration = Duration::from_millis(1000);

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Config {
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("txn_per_s", "1/s"),
    ("rows_written_per_s", "rows/s"),
    ("write.p50_us", "us"),
    ("write.p90_us", "us"),
    ("read.p50_us", "us"),
    ("read.p90_us", "us"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload never reaches
/// reports 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("write.p99_us", "us"),
    ("read.p99_us", "us"),
    ("server.round_trip_us", "us"),
    ("server.self_us", "us"),
    ("server.requests", "count"),
    ("server.error_responses", "count"),
    ("engine.dml_us", "us"),
    ("engine.escrow_applies_per_txn", "count/txn"),
    ("engine.insert_us.head", "us"),
    ("engine.insert_us.tail", "us"),
    ("engine.delete_us.head", "us"),
    ("engine.delete_us.tail", "us"),
    ("engine.read_us", "us"),
    ("engine.snapshot_scan_us", "us"),
    ("snapshot_scan.p50_us", "us"),
    ("snapshot_scan.p99_us", "us"),
    ("versions.chain_entries", "count"),
    ("engine.ghost_cleanup_ms", "ms"),
    ("engine.ghosts_removed_per_round", "count"),
    ("engine.commit_us", "us"),
    ("txn.phase.acquire_us", "us"),
    ("txn.phase.maintain_us", "us"),
    ("txn.phase.log_force_us", "us"),
    ("lock.grants_per_txn", "count/txn"),
    ("lock.escrow_grants_per_txn", "count/txn"),
    ("lock.waits_per_txn", "count/txn"),
    ("lock.wait_us_per_txn", "us/txn"),
    ("lock.grants_per_row", "count/row"),
    ("view.refreshes_per_txn", "count/txn"),
    ("view.coalesce_hits_per_txn", "count/txn"),
    ("wal.bytes_per_txn", "B/txn"),
    ("wal.records_per_txn", "count/txn"),
    ("wal.syncs_per_txn", "count/txn"),
    ("wal.sync_us", "us"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_row", "B/row"),
    ("pool.hits_per_read", "count/read"),
    ("pool.misses_per_read", "count/read"),
    ("pool.evict_scan_per_miss", "count/miss"),
    ("storage.pages", "count"),
    ("pool.frames", "count"),
    ("writer.late_us", "us"),
];

/// Per-layer values by name; names outside [`PER_LAYER`] are a bug.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, v);
    }
}

/// One metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
}

/// What a workload measured, before it becomes metrics.
///
/// A run is cut into slices: one-second slices of the window, or one
/// round each for `bulk_churn`. Rates and medians are taken per slice and
/// the median slice is reported, so a burst of interference from outside
/// the process moves one slice rather than the result. Tails pool every
/// sample of the window.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Length of each slice in seconds.
    pub slice_s: Vec<f64>,
    pub t: Tally,
    pub layers: Layers,
}

impl Measured {
    pub fn finish(mut self) -> Outcome {
        self.t.calls.to_layers(&mut self.layers);
        let t = &mut self.t;
        let per_slice = |counts: &[u64]| -> f64 {
            let rates: Vec<f64> = self
                .slice_s
                .iter()
                .enumerate()
                .map(|(i, s)| counts.get(i).copied().unwrap_or(0) as f64 / s)
                .collect();
            median(&rates)
        };
        let mut classes = Vec::new();
        let classes_in = [
            ("write", &t.writes, "write.p99_us"),
            ("read", &t.reads, "read.p99_us"),
        ];
        for (class, samples, p99_name) in classes_in {
            let all = Latencies::new(samples.iter().map(|s| s.1).collect());
            let p50 = slice_median_p50(samples, self.slice_s.len());
            let p90 = all.tail(0.9);
            if p50.is_none() || p90.is_none() {
                t.violations.push(format!(
                    "{class}: {} samples cannot support a p90",
                    samples.len()
                ));
            }
            // A p99 is only a per-layer figure, and only with ten samples beyond it.
            self.layers.set(p99_name, all.tail(0.99).unwrap_or(0.0));
            classes.push((p50.unwrap_or(f64::NAN), p90.unwrap_or(f64::NAN)));
        }
        let values = [
            per_slice(&t.txns),
            per_slice(&t.rows),
            classes[0].0,
            classes[0].1,
            classes[1].0,
            classes[1].1,
            median(&self.setup_s),
            peak_rss_mb(),
        ];
        let e2e = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        let layers = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, self.layers.0.get(n).copied().unwrap_or(0.0)))
            .collect();
        Outcome {
            attempted: t.attempted,
            failed: t.failed,
            violations: std::mem::take(&mut t.violations),
            e2e,
            layers,
        }
    }
}

/// Median over slices of each slice's exact median; `None` without samples.
fn slice_median_p50(samples: &[(usize, f64)], slices: usize) -> Option<f64> {
    let mut by_slice = vec![Vec::new(); slices];
    for &(i, v) in samples {
        if let Some(s) = by_slice.get_mut(i) {
            s.push(v);
        }
    }
    let p50s: Vec<f64> = by_slice
        .into_iter()
        .filter_map(|s| Latencies::new(s).percentile(0.5))
        .collect();
    (!p50s.is_empty()).then(|| median(&p50s))
}

/// Confine this thread, and every thread it starts from now on, to the
/// lowest-numbered CPU it may run on; if the host refuses, say so on
/// standard error and run on every CPU allowed.
///
/// A closed loop whose threads hand work to each other pays a cross-core
/// wake-up per hand-off, and on a shared virtual host that wake-up takes
/// anything from microseconds to milliseconds depending on what the other
/// tenants do. On one CPU a hand-off is a switch on the same core.
pub fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of a
    // `cpu_set_t`; pid 0 is this thread.
    let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } == 0;
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0);
    let Some(cpu) = cpu.filter(|_| got) else {
        let e = std::io::Error::last_os_error();
        eprintln!("txbench: running on every CPU allowed: sched_getaffinity: {e}");
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` holds exactly one CPU of the current mask.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        let e = std::io::Error::last_os_error();
        eprintln!("txbench: running on every CPU allowed: sched_setaffinity: {e}");
    }
}

/// Build `SETUPS` times, dropping each earlier instance before the next is
/// built, and return the last with every set-up time.
pub fn setup_repeated<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), times)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Run `f`, adding its wall time to `m` when tracing.
#[inline]
pub fn timed<T>(trace: bool, m: &mut Mean, f: impl FnOnce() -> T) -> T {
    if !trace {
        return f();
    }
    let t = Instant::now();
    let out = f();
    m.add(us(t.elapsed()));
    out
}

/// Per-call timers of the traced run, kept per thread and merged.
#[derive(Clone, Default)]
pub struct Calls {
    pub dml: Mean,
    pub commit: Mean,
    pub read: Mean,
    pub scan: Mean,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl Calls {
    pub fn merge(&mut self, o: &Calls) {
        self.dml.merge(&o.dml);
        self.commit.merge(&o.commit);
        self.read.merge(&o.read);
        self.scan.merge(&o.scan);
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
    }

    /// Time one RC point read and count the buffer-pool fetches made while
    /// it ran (another thread's fetches in that interval count too).
    pub fn read<T>(&mut self, db: &Database, trace: bool, f: impl FnOnce() -> T) -> T {
        if !trace {
            return f();
        }
        let obs = db.pool().obs();
        let (h0, m0) = (obs.hits.get(), obs.misses.get());
        let out = timed(true, &mut self.read, f);
        self.pool_hits += obs.hits.get() - h0;
        self.pool_misses += obs.misses.get() - m0;
        out
    }

    pub fn to_layers(&self, l: &mut Layers) {
        l.set("engine.dml_us", self.dml.get());
        l.set("engine.commit_us", self.commit.get());
        l.set("engine.read_us", self.read.get());
        l.set("engine.snapshot_scan_us", self.scan.get());
        let reads = self.read.n.max(1) as f64;
        l.set("pool.hits_per_read", self.pool_hits as f64 / reads);
        l.set("pool.misses_per_read", self.pool_misses as f64 / reads);
    }
}

/// Difference of two engine metric snapshots over the measured window.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn new(before: Snapshot, after: Snapshot) -> Delta {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.counter_value(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// (observations, sum) recorded into histogram `name` in the window.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let get = |s: &Snapshot| {
            s.hist_value(name)
                .map(|h| (h.count(), h.sum))
                .unwrap_or((0, 0))
        };
        let ((c0, s0), (c1, s1)) = (get(&self.before), get(&self.after));
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        ratio(self.hist(name).1, self.hist(name).0)
    }

    /// Engine-side layer metrics. `_per_txn` figures and phase times are
    /// per write transaction committed in the window (`write_txns`):
    /// readers commit too, but lock nothing for long and force nothing.
    /// Also the data size against the pool, from `db` at run end.
    pub fn engine_layers(&self, db: &Database, l: &mut Layers, write_txns: u64) {
        l.set("storage.pages", f64::from(db.pool().disk().num_pages()));
        l.set("pool.frames", db.pool().capacity() as f64);
        let per = |x: f64| ratio(x, write_txns as f64);
        l.set(
            "engine.escrow_applies_per_txn",
            per(self.counter("engine.escrow_applies")),
        );
        l.set("lock.grants_per_txn", per(self.counter("lock.acquired")));
        l.set(
            "lock.escrow_grants_per_txn",
            per(self.counter("lock.escrow_grants")),
        );
        l.set("lock.waits_per_txn", per(self.counter("lock.waited")));
        let wait_us: f64 = ["lock.wait_us.e", "lock.wait_us.x", "lock.wait_us.other"]
            .iter()
            .map(|n| self.hist(n).1)
            .sum();
        l.set("lock.wait_us_per_txn", per(wait_us));
        l.set(
            "view.refreshes_per_txn",
            per(self.counter("view.graph.refreshes")),
        );
        l.set(
            "view.coalesce_hits_per_txn",
            per(self.counter("view.graph.coalesce_hits")),
        );
        l.set("wal.bytes_per_txn", per(self.counter("wal.appended_bytes")));
        l.set(
            "wal.records_per_txn",
            per(self.counter("wal.appended_records")),
        );
        l.set("wal.syncs_per_txn", per(self.hist("wal.sync_us").0));
        l.set(
            "txn.phase.acquire_us",
            per(self.hist("txn.phase.acquire_us").1),
        );
        l.set(
            "txn.phase.maintain_us",
            per(self.hist("txn.phase.maintain_us").1),
        );
        l.set(
            "txn.phase.log_force_us",
            per(self.hist("txn.phase.log_force_us").1),
        );
        l.set("wal.sync_us", self.hist_mean("wal.sync_us"));
        l.set("wal.append_us", self.hist_mean("wal.append_us"));
        l.set(
            "pool.evict_scan_per_miss",
            ratio(self.hist("pool.evict_scan").1, self.counter("pool.misses")),
        );
    }
}

pub fn ratio(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

/// Mean version-chain length over `groups` of `view` (run end).
pub fn chain_entries(db: &Database, view: &str, groups: &[i64]) -> f64 {
    let total: usize = groups
        .iter()
        .map(|&g| {
            db.debug_chain(view, &[Value::Int(g)])
                .expect("view exists")
                .len()
        })
        .sum();
    ratio(total as f64, groups.len() as f64)
}

/// `r` with `delta` added to its INT column `col`.
pub fn add_to(r: &Row, col: usize, delta: i64) -> Row {
    let mut out = r.clone();
    out.set(
        col,
        Value::Int(r.get(col).as_int().expect("INT column") + delta),
    );
    out
}

/// The first three INT columns of a row: a view row's `[group, COUNT_BIG,
/// SUM]`, or a base row's `(id, group, value)`.
pub fn int_triple(row: &Row) -> GroupRow {
    let int = |i: usize| row.get(i).as_int().expect("view columns are INT");
    (int(0), int(1), int(2))
}

/// Read `groups` of `view` at read committed, in one transaction.
pub fn read_groups(db: &Database, view: &str, groups: &[i64]) -> Vec<Option<GroupRow>> {
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let rows = groups
        .iter()
        .map(|&g| {
            db.view_lookup(&mut txn, view, &[Value::Int(g)])
                .expect("view lookup")
                .map(|r| int_triple(&r))
        })
        .collect();
    db.commit(&mut txn).expect("reader commit");
    rows
}

/// The measured window: operations that start inside it are counted, in
/// the one-second slice they start in.
#[derive(Clone, Copy)]
pub struct Window {
    pub open: Instant,
    pub end: Instant,
}

impl Window {
    /// A window that opens after the warm-up, starting now.
    pub fn after_warmup(cfg: &Config) -> Window {
        let open = Instant::now() + WARMUP;
        Window {
            open,
            end: open + cfg.window(),
        }
    }

    pub fn counts(&self, started: Instant) -> bool {
        started >= self.open && started < self.end
    }

    pub fn slice(&self, started: Instant) -> usize {
        started.saturating_duration_since(self.open).as_secs() as usize
    }

    /// Slice lengths: one second each.
    pub fn slices(&self) -> Vec<f64> {
        vec![1.0; (self.end - self.open).as_secs() as usize]
    }

    pub fn sleep_until(t: Instant) {
        let now = Instant::now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// What one load thread counted.
#[derive(Default)]
pub struct Tally {
    /// `(slice, latency in µs)` of each write and read.
    pub writes: Vec<(usize, f64)>,
    pub reads: Vec<(usize, f64)>,
    /// Transactions committed (requests answered) and base rows written,
    /// per slice.
    pub txns: Vec<u64>,
    pub rows: Vec<u64>,
    pub write_txns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub calls: Calls,
}

fn bump(v: &mut Vec<u64>, i: usize, n: u64) {
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] += n;
}

impl Tally {
    /// Count one committed transaction in slice `i`.
    pub fn txn(&mut self, i: usize, write: bool, rows: u64) {
        bump(&mut self.txns, i, 1);
        bump(&mut self.rows, i, rows);
        self.write_txns += u64::from(write);
    }

    /// One latency sample in slice `i`.
    pub fn sample(&mut self, i: usize, write: bool, lat: f64) {
        if write {
            self.writes.push((i, lat));
        } else {
            self.reads.push((i, lat));
        }
    }

    /// Count one transaction that started at `t0` and has just ended.
    pub fn op(&mut self, w: &Window, t0: Instant, write: bool, ok: bool, rows: u64) {
        self.op_timed_from(w, t0, t0, write, ok, rows);
    }

    /// [`Tally::op`] for an operation counted at `at` but timed from `from`.
    pub fn op_timed_from(
        &mut self,
        w: &Window,
        at: Instant,
        from: Instant,
        write: bool,
        ok: bool,
        rows: u64,
    ) {
        if !w.counts(at) {
            return;
        }
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        let i = w.slice(at);
        self.sample(i, write, us(from.elapsed()));
        self.txn(i, write, rows);
    }

    pub fn violation(&mut self, v: String) {
        if self.violations.len() < 20 {
            self.violations.push(v);
        }
    }

    pub fn absorb(&mut self, o: Tally) {
        self.writes.extend(o.writes);
        self.reads.extend(o.reads);
        for (i, &n) in o.txns.iter().enumerate() {
            bump(&mut self.txns, i, n);
        }
        for (i, &n) in o.rows.iter().enumerate() {
            bump(&mut self.rows, i, n);
        }
        self.write_txns += o.write_txns;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.violations.extend(o.violations);
        self.calls.merge(&o.calls);
    }
}
