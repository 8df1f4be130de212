//! Correctness ledgers, kept apart from the program: each workload records
//! what it did from its own side, and these checks compare the engine's
//! answers with what that record implies. Every check returns the list of
//! violations it found (empty means correct).

use std::collections::BTreeMap;

/// One view row as read back: group id, COUNT_BIG, SUM.
pub type GroupRow = (i64, i64, i64);

/// Bank ledger (escrow_oltp, served_oltp): `expected[id]` is account `id`'s
/// balance implied by its initial value plus every committed (acked)
/// deposit; accounts belong to branch `id % branches`. `accounts` holds the
/// base rows read back as `(id, branch, balance)`, `branch_rows` the
/// branch view, and `total` the global rollup `(COUNT, SUM)` if the
/// workload has one.
pub fn check_bank(
    expected: &[i64],
    branches: i64,
    accounts: &[(i64, i64, i64)],
    branch_rows: &[Option<GroupRow>],
    total: Option<(i64, i64)>,
) -> Vec<String> {
    let mut bad = Vec::new();
    if accounts.len() != expected.len() {
        bad.push(format!(
            "{} account rows, expected {}",
            accounts.len(),
            expected.len()
        ));
    }
    for &(id, branch, balance) in accounts {
        match usize::try_from(id).ok().and_then(|i| expected.get(i)) {
            None => bad.push(format!("unexpected account {id}")),
            Some(&want) if want != balance || branch != id % branches => bad.push(format!(
                "account {id}: balance {balance} branch {branch}, expected {want}"
            )),
            Some(_) => {}
        }
    }
    let mut want = vec![(0i64, 0i64); branches as usize];
    for (id, &bal) in expected.iter().enumerate() {
        let w = &mut want[id % branches as usize];
        w.0 += 1;
        w.1 += bal;
    }
    for (b, &(count, sum)) in want.iter().enumerate() {
        match branch_rows.get(b).copied().flatten() {
            Some((g, c, s)) if g == b as i64 && c == count && s == sum => {}
            got => bad.push(format!(
                "branch {b}: read {got:?}, expected count {count} sum {sum}"
            )),
        }
    }
    if let Some((count, sum)) = total {
        let want_total = (expected.len() as i64, expected.iter().sum::<i64>());
        if (count, sum) != want_total {
            bad.push(format!("rollup ({count}, {sum}), expected {want_total:?}"));
        }
    }
    bad
}

/// Group rows read back against the rows the ledger implies: `Some((count,
/// sum))` for a group that must be live with exactly those aggregates,
/// `None` for one that must not be visible.
pub fn check_groups(
    what: &str,
    expected: &[(i64, Option<(i64, i64)>)],
    observed: &[Option<GroupRow>],
) -> Vec<String> {
    if expected.len() != observed.len() {
        return vec![format!(
            "{what}: {} rows read for {} groups",
            observed.len(),
            expected.len()
        )];
    }
    let mut bad = Vec::new();
    for (&(g, want), got) in expected.iter().zip(observed) {
        let ok = match (want, got) {
            (None, None) => true,
            (Some((c, s)), Some((gg, cc, ss))) => *gg == g && *cc == c && *ss == s,
            _ => false,
        };
        if !ok {
            bad.push(format!("{what}: group {g} read {got:?}, expected {want:?}"));
        }
    }
    bad
}

/// Ghost cleanup after a churn round must remove every deleted base row
/// and every emptied group row, and nothing else.
pub fn check_cleanup(removed: usize, rows: usize, groups: usize) -> Vec<String> {
    if removed == rows + groups {
        Vec::new()
    } else {
        vec![format!(
            "cleanup removed {removed}, expected {rows} rows + {groups} groups"
        )]
    }
}

/// One snapshot range scan as the HTAP reader saw it.
#[derive(Clone, Debug)]
pub struct ScanRecord {
    /// The scan transaction's snapshot LSN.
    pub snapshot: u64,
    /// First group asked for; the scan covers `[lo, lo + width)`.
    pub lo: i64,
    pub rows: Vec<GroupRow>,
}

/// Snapshot scans against the paced writer's log: each scan must return
/// exactly the `width` groups asked for, each with COUNT `rows_per_group`
/// and SUM equal to its initial value plus the deltas whose commit LSN is
/// at or below the scan's snapshot LSN. `writes` holds `(commit LSN,
/// group, delta)` for every committed write.
pub fn check_scans(
    initial: &[i64],
    rows_per_group: i64,
    width: i64,
    writes: &[(u64, i64, i64)],
    scans: &[ScanRecord],
) -> Vec<String> {
    // Per group: commit LSNs in order with the running sum of deltas.
    let mut chains: BTreeMap<i64, Vec<(u64, i64)>> = BTreeMap::new();
    let mut sorted = writes.to_vec();
    sorted.sort_unstable();
    for (lsn, g, d) in sorted {
        let chain = chains.entry(g).or_default();
        let run = chain.last().map_or(0, |&(_, s)| s);
        chain.push((lsn, run + d));
    }
    let visible = |g: i64, snapshot: u64| -> i64 {
        let Some(chain) = chains.get(&g) else {
            return 0;
        };
        let n = chain.partition_point(|&(lsn, _)| lsn <= snapshot);
        if n == 0 {
            0
        } else {
            chain[n - 1].1
        }
    };
    let mut bad = Vec::new();
    for scan in scans {
        let keys: Vec<i64> = scan.rows.iter().map(|r| r.0).collect();
        let want_keys: Vec<i64> = (scan.lo..scan.lo + width).collect();
        if keys != want_keys {
            bad.push(format!(
                "scan at {} from {}: keys {keys:?}",
                scan.snapshot, scan.lo
            ));
            continue;
        }
        for &(g, count, sum) in &scan.rows {
            let want = initial[g as usize] + visible(g, scan.snapshot);
            if count != rows_per_group || sum != want {
                bad.push(format!(
                    "scan at {}: group {g} count {count} sum {sum}, expected {rows_per_group} {want}",
                    scan.snapshot
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    type Bank = (Vec<i64>, Vec<(i64, i64, i64)>, Vec<Option<GroupRow>>);

    fn bank() -> Bank {
        let expected = vec![10, 20, 30, 40, 50, 60];
        let accounts = expected
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as i64, i as i64 % 2, b))
            .collect();
        let branches = vec![Some((0, 3, 90)), Some((1, 3, 120))];
        (expected, accounts, branches)
    }

    #[test]
    fn bank_ledger_accepts_the_truth_and_rejects_perturbations() {
        let (exp, acc, br) = bank();
        assert!(check_bank(&exp, 2, &acc, &br, Some((6, 210))).is_empty());
        let mut acc2 = acc.clone();
        acc2[3].2 += 1;
        assert!(!check_bank(&exp, 2, &acc2, &br, Some((6, 210))).is_empty());
        let mut exp2 = exp.clone();
        exp2[0] -= 5; // the engine kept a deposit the ledger never saw acked
        assert!(!check_bank(&exp2, 2, &acc, &br, None).is_empty());
        let mut br2 = br.clone();
        br2[1] = Some((1, 2, 120));
        assert!(!check_bank(&exp, 2, &acc, &br2, None).is_empty());
        assert!(!check_bank(&exp, 2, &acc, &[Some((0, 3, 90)), None], None).is_empty());
        assert!(!check_bank(&exp, 2, &acc, &br, Some((6, 211))).is_empty());
        assert!(!check_bank(&exp, 2, &acc[..5], &br, None).is_empty());
    }

    #[test]
    fn group_ledger_rejects_wrong_live_and_leftover_groups() {
        let exp = [(7, Some((128, 900))), (8, None)];
        assert!(check_groups("t", &exp, &[Some((7, 128, 900)), None]).is_empty());
        assert!(!check_groups("t", &exp, &[Some((7, 128, 901)), None]).is_empty());
        assert!(!check_groups("t", &exp, &[Some((7, 127, 900)), None]).is_empty());
        assert!(!check_groups("t", &exp, &[Some((7, 128, 900)), Some((8, 0, 0))]).is_empty());
        assert!(!check_groups("t", &exp, &[None, None]).is_empty());
        assert!(!check_groups("t", &exp, &[Some((7, 128, 900))]).is_empty());
        assert!(check_cleanup(4128, 4096, 32).is_empty());
        assert!(!check_cleanup(4127, 4096, 32).is_empty());
        assert!(!check_cleanup(4129, 4096, 32).is_empty());
    }

    #[test]
    fn scan_ledger_applies_exactly_the_deltas_at_or_below_the_snapshot() {
        let initial = [100, 200, 300];
        let writes = [(5, 1, 7), (9, 1, 3), (12, 2, 1)];
        let scan = |snapshot, rows| ScanRecord {
            snapshot,
            lo: 0,
            rows,
        };
        let good = [
            scan(4, vec![(0, 2, 100), (1, 2, 200), (2, 2, 300)]),
            scan(9, vec![(0, 2, 100), (1, 2, 210), (2, 2, 300)]),
            scan(20, vec![(0, 2, 100), (1, 2, 210), (2, 2, 301)]),
        ];
        assert!(check_scans(&initial, 2, 3, &writes, &good).is_empty());
        // A delta committed after the snapshot leaks in.
        let leak = [scan(8, vec![(0, 2, 100), (1, 2, 210), (2, 2, 300)])];
        assert!(!check_scans(&initial, 2, 3, &writes, &leak).is_empty());
        // A committed delta is missing.
        let lost = [scan(9, vec![(0, 2, 100), (1, 2, 207), (2, 2, 300)])];
        assert!(!check_scans(&initial, 2, 3, &writes, &lost).is_empty());
        // A row is missing from the range.
        let short = [scan(4, vec![(0, 2, 100), (2, 2, 300)])];
        assert!(!check_scans(&initial, 2, 3, &writes, &short).is_empty());
        // The writer's log is perturbed instead of the scan.
        let skewed = [(5, 1, 7), (10, 1, 3), (12, 2, 1)];
        assert!(!check_scans(&initial, 2, 3, &skewed, &good).is_empty());
        let bad_count = [scan(4, vec![(0, 2, 100), (1, 3, 200), (2, 2, 300)])];
        assert!(!check_scans(&initial, 2, 3, &writes, &bad_count).is_empty());
    }
}
