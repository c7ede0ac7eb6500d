//! What a verified read costs, counted in scans and in rows the evaluator
//! visits (`constraints.eval.{scanned,indexed}` and the
//! `constraints.eval.rows` histogram), not in time: after the first
//! `Pipeline::query` of a shape has built the shape's index, a query
//! reads the queried group and nothing else.
//!
//! One test in a file of its own: the metrics registry is per process.

use prever_core::{Pipeline, Update};
use prever_storage::{Column, ColumnType, Row, Schema, Value};

const ROWS: u64 = 8_000;
const WORKERS: u64 = 97;
const WEEK: u64 = 604_800;
/// One task every ten minutes: 1 008 a week.
const GAP: u64 = 600;

/// Skewed on purpose: only the quadratic residues mod 97 have tasks, 0
/// has half as many as the others and sizes differ by a few rows, so a
/// count that is right for one worker by accident is wrong for the next.
fn worker_of(i: u64) -> u64 {
    (i * i) % WORKERS
}

fn hours_of(i: u64) -> u64 {
    1 + i % 7
}

/// A signed column: −2 ..= 2.
fn delta_of(i: u64) -> i64 {
    (i % 5) as i64 - 2
}

fn submit(p: &mut Pipeline, i: u64) {
    let ts = i * GAP;
    let row = Row::new(vec![
        Value::Uint(i),
        Value::Str(format!("w{}", worker_of(i))),
        Value::Uint(hours_of(i)),
        Value::Timestamp(ts),
        Value::Int(delta_of(i)),
    ]);
    let outcome = p.submit(&Update::new(i, "tasks", row, ts, "p")).unwrap();
    assert!(outcome.is_accepted(), "task {i}");
}

/// (scanned, indexed, evaluations, rows visited) so far in this process.
fn counts() -> [u64; 4] {
    let rows = prever_obs::histogram("constraints.eval.rows");
    [
        prever_obs::counter("constraints.eval.scanned").get(),
        prever_obs::counter("constraints.eval.indexed").get(),
        rows.count(),
        rows.sum(),
    ]
}

/// Runs `src` and returns its value with what it added to [`counts`].
fn counted(p: &mut Pipeline, src: &str, anchor: u64) -> (Value, [u64; 4]) {
    let before = counts();
    let (value, digest) = p.query(src, anchor).unwrap();
    assert_eq!(digest, p.digest());
    let after = counts();
    (value, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn a_query_reads_its_group_after_the_first_of_its_shape() {
    let mut p = Pipeline::new();
    p.create_table(
        "tasks",
        Schema::new(
            vec![
                Column::new("id", ColumnType::Uint),
                Column::new("worker", ColumnType::Str),
                Column::new("hours", ColumnType::Uint),
                Column::new("ts", ColumnType::Timestamp),
                Column::new("delta", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut next = 0..;
    let mut load = |p: &mut Pipeline, n: u64| (&mut next).take(n as usize).for_each(|i| submit(p, i));
    load(&mut p, ROWS);
    assert_eq!(counts(), [0; 4], "no constraint, no query: nothing evaluated yet");
    let indexed_on = |p: &Pipeline, column: usize, probe: Value| {
        let tasks = p.database().table("tasks").unwrap();
        tasks.index_scan(column, &probe, None).map(Iterator::count)
    };
    assert_eq!(indexed_on(&p, 1, "w0".into()), None, "no one has asked yet");

    // Plaintext oracle over the rows submitted so far.
    let group = |upto: u64, w: u64| (0..upto).filter(move |i| worker_of(*i) == w);
    let hours = |upto: u64, w: u64| group(upto, w).map(hours_of).sum::<u64>();
    // SUM over no rows is NULL; a worker with tasks has at least an hour.
    let sum = |upto: u64, w: u64| match hours(upto, w) {
        0 => Value::Null,
        h => Value::Int(h as i64),
    };

    // The first query of the shape builds (worker) from the 8 000 stored
    // rows, then reads through it like every later one.
    let by_worker = |w: u64| format!("SUM(tasks.hours WHERE tasks.worker = 'w{w}')");
    let (value, added) = counted(&mut p, &by_worker(0), u64::MAX);
    assert_eq!(value, sum(ROWS, 0));
    assert_eq!(added, [0, 1, 1, group(ROWS, 0).count() as u64]);
    assert_eq!(indexed_on(&p, 1, "w0".into()), Some(group(ROWS, 0).count()));

    // N further queries: no scan, N index reads, Σ group sizes rows.
    let before = counts();
    let mut group_sizes = 0;
    for w in 0..WORKERS {
        assert_eq!(p.query(&by_worker(w), u64::MAX).unwrap().0, sum(ROWS, w), "w{w}");
        group_sizes += group(ROWS, w).count() as u64;
    }
    assert_eq!(group_sizes, ROWS, "every row is in exactly one group");
    let after = counts();
    assert_eq!(after[0] - before[0], 0, "scanned");
    assert_eq!(after[1] - before[1], WORKERS, "indexed");
    assert_eq!(after[2] - before[2], WORKERS, "one aggregate per query");
    assert_eq!(after[3] - before[3], group_sizes, "rows visited");

    // Writes after the index exists keep it exact.
    load(&mut p, 500);
    let (value, added) = counted(&mut p, &by_worker(1), u64::MAX);
    assert_eq!(value, sum(ROWS + 500, 1));
    assert_eq!(added, [0, 1, 1, group(ROWS + 500, 1).count() as u64]);

    // A numeric literal probes too: `3` parses as an Int, `hours` holds
    // Uint. A new column, so this query is the first of its shape.
    assert_eq!(indexed_on(&p, 2, Value::Uint(3)), None);
    let threes = (0..ROWS + 500).filter(|i| hours_of(*i) == 3).count() as u64;
    for _ in 0..2 {
        let (value, added) = counted(&mut p, "COUNT(tasks WHERE tasks.hours = 3)", u64::MAX);
        assert_eq!(value, Value::Int(threes as i64));
        assert_eq!(added, [0, 1, 1, threes]);
    }

    // `-2` is a literal, not a negation: it probes the signed column's
    // index like any other literal. A new column again, so the first query
    // builds the index.
    let minus_twos = (0..ROWS + 500).filter(|i| delta_of(*i) == -2).count() as u64;
    for _ in 0..2 {
        let (value, added) = counted(&mut p, "COUNT(tasks WHERE tasks.delta = -2)", u64::MAX);
        assert_eq!(value, Value::Int(minus_twos as i64));
        assert_eq!(added, [0, 1, 1, minus_twos]);
    }

    // A windowed shape gets (worker, ts) beside (worker): the rows of the
    // worker's last week, not the worker's rows.
    let anchor = (ROWS + 499) * GAP;
    let in_week = group(ROWS + 500, 4).filter(|i| i * GAP + WEEK > anchor);
    let windowed = format!("COUNT(tasks WHERE tasks.worker = 'w4' WITHIN {WEEK} OF tasks.ts)");
    let (value, added) = counted(&mut p, &windowed, anchor);
    assert_eq!(value, Value::Int(in_week.clone().count() as i64));
    assert_eq!(added, [0, 1, 1, in_week.count() as u64]);
    assert!(added[3] < group(ROWS + 500, 4).count() as u64 / 4, "a week is a fraction of w4's rows");

    // No filter: still a scan, and inherently one. The bound is over every
    // group, so every live row contributes to the answer; there is no
    // equality to narrow by, and an index could only hand the same 8 500
    // rows over in another order. (Reading it without the rows would take
    // a maintained per-group total, the materialized aggregate PR 13
    // deleted in favour of one evaluator.)
    let (value, added) = counted(&mut p, "MAXSUM(tasks.hours BY tasks.worker)", u64::MAX);
    let max = (0..WORKERS).map(|w| hours(ROWS + 500, w)).max().unwrap();
    assert_eq!(value, Value::Int(max as i64));
    assert_eq!(added, [1, 0, 1, ROWS + 500]);
}
