//! **Continuous benchmark: `SpatialIndex` backends on the Algorithm-1
//! query path.**
//!
//! Runs the first-element branch of Algorithm 1 (`algorithm1_first`,
//! the k-nearest-users window query that dominates the preservation
//! strategy's cost) through both backends — the grid and the
//! brute-force oracle — over the identical seeded query sample at four
//! store sizes (the largest ~4M points), and writes a one-line
//! `BENCH_index.json` so future perf PRs have a tracked baseline.
//!
//! Three gates make this a regression check rather than a scoreboard:
//!
//! * every backend's Algorithm-1 result is compared against the brute
//!   oracle on every sampled query (exit non-zero on any divergence);
//! * at the largest size, the grid must beat the O(k·n) brute scan
//!   (exit non-zero otherwise — an index slower than the exhaustive
//!   scan at ~4M points is a structural regression, with generous slack
//!   for shared-host noise);
//! * on the 1M-point store, the incrementally maintained [`UnionIndex`]
//!   must answer the protected-request window query at least **2×**
//!   faster than the per-request re-union baseline (a fresh
//!   [`IndexSnapshot`] fanned out over 4 and 8 user-disjoint shard
//!   indexes), after matching it answer-for-answer.
//!
//! ```text
//! cargo run --release -p hka-bench --bin bench_index -- [--out DIR] [--backends grid,brute]
//! ```

use hka_bench::{median, parse_backends, time_ns, Cell, Report};
use hka_core::{algorithm1_first, Tolerance};
use hka_geo::StPoint;
use hka_mobility::{CityConfig, EventKind, World, WorldConfig};
use hka_obs::Json;
use hka_trajectory::{
    BruteIndex, GridIndexConfig, IndexBackend, IndexSnapshot, TrajectoryStore, UnionIndex, UserId,
};

const SEED: u64 = 77;
const K: usize = 5;
const QUERIES: usize = 40;
const SIZES: [(usize, i64); 4] = [(20, 1), (80, 4), (160, 8), (540, 8)];
/// Shard counts for the union-vs-re-union ladder at the largest size.
const UNION_SHARDS: [usize; 2] = [4, 8];
/// Minimum acceptable union speedup over the re-union baseline.
const UNION_GATE: f64 = 2.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_dir = args[i + 1].clone();
                i += 2;
            }
            "--backends" if i + 1 < args.len() => i += 2,
            other => {
                eprintln!("usage: bench_index [--out DIR] [--backends grid,brute] (got '{other}')");
                std::process::exit(2);
            }
        }
    }
    let backends = parse_backends(args);
    let tolerance = Tolerance::new(f64::MAX, i64::MAX);

    let mut columns = vec!["n points".to_string(), "users".to_string()];
    for b in &backends {
        columns.push(format!("{b} µs"));
    }
    let column_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "bench_index",
        "Algorithm-1 window queries per SpatialIndex backend (median µs)",
    )
    .columns(&column_refs);

    let mut sizes_json = Vec::new();
    let mut speedup_largest: Option<f64> = None;
    let mut union_json = Vec::new();
    let mut union_speedup: Option<f64> = None;
    let mut union_report = Report::new(
        "bench_index_union",
        "Incremental union vs per-request re-union on the ~4M-point store (µs per window query)",
    )
    .columns(&[
        "shards",
        "re-union µs",
        "union µs",
        "memo-hit µs",
        "rebuild ms",
        "speedup",
    ]);
    for (users, days) in SIZES {
        let world = World::generate(&WorldConfig {
            seed: SEED,
            days,
            sample_interval: 60,
            n_commuters: users / 4,
            n_roamers: users / 2,
            n_poi_regulars: users / 4,
            city: CityConfig {
                width: 2_000.0,
                height: 2_000.0,
                ..CityConfig::default()
            },
            background_request_rate: 0.0,
            ..WorldConfig::default()
        });
        let store = world.store();
        let n = store.total_points();
        let queries: Vec<(UserId, StPoint)> = world
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Location)
            .step_by((world.events.len() / 50).max(1))
            .map(|e| (e.user, e.at))
            .take(QUERIES)
            .collect();

        // The oracle is always built, even if not benchmarked: it is the
        // per-query equivalence gate for whatever backends run. Its
        // answers are computed once per size, not once per backend.
        let oracle = BruteIndex::build(&store, GridIndexConfig::default().scale);
        let wants: Vec<_> = queries
            .iter()
            .map(|(u, q)| algorithm1_first(&oracle, q, *u, K, &tolerance))
            .collect();

        let mut per_backend = Vec::new();
        for backend in &backends {
            let index = backend.build(&store, GridIndexConfig::default());
            let mut samples = Vec::with_capacity(queries.len());
            for ((u, q), want) in queries.iter().zip(&wants) {
                let got = algorithm1_first(index.as_ref(), q, *u, K, &tolerance);
                if &got != want {
                    eprintln!(
                        "FAIL: {backend} diverged from brute oracle at n={n} \
                         user={u:?} seed={q:?}"
                    );
                    std::process::exit(1);
                }
                samples.push(time_ns(3, || {
                    std::hint::black_box(algorithm1_first(index.as_ref(), q, *u, K, &tolerance));
                }));
            }
            per_backend.push((*backend, median(&samples) / 1_000.0));
        }

        let mut row = vec![Cell::int(n as i64), Cell::int(store.user_count() as i64)];
        row.extend(per_backend.iter().map(|(_, us)| Cell::num(*us, 1)));
        report.row(row);

        if (users, days) == SIZES[SIZES.len() - 1] {
            let us_of = |want| {
                per_backend
                    .iter()
                    .find_map(|&(b, us)| (b == want).then_some(us))
            };
            if let (Some(b), Some(g)) = (us_of(IndexBackend::Brute), us_of(IndexBackend::Grid)) {
                speedup_largest = Some(b / g);
            }

            // --- Union ladder: the sharded protected-request path. ----
            // Re-union baseline: every request fans a fresh
            // IndexSnapshot out over the shard indexes. Union: one
            // incrementally maintained index, queried directly.
            for shards in UNION_SHARDS {
                let cfg = GridIndexConfig::default();
                // User-disjoint partitions, routed the way ShardedTs
                // routes users to shard workers.
                let mut shard_stores: Vec<TrajectoryStore> =
                    (0..shards).map(|_| TrajectoryStore::new()).collect();
                for (u, phl) in store.iter() {
                    for p in phl.points() {
                        shard_stores[(u.raw() as usize) % shards].record(u, *p);
                    }
                }
                let parts: Vec<_> = shard_stores
                    .iter()
                    .map(|s| IndexBackend::Grid.build(s, cfg))
                    .collect();
                let mut union = UnionIndex::new(IndexBackend::Grid, cfg, shards);
                let t0 = std::time::Instant::now();
                union.rebuild(shard_stores.iter(), shards);
                let rebuild_ms = t0.elapsed().as_nanos() as f64 / 1e6;

                // Answer-for-answer first: a fast-but-wrong union fails
                // the bench, not the chart.
                for (u, q) in &queries {
                    let snap = IndexSnapshot::new(parts.iter().map(|p| p.as_ref()).collect());
                    let want = snap.k_nearest_users(q, K, Some(*u));
                    if union.k_nearest_users(q, K, Some(*u)) != want {
                        eprintln!(
                            "FAIL: union diverged from the snapshot re-union at \
                             {shards} shards, user={u:?} seed={q:?}"
                        );
                        std::process::exit(1);
                    }
                }

                let nq = queries.len() as f64;
                let reunion_us = time_ns(3, || {
                    for (u, q) in &queries {
                        let snap = IndexSnapshot::new(parts.iter().map(|p| p.as_ref()).collect());
                        std::hint::black_box(snap.k_nearest_users(q, K, Some(*u)));
                    }
                }) / nq
                    / 1_000.0;
                // Memo-miss path: every co-arriving request asks a
                // distinct window query.
                let union_us = time_ns(3, || {
                    union.clear_memo();
                    for (u, q) in &queries {
                        std::hint::black_box(union.k_nearest_users(q, K, Some(*u)));
                    }
                }) / nq
                    / 1_000.0;
                // Memo-hit path: a batch member re-asking a window query
                // an earlier member already answered this generation.
                let memo_us = time_ns(3, || {
                    for (u, q) in &queries {
                        std::hint::black_box(union.k_nearest_users(q, K, Some(*u)));
                    }
                }) / nq
                    / 1_000.0;

                let speedup = reunion_us / union_us;
                union_speedup = Some(union_speedup.map_or(speedup, |m: f64| m.min(speedup)));
                union_report.row(vec![
                    Cell::int(shards as i64),
                    Cell::num(reunion_us, 1),
                    Cell::num(union_us, 1),
                    Cell::num(memo_us, 2),
                    Cell::num(rebuild_ms, 1),
                    Cell::num(speedup, 2),
                ]);
                union_json.push(Json::obj([
                    ("shards", Json::from(shards as u64)),
                    ("reunion_us", Json::Num(reunion_us)),
                    ("union_us", Json::Num(union_us)),
                    ("memo_hit_us", Json::Num(memo_us)),
                    ("rebuild_ms", Json::Num(rebuild_ms)),
                    ("speedup", Json::Num(speedup)),
                ]));
            }
        }
        sizes_json.push(Json::obj([
            ("points", Json::from(n as u64)),
            ("users", Json::from(store.user_count() as u64)),
            (
                "median_us",
                Json::Obj(
                    per_backend
                        .iter()
                        .map(|(b, us)| (b.name().to_string(), Json::Num(*us)))
                        .collect(),
                ),
            ),
        ]));
    }

    report.note("Every backend answers the identical algorithm1_first call through the");
    report.note("SpatialIndex trait; each sampled query is checked against the brute oracle");
    report.note("before timing, so a wrong-but-fast index fails the bench, not the chart.");
    report.emit();
    println!();
    union_report.note("re-union = a fresh IndexSnapshot fanned out over the shard indexes per");
    union_report.note("request; union = the generation-stamped incremental UnionIndex. 'union µs'");
    union_report.note("is the memo-miss path (memo cleared between rounds); 'memo-hit µs' is a");
    union_report.note("batch re-asking an identical window query. Gate: min speedup >= 2.0.");
    union_report.emit();

    let json = Json::obj([
        ("bench", Json::from("index")),
        (
            "scenario",
            Json::obj([
                ("seed", Json::from(SEED)),
                ("k", Json::from(K as u64)),
                ("queries", Json::from(QUERIES as u64)),
            ]),
        ),
        (
            "backends",
            Json::Arr(backends.iter().map(|b| Json::from(b.name())).collect()),
        ),
        ("sizes", Json::Arr(sizes_json)),
        (
            "speedup_largest",
            speedup_largest.map(Json::Num).unwrap_or(Json::Null),
        ),
        (
            "speedup_definition",
            Json::from(
                "speedup_largest = brute median / grid median on \
                 Algorithm-1 window queries at the largest store size. Each per-query \
                 sample is the median of 3 timed calls after one untimed warmup call.",
            ),
        ),
        ("union", Json::Arr(union_json)),
        (
            "union_speedup",
            union_speedup.map(Json::Num).unwrap_or(Json::Null),
        ),
        (
            "union_speedup_definition",
            Json::from(
                "union_speedup = min over the 4- and 8-shard ladders of (re-union per-query \
                 median / incremental-union per-query median) on the ~4M-point store, \
                 memo-miss path, after an answer-for-answer equivalence check. Gated >= 2.0.",
            ),
        ),
    ]);
    let path = format!("{out_dir}/BENCH_index.json");
    std::fs::write(&path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");

    // Structural gate: at ~4M points an index slower than the O(k·n)
    // scan has regressed. 1.0 (not, say, 2.0) keeps shared-CI noise from
    // flaking the job; the JSON keeps the real ratio for trend-watching.
    if let Some(s) = speedup_largest {
        if s < 1.0 {
            eprintln!("FAIL: the grid is {s:.2}x the brute scan at the largest size");
            std::process::exit(1);
        }
    }

    // Incremental-path gate: the protected-request window query through
    // the maintained union must beat per-request re-union by 2x on the
    // 1M-point store at both shard counts.
    if let Some(s) = union_speedup {
        if s < UNION_GATE {
            eprintln!(
                "FAIL: incremental union speedup over per-request re-union is \
                 {s:.2}x (< {UNION_GATE:.1}x)"
            );
            std::process::exit(1);
        }
    }
}
