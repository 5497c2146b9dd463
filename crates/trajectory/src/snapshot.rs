//! Read-only snapshot over partitioned spatial indices.
//!
//! The sharded trusted server partitions users across workers, each
//! owning a [`SpatialIndex`] over its own slice of the trajectory
//! store. Algorithm 1's k-nearest-users query, however, is global: the
//! paper asks for "the closest k points **considering … each user**",
//! not each user on one shard. [`IndexSnapshot`] answers that global
//! query exactly by merging the per-partition answers.
//!
//! **Exactness.** Partitions are disjoint by user, and each partition's
//! [`SpatialIndex::k_nearest_users`] returns that partition's k closest
//! per-user-nearest points. Every member of the global top-k belongs to
//! some partition and is, within it, among that partition's top-k — so
//! the concatenation of per-partition answers is a superset of the
//! global answer, and re-ranking by the same `(distance, user id)` key
//! then truncating to k reproduces the single-index result bit for bit.
//! Because all backends share the [`SpatialIndex`] answer contract,
//! the partitions may even mix backends (say, grid next to brute) and
//! the merge stays exact — the per-partition answers are re-scored
//! here under each partition's own scale.
//!
//! The snapshot borrows the indices immutably: workers query a published
//! (quiescent) set of partitions while new ingests accumulate elsewhere,
//! which is what makes the epoch-snapshot read path of the sharded
//! server safe without locks.

use crate::{SpatialIndex, UserId};
use hka_geo::StPoint;

/// An immutable merged view over disjoint per-shard [`SpatialIndex`]
/// partitions, answering global queries with single-index semantics.
#[derive(Debug, Clone)]
pub struct IndexSnapshot<'a> {
    parts: Vec<&'a dyn SpatialIndex>,
}

impl<'a> IndexSnapshot<'a> {
    /// A snapshot over the given partitions. The caller guarantees the
    /// partitions are user-disjoint (each user's PHL lives in exactly
    /// one); the merge is only exact under that invariant.
    pub fn new(parts: Vec<&'a dyn SpatialIndex>) -> Self {
        IndexSnapshot { parts }
    }

    /// How many partitions back this snapshot.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The k users (other than `exclude`) whose nearest PHL point to
    /// `seed` is closest, with that point — the global query of paper
    /// Algorithm 1's first branch, merged across partitions.
    ///
    /// Ordering matches [`SpatialIndex::k_nearest_users`]: ascending
    /// scaled distance, ties broken by user id. Distances are
    /// recomputed here under each partition's own scale (all partitions
    /// of one server share a scale), using a total order so a NaN
    /// distance cannot panic the merge.
    pub fn k_nearest_users(
        &self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> Vec<(UserId, StPoint)> {
        if k == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(UserId, f64, StPoint)> = Vec::new();
        for part in &self.parts {
            let scale = part.scale();
            for (user, p) in part.k_nearest_users(seed, k, exclude) {
                scored.push((user, scale.dist_sq(seed, &p), p));
            }
        }
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored.into_iter().map(|(u, _, p)| (u, p)).collect()
    }

    /// The distinct users whose PHL crosses `b`, merged across
    /// partitions. User-disjointness makes this a plain set union.
    pub fn users_crossing(&self, b: &hka_geo::StBox) -> std::collections::BTreeSet<UserId> {
        let mut out = std::collections::BTreeSet::new();
        for part in &self.parts {
            out.append(&mut part.users_crossing(b));
        }
        out
    }

    /// Early-exit crossing count across partitions, capped at `limit`.
    ///
    /// Each partition is asked for at most the *remaining* budget
    /// (`limit - acc`), not the full `limit`: the budgets are
    /// independent because no user appears in two partitions, so the
    /// sum can neither double-count a user nor stop short of `limit`
    /// while crossings remain. Summing full-`limit` per-partition
    /// counts and clamping would visit (and probe) more than needed;
    /// forgetting the clamp entirely would report a count exceeding
    /// `limit` — the count/query mismatch the differential suite pins.
    pub fn count_users_crossing(&self, b: &hka_geo::StBox, limit: usize) -> usize {
        let mut acc = 0usize;
        for part in &self.parts {
            if acc >= limit {
                break;
            }
            acc += part.count_users_crossing(b, limit - acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridIndex, GridIndexConfig, TrajectoryStore};
    use hka_geo::StPoint;

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, hka_geo::TimeSec(t))
    }

    fn seeded_points(n: usize) -> Vec<(UserId, StPoint)> {
        // Small deterministic LCG scatter; several points per user.
        let mut s: u64 = 0x9e37_79b9;
        let mut out = Vec::new();
        for i in 0..n {
            for step in 0..3i64 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (s >> 33) as f64 % 1000.0;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = (s >> 33) as f64 % 1000.0;
                out.push((UserId(i as u64 + 1), sp(x, y, 100 * step + i as i64)));
            }
        }
        out
    }

    #[test]
    fn merged_partitions_match_single_index() {
        let cfg = GridIndexConfig::default();
        let points = seeded_points(23);

        let mut whole_store = TrajectoryStore::new();
        let mut whole = GridIndex::new(cfg);
        for (u, p) in &points {
            whole_store.record(*u, *p);
            whole.insert(*u, *p);
        }

        for shards in [1usize, 2, 3, 4, 8] {
            let mut parts: Vec<GridIndex> = (0..shards).map(|_| GridIndex::new(cfg)).collect();
            for (u, p) in &points {
                parts[(u.0 as usize) % shards].insert(*u, *p);
            }
            let snap = IndexSnapshot::new(parts.iter().map(|p| p as &dyn SpatialIndex).collect());
            for k in [1usize, 3, 7, 23, 40] {
                for (seed, excl) in [
                    (sp(10.0, 20.0, 50), None),
                    (sp(500.0, 500.0, 150), Some(UserId(5))),
                    (sp(999.0, 1.0, 0), Some(UserId(1))),
                ] {
                    assert_eq!(
                        snap.k_nearest_users(&seed, k, excl),
                        whole.k_nearest_users(&seed, k, excl),
                        "shards={shards} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_k_and_empty_partitions() {
        let snap = IndexSnapshot::new(Vec::new());
        assert!(snap.k_nearest_users(&sp(0.0, 0.0, 0), 3, None).is_empty());
        let idx = GridIndex::new(GridIndexConfig::default());
        let snap = IndexSnapshot::new(vec![&idx as &dyn SpatialIndex]);
        assert_eq!(snap.partitions(), 1);
        assert!(snap.k_nearest_users(&sp(0.0, 0.0, 0), 0, None).is_empty());
    }

    #[test]
    fn equidistant_ties_straddling_shard_boundaries_merge_canonically() {
        // Users 1..=6 each have one observation exactly 10m from the
        // seed (distance ties across every user), scattered so that
        // consecutive tied users land on *different* shards. The global
        // answer must be the k smallest user ids regardless of how the
        // tie group straddles partitions — and each user's tied pair of
        // equidistant observations must resolve to the canonical
        // smallest-(t, x, y) point on every backend.
        let cfg = GridIndexConfig {
            scale: hka_geo::SpaceTimeScale::new(0.0), // time costs nothing
            ..GridIndexConfig::default()
        };
        let seed = sp(0.0, 0.0, 50);
        let mut store = TrajectoryStore::new();
        for u in 1..=6u64 {
            // Two equidistant observations per user; smaller t first
            // (stores require time order), canonical winner is (t=10).
            store.record(UserId(u), sp(10.0, 0.0, 10));
            store.record(UserId(u), sp(-10.0, 0.0, 20));
        }
        let oracle = crate::BruteIndex::build(&store, cfg.scale);
        for shards in [1usize, 2, 3, 4] {
            let mut parts: Vec<Box<dyn SpatialIndex>> = (0..shards)
                .map(|_| crate::IndexBackend::Grid.make(cfg))
                .collect();
            for (u, phl) in store.iter() {
                for p in phl.points() {
                    parts[(u.0 as usize) % shards].insert(u, *p);
                }
            }
            let snap = IndexSnapshot::new(parts.iter().map(|p| p.as_ref()).collect());
            for k in [0usize, 1, 3, 6, 9] {
                let got = snap.k_nearest_users(&seed, k, None);
                assert_eq!(
                    got,
                    oracle.k_nearest_users(&seed, k, None),
                    "shards={shards} k={k}"
                );
                assert_eq!(got.len(), k.min(6));
                for (i, (u, p)) in got.iter().enumerate() {
                    assert_eq!(u.0, i as u64 + 1, "tie order is ascending user id");
                    assert_eq!(*p, sp(10.0, 0.0, 10), "canonical equidistant observation");
                }
            }
        }
    }

    #[test]
    fn crossing_queries_match_brute_across_partition_counts() {
        let cfg = GridIndexConfig::default();
        let points = seeded_points(23);
        let mut store = TrajectoryStore::new();
        for (u, p) in &points {
            store.record(*u, *p);
        }
        let oracle = crate::BruteIndex::build(&store, cfg.scale);
        let boxes = [
            hka_geo::StBox::new(
                hka_geo::Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0),
                hka_geo::TimeInterval::new(hka_geo::TimeSec(0), hka_geo::TimeSec(400)),
            ),
            hka_geo::StBox::new(
                hka_geo::Rect::from_bounds(200.0, 200.0, 600.0, 600.0),
                hka_geo::TimeInterval::new(hka_geo::TimeSec(50), hka_geo::TimeSec(150)),
            ),
            hka_geo::StBox::new(
                hka_geo::Rect::from_bounds(-5.0, -5.0, -1.0, -1.0),
                hka_geo::TimeInterval::new(hka_geo::TimeSec(0), hka_geo::TimeSec(10)),
            ),
        ];
        for shards in [1usize, 2, 4, 8] {
            let mut parts: Vec<Box<dyn SpatialIndex>> = (0..shards)
                .map(|i| crate::IndexBackend::ALL[i % crate::IndexBackend::ALL.len()].make(cfg))
                .collect();
            for (u, p) in &points {
                parts[(u.0 as usize) % shards].insert(*u, *p);
            }
            let snap = IndexSnapshot::new(parts.iter().map(|p| p.as_ref()).collect());
            for b in &boxes {
                let want = oracle.users_crossing(b);
                assert_eq!(snap.users_crossing(b), want, "shards={shards}");
                // limit==0, exact hit, straddling, and limit>n edges.
                for limit in [0usize, 1, 2, want.len(), want.len() + 1, 1000] {
                    assert_eq!(
                        snap.count_users_crossing(b, limit),
                        limit.min(want.len()),
                        "shards={shards} limit={limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_backend_partitions_match_single_index() {
        // One grid partition next to one brute partition:
        // the union must still reproduce the single-index answer, which
        // is exactly what lets a sharded run mix-and-match backends.
        let cfg = GridIndexConfig::default();
        let points = seeded_points(17);

        let mut whole = GridIndex::new(cfg);
        for (u, p) in &points {
            whole.insert(*u, *p);
        }

        let mut parts: Vec<Box<dyn SpatialIndex>> = crate::IndexBackend::ALL
            .iter()
            .map(|b| b.make(cfg))
            .collect();
        let shards = parts.len();
        for (u, p) in &points {
            parts[(u.0 as usize) % shards].insert(*u, *p);
        }
        let snap = IndexSnapshot::new(parts.iter().map(|p| p.as_ref()).collect());
        for k in [1usize, 4, 17, 30] {
            for excl in [None, Some(UserId(3))] {
                assert_eq!(
                    snap.k_nearest_users(&sp(250.0, 750.0, 120), k, excl),
                    whole.k_nearest_users(&sp(250.0, 750.0, 120), k, excl),
                    "k={k} excl={excl:?}"
                );
            }
        }
    }
}
