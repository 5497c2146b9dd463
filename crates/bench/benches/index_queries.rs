//! Criterion microbenches: spatio-temporal index queries, one series
//! per [`SpatialIndex`] backend (the grid and the brute oracle both
//! answer through the same trait).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hka_geo::{Rect, StBox, StPoint, TimeInterval, TimeSec};
use hka_mobility::{CityConfig, World, WorldConfig};
use hka_trajectory::{GridIndexConfig, IndexBackend, TrajectoryStore, UserId};
use std::hint::black_box;

fn world_store(users: usize, days: i64) -> TrajectoryStore {
    World::generate(&WorldConfig {
        seed: 5,
        days,
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
    })
    .store()
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("k_nearest_users");
    for users in [40usize, 160] {
        let store = world_store(users, 2);
        let seed = StPoint::xyt(1_000.0, 1_000.0, TimeSec::at_hm(1, 12, 0));
        for backend in IndexBackend::ALL {
            let index = backend.build(&store, GridIndexConfig::default());
            group.bench_with_input(BenchmarkId::new(backend.name(), users), &users, |b, _| {
                b.iter(|| black_box(index.k_nearest_users(&seed, 5, Some(UserId(0)))))
            });
        }
    }
    group.finish();
}

fn bench_users_crossing(c: &mut Criterion) {
    let store = world_store(80, 2);
    let b = StBox::new(
        Rect::from_bounds(500.0, 500.0, 1_500.0, 1_500.0),
        TimeInterval::new(TimeSec::at_hm(1, 11, 0), TimeSec::at_hm(1, 13, 0)),
    );
    for backend in IndexBackend::ALL {
        let index = backend.build(&store, GridIndexConfig::default());
        c.bench_function(&format!("users_crossing/{backend}"), |bch| {
            bch.iter(|| black_box(index.users_crossing(&b)))
        });
        c.bench_function(&format!("count_users_crossing/limit5/{backend}"), |bch| {
            bch.iter(|| black_box(index.count_users_crossing(&b, 5)))
        });
    }
}

criterion_group!(benches, bench_knn, bench_users_crossing);
criterion_main!(benches);
