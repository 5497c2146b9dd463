//! The workloads and the composition they are served by.
//!
//! Every workload serves the 2 km city `hka-sim serve` builds, with a
//! starting population of 12 commuters and 60 roamers and serve's
//! defaults (k = 4, grid index, 256-deep inflight queue for the
//! capacity pass; see [`LATENCY_INFLIGHT`] for the latency pass). The world
//! and the server registration here mirror `hka-sim serve` so that the
//! in-process runs (the decision oracle and the traced run) build the
//! same server the child process builds from the same seed.

use std::collections::BTreeSet;

use hka::obs::Journal;
use hka::prelude::*;

/// Commuters in the starting population (passed to `serve --commuters`).
pub const COMMUTERS: usize = 12;
/// Roamers in the starting population (passed to `serve --roamers`).
pub const ROAMERS: usize = 60;
/// Serve's default anonymity level.
pub const K: usize = 4;
/// Envelopes per closed-loop window of the capacity pass (each window
/// is followed by a `drain`).
pub const WINDOW: usize = 60;
/// Capacity-pass windows left unanswered at once. Their commands,
/// `WINDOWS_IN_FLIGHT × (WINDOW + 1)` = 244, stay below serve's
/// 256-deep inflight queue, so nothing can be shed.
pub const WINDOWS_IN_FLIGHT: usize = 4;
/// Serve's default inflight depth, used by the capacity pass.
pub const CAPACITY_INFLIGHT: usize = 256;
/// Inflight depth of the latency pass's server: over a second of the
/// offered rate. When the host deschedules the open-loop sender for a
/// few ms it catches up in one burst of every envelope due by then,
/// and at the default 256 such a burst overflowed the queue and was
/// answered `overload`, a count that varied from run to run with the
/// host's load. With this depth a host stall shows as latency, which
/// the segment validity checks judge, and a refusal means the server
/// fell behind the offered rate for over a second.
pub const LATENCY_INFLIGHT: usize = 65_536;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Whether every commuter location report is followed by a
    /// navigation request from the same point.
    pub rush_hour: bool,
    /// Cities (worlds from seeds derived from the run's seed) served
    /// one after another by the capacity pass. Privacy outcomes depend
    /// on a city's layout, so pooling several steadies the exact
    /// metrics from seed to seed.
    pub cities: u64,
    /// Simulated days per capacity-pass city; its stream is the whole
    /// world.
    pub city_days: i64,
    /// Simulated days of the latency-pass city; the pass sends the
    /// first `offered_eps × seconds` envelopes of its stream.
    pub latency_days: i64,
    /// Fixed absolute offered rate of the latency pass, envelopes/s,
    /// never rescaled from a measurement. It is 5–20% of the capacity
    /// pass's wall rate at the commit that defined the benchmark: on a
    /// 2-CPU host the generator's two threads and the gateway's three
    /// share the CPUs, and nearer half of capacity their contention,
    /// not the server, set the p99 and shed requests.
    pub offered_eps: f64,
}

/// Every workload, in `BENCHMARK.json` order. Both are served with
/// serve's default single shard; the shard layer is measured by the
/// traced run (see `traced.rs`).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "commute",
        rush_hour: false,
        cities: 16,
        city_days: 3,
        latency_days: 8,
        offered_eps: 50_000.0,
    },
    Workload {
        name: "rush_hour",
        rush_hour: true,
        cities: 24,
        city_days: 1,
        latency_days: 6,
        offered_eps: 40_000.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The world seed of capacity-pass city `city` in the run seeded
    /// `seed`; the latency pass serves city 0 over more days.
    pub fn city_seed(seed: u64, city: u64) -> u64 {
        seed.wrapping_mul(64).wrapping_add(city)
    }

    /// The `hka-sim serve` arguments for one world (without
    /// `--journal`), with an inflight queue `inflight` deep.
    pub fn serve_args(&self, seed: u64, days: i64, inflight: usize) -> Vec<String> {
        [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--seed",
            &seed.to_string(),
            "--days",
            &days.to_string(),
            "--commuters",
            &COMMUTERS.to_string(),
            "--roamers",
            &ROAMERS.to_string(),
            "--inflight",
            &inflight.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// The world `hka-sim serve` generates for `--seed seed --days days`.
pub fn build_world(seed: u64, days: i64) -> World {
    World::generate(&WorldConfig {
        seed,
        days,
        n_commuters: COMMUTERS,
        n_roamers: ROAMERS,
        n_poi_regulars: ROAMERS / 10,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

/// The workload's envelope stream in submission order; the request id
/// is the position in the stream.
pub fn stream(world: &World, workload: &Workload) -> Vec<RequestEnvelope> {
    let events = if workload.rush_hour {
        let commuters: BTreeSet<UserId> = world.commuters().collect();
        rush_hour(&world.events, &commuters)
    } else {
        world.events.clone()
    };
    events
        .iter()
        .enumerate()
        .map(|(i, e)| match e.kind {
            EventKind::Location => RequestEnvelope::location(i as u64, e.user, e.at),
            EventKind::Request { service } => {
                RequestEnvelope::request(i as u64, e.user, e.at, ServiceId(service))
            }
        })
        .collect()
}

/// The `rush_hour` transform: every location report by a commuter is
/// followed by a navigation-service request from the same point and
/// time. The world's own requests stay where they are.
pub fn rush_hour(events: &[Event], commuters: &BTreeSet<UserId>) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len() * 6 / 5);
    for e in events {
        out.push(*e);
        if e.kind == EventKind::Location && commuters.contains(&e.user) {
            out.push(Event {
                user: e.user,
                at: e.at,
                kind: EventKind::Request {
                    service: BACKGROUND_SERVICE,
                },
            });
        }
    }
    out
}

/// The privacy profile serve gives a commuter.
fn commuter_params() -> PrivacyParams {
    PrivacyParams {
        k: K,
        theta: 0.5,
        k_init: 2 * K,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    }
}

/// The tolerance serve registers for `service`.
pub fn tolerance_of(service: ServiceId) -> Tolerance {
    if service.0 == ANCHOR_SERVICE {
        Tolerance::new(9e6, 10 * MINUTE)
    } else {
        Tolerance::navigation()
    }
}

/// The k Algorithm 1's first element asks for (serve's `k_init`).
pub const K_FIRST: usize = 2 * K;

/// Registers services, users and LBQIDs exactly as serve does, on
/// either server type (both expose the same setup surface).
macro_rules! register {
    ($ts:expr, $world:expr) => {{
        $ts.register_service(
            ServiceId(BACKGROUND_SERVICE),
            tolerance_of(ServiceId(BACKGROUND_SERVICE)),
        );
        $ts.register_service(
            ServiceId(ANCHOR_SERVICE),
            tolerance_of(ServiceId(ANCHOR_SERVICE)),
        );
        let commuters: Vec<UserId> = $world.commuters().collect();
        for agent in &$world.agents {
            let level = if commuters.contains(&agent.user) {
                PrivacyLevel::Custom(commuter_params())
            } else {
                PrivacyLevel::Off
            };
            $ts.register_user(agent.user, level);
        }
        for &u in &commuters {
            let home = $world.home_of(u).expect("commuters have a home");
            let office = $world.office_of(u).expect("commuters have an office");
            $ts.add_lbqid(u, Lbqid::example_commute(home, office));
        }
    }};
}

/// The backend serve runs, journaling into `sink` the way serve
/// journals into its `--journal` file.
pub fn serve_backend<S: std::io::Write + Send + Sync + 'static>(
    world: &World,
    sink: S,
) -> Box<dyn RequestService + Send> {
    let mut ts = protected_server(world);
    ts.attach_journal(Journal::new(
        Box::new(sink) as Box<dyn std::io::Write + Send + Sync>
    ));
    Box::new(ts)
}

/// Serve's sequential server (its default, `--shards 1`).
pub fn protected_server(world: &World) -> TrustedServer {
    let mut ts = TrustedServer::new(TsConfig::default());
    register!(ts, world);
    ts
}

/// Serve's sharded server (`--shards N`, N > 1).
pub fn protected_sharded(world: &World, shards: usize) -> ShardedTs {
    let mut ts = ShardedTs::new(TsConfig::default(), shards);
    register!(ts, world);
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rush_hour_adds_one_navigation_request_per_commuter_location() {
        let world = build_world(5, 1);
        let commuters: BTreeSet<UserId> = world.commuters().collect();
        let out = rush_hour(&world.events, &commuters);
        let commuter_locs = world
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Location && commuters.contains(&e.user))
            .count();
        assert_eq!(out.len(), world.events.len() + commuter_locs);
        // Each commuter location is immediately followed by a request
        // from the same user, point and time.
        for pair in out.windows(2) {
            if pair[0].kind == EventKind::Location && commuters.contains(&pair[0].user) {
                assert_eq!(pair[1].user, pair[0].user);
                assert_eq!(pair[1].at, pair[0].at);
                assert_eq!(
                    pair[1].kind,
                    EventKind::Request {
                        service: BACKGROUND_SERVICE
                    }
                );
            }
        }
    }

    #[test]
    fn rush_hour_stream_has_the_documented_request_share() {
        let world = build_world(5, 2);
        let w = Workload::by_name("rush_hour").unwrap();
        let s = stream(&world, &w);
        let requests = s.iter().filter(|e| e.is_request()).count();
        let share = requests as f64 / s.len() as f64;
        // About one request in seven events (12 of 78 users commute).
        assert!((1.0 / 9.0..1.0 / 6.0).contains(&share), "share {share}");
        let base = stream(&world, &Workload::by_name("commute").unwrap());
        let base_share = base.iter().filter(|e| e.is_request()).count() as f64 / base.len() as f64;
        assert!(base_share < 1.0 / 60.0, "commute share {base_share}");
    }

    #[test]
    fn stream_ids_are_unique_and_per_user_time_is_ordered() {
        let world = build_world(9, 2);
        for w in WORKLOADS {
            let s = stream(&world, &w);
            let ids: BTreeSet<u64> = s.iter().map(|e| e.req_id).collect();
            assert_eq!(ids.len(), s.len(), "{}: duplicate request ids", w.name);
            let mut last = std::collections::BTreeMap::new();
            for e in &s {
                let prev = last.insert(e.user, e.at.t);
                assert!(
                    prev.is_none_or(|p| p <= e.at.t),
                    "{}: time regressed",
                    w.name
                );
            }
        }
    }
}
