//! The full workload: agents simulated over days, flattened into a
//! deterministic, time-sorted event stream.

use crate::agent::{business_days, Anchor};
use crate::{Agent, City, CityConfig, Role};
use hka_geo::{Rect, StPoint, HOUR, MINUTE};
use hka_trajectory::{TrajectoryStore, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Workload sizing and behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Number of simulated days (day 0 is a Monday).
    pub days: i64,
    /// Location-update sampling interval, seconds.
    pub sample_interval: i64,
    /// Number of commuting agents.
    pub n_commuters: usize,
    /// Number of random-waypoint agents.
    pub n_roamers: usize,
    /// Number of POI-regular agents.
    pub n_poi_regulars: usize,
    /// City layout.
    pub city: CityConfig,
    /// Probability that a routine anchor produces a service request.
    pub anchor_request_prob: f64,
    /// Background requests per agent-hour (issued at sample points).
    pub background_request_rate: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            days: 14,
            sample_interval: 60,
            n_commuters: 20,
            n_roamers: 30,
            n_poi_regulars: 10,
            city: CityConfig::default(),
            anchor_request_prob: 1.0,
            background_request_rate: 0.5,
        }
    }
}

/// What an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A positioning update (feeds the PHL only).
    Location,
    /// A service request issued from the current position; the payload is
    /// the service class (0 = background, 1 = routine/anchor requests).
    Request {
        /// Service class.
        service: u32,
    },
}

/// One timestamped event of the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The acting user.
    pub user: UserId,
    /// Exact position and time.
    pub at: StPoint,
    /// Update or request.
    pub kind: EventKind,
}

/// The generated world: city, agents, and the event stream.
#[derive(Debug, Clone)]
pub struct World {
    /// City layout.
    pub city: City,
    /// All agents (commuters first, then roamers, then POI regulars).
    pub agents: Vec<Agent>,
    /// All events, sorted by time (ties: by user, locations before
    /// requests); empty for a [population](World::population).
    pub events: Vec<Event>,
}

/// The service class assigned to routine (anchor) requests.
pub const ANCHOR_SERVICE: u32 = 1;
/// The service class assigned to background requests.
pub const BACKGROUND_SERVICE: u32 = 0;

impl World {
    /// Generates the world deterministically from the config: the
    /// [population](World::population), then its simulated events.
    pub fn generate(cfg: &WorldConfig) -> World {
        assert!(cfg.days > 0, "need at least one day");
        let mut world = World::population(cfg);
        world.events = world.synthesize_events(cfg);
        world
    }

    /// The city and its agents, without any events: everything a trusted
    /// server knows before the first location update arrives. Makes every
    /// draw of the master RNG, so its `city` and `agents` are exactly
    /// those of [`World::generate`] on the same config, whatever `days`.
    pub fn population(cfg: &WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let city = City::generate(&cfg.city, &mut rng);
        let mut agents = Vec::new();
        let mut next_user = 0u64;

        for _ in 0..cfg.n_commuters {
            agents.push(Agent {
                user: UserId(next_user),
                role: Role::Commuter {
                    home: rng.random_range(0..city.homes.len()),
                    office: rng.random_range(0..city.offices.len()),
                    depart_home: 7 * HOUR + rng.random_range(35 * MINUTE..50 * MINUTE),
                    depart_office: 16 * HOUR + rng.random_range(30 * MINUTE..55 * MINUTE),
                },
                speed: rng.random_range(8.0..12.0),
            });
            next_user += 1;
        }
        for _ in 0..cfg.n_roamers {
            agents.push(Agent {
                user: UserId(next_user),
                role: Role::Roamer {
                    max_pause: rng.random_range(5 * MINUTE..30 * MINUTE),
                },
                speed: rng.random_range(1.0..3.0),
            });
            next_user += 1;
        }
        for _ in 0..cfg.n_poi_regulars {
            let mut days = [false; 7];
            // Two or three fixed outing weekdays.
            let outings = rng.random_range(2..=3);
            let all = business_days();
            let mut picked = 0;
            while picked < outings {
                let d: usize = rng.random_range(0..7);
                if all[d] && !days[d] {
                    days[d] = true;
                    picked += 1;
                }
            }
            agents.push(Agent {
                user: UserId(next_user),
                role: Role::PoiRegular {
                    home: rng.random_range(0..city.homes.len()),
                    poi: rng.random_range(0..city.pois.len()),
                    days,
                    depart: 18 * HOUR + rng.random_range(0..40 * MINUTE),
                    dwell: rng.random_range(30 * MINUTE..90 * MINUTE),
                },
                speed: rng.random_range(6.0..10.0),
            });
            next_user += 1;
        }
        World {
            city,
            agents,
            events: Vec::new(),
        }
    }

    /// Simulates every agent for `cfg.days` days and returns the
    /// time-sorted event stream. Each agent draws from its own RNG seeded
    /// from `cfg.seed` and its user id, so the stream depends on the
    /// population and the config only, never on the master RNG.
    fn synthesize_events(&self, cfg: &WorldConfig) -> Vec<Event> {
        // Per-sample background request probability.
        let p_bg =
            (cfg.background_request_rate * cfg.sample_interval as f64 / 3_600.0).clamp(0.0, 1.0);

        let mut events = Vec::new();
        for agent in &self.agents {
            // A per-agent stream derived from the master seed keeps agents
            // independent of each other's sampling order.
            let mut arng = StdRng::seed_from_u64(
                cfg.seed ^ (agent.user.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            for day in 0..cfg.days {
                let trace = agent.simulate_day(&self.city, day, cfg.sample_interval, &mut arng);
                for s in &trace.samples {
                    events.push(Event {
                        user: agent.user,
                        at: *s,
                        kind: EventKind::Location,
                    });
                    if p_bg > 0.0 && arng.random_bool(p_bg) {
                        events.push(Event {
                            user: agent.user,
                            at: *s,
                            kind: EventKind::Request {
                                service: BACKGROUND_SERVICE,
                            },
                        });
                    }
                }
                for Anchor { at, kind } in &trace.anchors {
                    let _ = kind;
                    if arng.random_bool(cfg.anchor_request_prob.clamp(0.0, 1.0)) {
                        events.push(Event {
                            user: agent.user,
                            at: *at,
                            kind: EventKind::Request {
                                service: ANCHOR_SERVICE,
                            },
                        });
                    }
                }
            }
        }
        // Deterministic global order: by time, then user, locations first.
        events.sort_by_key(|e| {
            (
                e.at.t,
                e.user,
                match e.kind {
                    EventKind::Location => 0u8,
                    EventKind::Request { .. } => 1,
                },
            )
        });
        events
    }

    /// Builds the trajectory store the trusted server would hold after
    /// ingesting every location update.
    pub fn store(&self) -> TrajectoryStore {
        let mut store = TrajectoryStore::new();
        for a in &self.agents {
            store.ensure_user(a.user);
        }
        for e in &self.events {
            if e.kind == EventKind::Location {
                store.record(e.user, e.at);
            }
        }
        store
    }

    /// The agent with id `user`. Generated agents sit at the index of
    /// their id, so this is O(1); a vector edited out of that order falls
    /// back to a scan.
    fn agent(&self, user: UserId) -> Option<&Agent> {
        usize::try_from(user.raw())
            .ok()
            .and_then(|i| self.agents.get(i))
            .filter(|a| a.user == user)
            .or_else(|| self.agents.iter().find(|a| a.user == user))
    }

    /// The home rectangle of an agent, if it has one.
    pub fn home_of(&self, user: UserId) -> Option<Rect> {
        self.agent(user).and_then(|a| match &a.role {
            Role::Commuter { home, .. } | Role::PoiRegular { home, .. } => {
                Some(self.city.homes[*home])
            }
            Role::Roamer { .. } => None,
        })
    }

    /// The office rectangle of a commuter.
    pub fn office_of(&self, user: UserId) -> Option<Rect> {
        self.agent(user).and_then(|a| match &a.role {
            Role::Commuter { office, .. } => Some(self.city.offices[*office]),
            _ => None,
        })
    }

    /// All commuter user ids.
    pub fn commuters(&self) -> impl Iterator<Item = UserId> + '_ {
        self.agents.iter().filter_map(|a| match a.role {
            Role::Commuter { .. } => Some(a.user),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorldConfig {
        WorldConfig {
            seed: 7,
            days: 3,
            sample_interval: 120,
            n_commuters: 3,
            n_roamers: 4,
            n_poi_regulars: 2,
            background_request_rate: 0.2,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&small());
        let b = World::generate(&small());
        assert_eq!(a.events, b.events);
        assert_eq!(a.agents, b.agents);
    }

    #[test]
    fn events_are_time_sorted() {
        let w = World::generate(&small());
        for pair in w.events.windows(2) {
            assert!(pair[0].at.t <= pair[1].at.t);
        }
        assert!(!w.events.is_empty());
    }

    #[test]
    fn every_request_coincides_with_a_location_update() {
        let w = World::generate(&small());
        let store = w.store();
        for e in &w.events {
            if matches!(e.kind, EventKind::Request { .. }) {
                let phl = store.phl(e.user).unwrap();
                assert!(phl.points().contains(&e.at), "request without PHL point");
            }
        }
    }

    #[test]
    fn store_has_all_users() {
        let w = World::generate(&small());
        let store = w.store();
        assert_eq!(store.user_count(), 9);
        assert!(store.total_points() > 0);
    }

    #[test]
    fn anchor_requests_appear_for_commuters() {
        let w = World::generate(&small());
        let commuters: Vec<UserId> = w.commuters().collect();
        assert_eq!(commuters.len(), 3);
        for u in commuters {
            let anchors = w
                .events
                .iter()
                .filter(|e| {
                    e.user == u
                        && e.kind
                            == EventKind::Request {
                                service: ANCHOR_SERVICE,
                            }
                })
                .count();
            // 3 days: Mon-Wed → up to 12 anchor requests with prob 1.0.
            assert_eq!(anchors, 12, "user {u}");
        }
    }

    #[test]
    fn home_and_office_lookups() {
        let w = World::generate(&small());
        let commuter = w.commuters().next().unwrap();
        assert!(w.home_of(commuter).is_some());
        assert!(w.office_of(commuter).is_some());
        // Roamers have neither.
        let roamer = w
            .agents
            .iter()
            .find(|a| matches!(a.role, Role::Roamer { .. }))
            .unwrap()
            .user;
        assert!(w.home_of(roamer).is_none());
        assert!(w.office_of(roamer).is_none());
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(&small());
        let b = World::generate(&WorldConfig { seed: 8, ..small() });
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn population_is_the_generated_city_and_agents() {
        for seed in [0, 7, 42, 0xDEAD_BEEF] {
            for (n_commuters, n_roamers, n_poi_regulars) in [(0, 0, 0), (3, 4, 2), (12, 60, 6)] {
                let base = WorldConfig {
                    seed,
                    n_commuters,
                    n_roamers,
                    n_poi_regulars,
                    ..small()
                };
                let population = World::population(&base);
                assert!(population.events.is_empty());
                for days in [1, 2, 5] {
                    let world = World::generate(&WorldConfig {
                        days,
                        ..base.clone()
                    });
                    assert_eq!(population.city, world.city, "seed {seed} days {days}");
                    assert_eq!(population.agents, world.agents, "seed {seed} days {days}");
                }
            }
        }
    }

    #[test]
    fn generated_events_are_pinned() {
        // A digest of the whole stream: any change to the draw order of
        // the population or of event synthesis moves it.
        let mut text = String::new();
        for e in &World::generate(&small()).events {
            let kind = match e.kind {
                EventKind::Location => "loc".to_string(),
                EventKind::Request { service } => format!("req{service}"),
            };
            text.push_str(&format!(
                "{} {:016x} {:016x} {} {kind}\n",
                e.user.raw(),
                e.at.pos.x.to_bits(),
                e.at.pos.y.to_bits(),
                e.at.t.0,
            ));
        }
        assert_eq!(
            hka_obs::sha256::sha256_hex(text.as_bytes()),
            "d917192ca85eee699893252546a246700ede54de4bdd3f6802e92758ab867369"
        );
    }

    #[test]
    fn agent_lookup_falls_back_when_ids_are_not_dense() {
        let mut w = World::population(&small());
        let commuter = w.commuters().next().unwrap();
        let home = w.home_of(commuter);
        let office = w.office_of(commuter);
        w.agents.reverse();
        assert_eq!(w.agent(commuter).map(|a| a.user), Some(commuter));
        assert_eq!(w.home_of(commuter), home);
        assert_eq!(w.office_of(commuter), office);
        assert!(w.agent(UserId(1_000)).is_none());
    }

    #[test]
    fn background_rate_zero_means_only_anchor_requests() {
        let cfg = WorldConfig {
            background_request_rate: 0.0,
            ..small()
        };
        let w = World::generate(&cfg);
        assert!(w.events.iter().all(|e| match e.kind {
            EventKind::Request { service } => service == ANCHOR_SERVICE,
            EventKind::Location => true,
        }));
    }
}
