//! The synthetic city: a bounded plane with homes, offices and points of
//! interest.

use hka_geo::{Point, Rect};
use rand::rngs::StdRng;
use rand::RngExt;

/// Sizing of the generated city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityConfig {
    /// City extent along x, meters.
    pub width: f64,
    /// City extent along y, meters.
    pub height: f64,
    /// Number of residential buildings.
    pub n_homes: usize,
    /// Number of office buildings.
    pub n_offices: usize,
    /// Number of points of interest (shops, clinics, cafés…).
    pub n_pois: usize,
    /// Side of each building footprint, meters.
    pub building_size: f64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            width: 3_000.0,
            height: 3_000.0,
            n_homes: 40,
            n_offices: 12,
            n_pois: 15,
            building_size: 60.0,
        }
    }
}

/// The generated city layout.
///
/// Homes occupy the western residential band, offices the eastern
/// commercial band (so commutes have non-trivial length); POIs are spread
/// everywhere. All placement is deterministic given the RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// The city limits.
    pub bounds: Rect,
    /// Residential building footprints.
    pub homes: Vec<Rect>,
    /// Office building footprints.
    pub offices: Vec<Rect>,
    /// Point-of-interest footprints.
    pub pois: Vec<Rect>,
}

impl City {
    /// Lays out a city from the config.
    pub fn generate(cfg: &CityConfig, rng: &mut StdRng) -> City {
        assert!(cfg.width > 0.0 && cfg.height > 0.0, "city must have area");
        assert!(
            cfg.building_size * 3.0 <= cfg.width.min(cfg.height),
            "buildings must fit the city"
        );
        let bounds = Rect::from_bounds(0.0, 0.0, cfg.width, cfg.height);
        let b = cfg.building_size;
        let place = |rng: &mut StdRng, x_lo: f64, x_hi: f64| {
            let x = rng.random_range(x_lo..(x_hi - b));
            let y = rng.random_range(0.0..(cfg.height - b));
            Rect::from_bounds(x, y, x + b, y + b)
        };
        // Residential west third; commercial east third.
        let homes = (0..cfg.n_homes)
            .map(|_| place(rng, 0.0, cfg.width / 3.0))
            .collect();
        let offices = (0..cfg.n_offices)
            .map(|_| place(rng, 2.0 * cfg.width / 3.0, cfg.width))
            .collect();
        let pois = (0..cfg.n_pois)
            .map(|_| place(rng, 0.0, cfg.width))
            .collect();
        City {
            bounds,
            homes,
            offices,
            pois,
        }
    }

    /// A deterministic interior point of a building (its center).
    pub fn inside(rect: &Rect) -> Point {
        rect.center()
    }

    /// A random point within the city limits.
    pub fn random_point(&self, rng: &mut StdRng) -> Point {
        Point::new(
            rng.random_range(self.bounds.min().x..self.bounds.max().x),
            rng.random_range(self.bounds.min().y..self.bounds.max().y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CityConfig::default();
        let a = City::generate(&cfg, &mut StdRng::seed_from_u64(7));
        let b = City::generate(&cfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.homes, b.homes);
        assert_eq!(a.offices, b.offices);
        assert_eq!(a.pois, b.pois);
        let c = City::generate(&cfg, &mut StdRng::seed_from_u64(8));
        assert_ne!(a.homes, c.homes);
    }

    #[test]
    fn buildings_are_inside_bounds_and_sized() {
        let cfg = CityConfig::default();
        let city = City::generate(&cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(city.homes.len(), cfg.n_homes);
        assert_eq!(city.offices.len(), cfg.n_offices);
        assert_eq!(city.pois.len(), cfg.n_pois);
        for r in city.homes.iter().chain(&city.offices).chain(&city.pois) {
            assert!(city.bounds.contains_rect(r));
            assert!((r.width() - cfg.building_size).abs() < 1e-9);
            assert!((r.height() - cfg.building_size).abs() < 1e-9);
        }
    }

    #[test]
    fn homes_west_offices_east() {
        let cfg = CityConfig::default();
        let city = City::generate(&cfg, &mut StdRng::seed_from_u64(2));
        for h in &city.homes {
            assert!(h.max().x <= cfg.width / 3.0 + 1e-9);
        }
        for o in &city.offices {
            assert!(o.min().x >= 2.0 * cfg.width / 3.0 - 1e-9);
        }
    }

    #[test]
    fn random_points_inside() {
        let city = City::generate(&CityConfig::default(), &mut StdRng::seed_from_u64(3));
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(city.bounds.contains(&city.random_point(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "fit the city")]
    fn oversized_buildings_rejected() {
        let cfg = CityConfig {
            building_size: 2_000.0,
            ..CityConfig::default()
        };
        let _ = City::generate(&cfg, &mut StdRng::seed_from_u64(0));
    }
}
