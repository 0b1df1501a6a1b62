//! The Animals end-to-end workload (DESIGN.md substitution S3).
//!
//! Emulates the paper's geo-distributed species-identification app: seven
//! locations on different continents, each with its own species distribution
//! and a configurable fleet of devices submitting inference requests as a
//! Poisson process (default 16 devices/location, mean two images per device
//! per day). Weather-driven corruptions follow the [`WeatherModel`] trace,
//! and class skew is controlled by a Zipf parameter exactly as in §5.1.

use crate::corruptions::Severity;
use crate::sampling::{poisson, seed_from_labels, Zipf};
use crate::space::ClassSpace;
use crate::stream::{LabeledSet, LocationStream, StreamItem};
use crate::timeline::SimDate;
use crate::weather::WeatherModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The seven emulated locations.
///
/// The paper names New York, Tibet, Beijing, New South Wales, the United
/// Kingdom and Quebec and counts seven; we add São Paulo as the seventh.
pub const ANIMAL_LOCATIONS: [&str; 7] = [
    "new-york",
    "tibet",
    "beijing",
    "new-south-wales",
    "united-kingdom",
    "quebec",
    "sao-paulo",
];

/// Configuration for [`AnimalsDataset::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnimalsConfig {
    /// Master seed for the generative model and all sampling.
    pub seed: u64,
    /// Feature dimensionality of the synthetic images.
    pub dim: usize,
    /// Number of species classes.
    pub classes: usize,
    /// Training images per class.
    pub train_per_class: usize,
    /// Validation images per class.
    pub val_per_class: usize,
    /// Devices per location.
    pub devices_per_location: usize,
    /// Mean inference requests per device per day (Poisson).
    pub arrivals_per_day: f64,
    /// Zipf skew parameter α over classes per location (0 = uniform).
    pub zipf_alpha: f64,
    /// Severity of weather corruptions applied to drifted days.
    pub severity: Severity,
    /// Base sampling noise of the class space.
    pub base_noise: f32,
    /// Per-class difficulty spread (0 = homogeneous classes).
    pub difficulty_spread: f32,
}

impl Default for AnimalsConfig {
    fn default() -> Self {
        AnimalsConfig {
            seed: 20_20,
            dim: 64,
            classes: 40,
            train_per_class: 80,
            val_per_class: 15,
            devices_per_location: 16,
            arrivals_per_day: 2.0,
            zipf_alpha: 0.0,
            severity: Severity::DEFAULT,
            base_noise: 0.68,
            difficulty_spread: 1.0,
        }
    }
}

impl AnimalsConfig {
    /// A reduced configuration for unit tests and doc examples.
    pub fn small() -> Self {
        AnimalsConfig {
            classes: 8,
            dim: 32,
            train_per_class: 30,
            val_per_class: 8,
            devices_per_location: 3,
            ..AnimalsConfig::default()
        }
    }
}

/// The generated Animals workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnimalsDataset {
    /// The generative model (kept for microbenchmarks that need fresh draws).
    pub space: ClassSpace,
    /// Balanced training split.
    pub train: LabeledSet,
    /// Balanced validation split.
    pub val: LabeledSet,
    /// Per-location inference streams covering the simulated range.
    pub streams: Vec<LocationStream>,
    /// The weather trace the streams were generated under.
    pub weather: WeatherModel,
    /// The configuration used.
    pub config: AnimalsConfig,
}

impl AnimalsDataset {
    /// Generates the full workload deterministically from `config.seed`.
    pub fn generate(config: &AnimalsConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let space = ClassSpace::new(
            &mut rng,
            config.dim,
            config.classes,
            config.base_noise,
            config.difficulty_spread,
        );
        let train =
            LabeledSet::from_samples(space.sample_balanced(&mut rng, config.train_per_class));
        let val = LabeledSet::from_samples(space.sample_balanced(&mut rng, config.val_per_class));
        let weather = WeatherModel::new(config.seed ^ 0x77ea);

        let streams = ANIMAL_LOCATIONS
            .iter()
            .map(|&loc| generate_location(loc, &space, &weather, config))
            .collect();

        AnimalsDataset {
            space,
            train,
            val,
            streams,
            weather,
            config: config.clone(),
        }
    }

    /// Total number of streamed items across all locations.
    pub fn stream_len(&self) -> usize {
        self.streams.iter().map(|s| s.items.len()).sum()
    }
}

/// Builds the per-location class distribution: a Zipf law whose head ranks
/// go to the *hardest* (lowest-accuracy) classes, with a location-specific
/// jitter so different locations still favor different species.
///
/// The paper introduces class skew precisely to emulate locations with "a
/// higher proportion of images from lower-accuracy classes" (§5.1), so the
/// Zipf ranking follows class difficulty rather than a uniform permutation.
fn location_class_weights(location: &str, space: &ClassSpace, alpha: f64, seed: u64) -> Vec<f64> {
    let classes = space.num_classes();
    let zipf = Zipf::new(classes, alpha);
    let mut rng = SmallRng::seed_from_u64(seed_from_labels(&[&seed.to_string(), location, "perm"]));
    let mut keyed: Vec<(f32, usize)> = (0..classes)
        .map(|c| {
            let jitter: f32 = rng.gen_range(0.0..0.15);
            (space.difficulty(c) + jitter, c)
        })
        .collect();
    // Hardest classes first → they receive the largest Zipf mass.
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut weights = vec![0.0f64; classes];
    for (rank, &(_, class)) in keyed.iter().enumerate() {
        weights[class] = zipf.prob(rank);
    }
    weights
}

fn generate_location(
    location: &str,
    space: &ClassSpace,
    weather: &WeatherModel,
    config: &AnimalsConfig,
) -> LocationStream {
    let weights = location_class_weights(location, space, config.zipf_alpha, config.seed);
    let mut rng = SmallRng::seed_from_u64(seed_from_labels(&[
        &config.seed.to_string(),
        location,
        "stream",
    ]));
    // Each id once, not once per device-day: the loop draws nothing for it.
    let device_ids: Vec<String> = (0..config.devices_per_location)
        .map(|device| format!("{location}-dev{device:02}"))
        .collect();
    let mut items = Vec::new();
    for date in SimDate::all() {
        let w = weather.weather(location, date);
        for device_id in &device_ids {
            let arrivals = poisson(&mut rng, config.arrivals_per_day);
            for _ in 0..arrivals {
                let class = crate::sampling::categorical(&mut rng, &weights);
                let sample = space.sample(&mut rng, class);
                let (features, cause, severity) = match w.corruption() {
                    Some(c) => (
                        c.apply(&sample.features, config.severity, &mut rng),
                        Some(c),
                        config.severity,
                    ),
                    None => (sample.features, None, Severity::NONE),
                };
                items.push(StreamItem {
                    features,
                    label: sample.label,
                    date,
                    location: location.to_string(),
                    device_id: device_id.clone(),
                    weather: w,
                    true_cause: cause,
                    severity,
                });
            }
        }
    }
    LocationStream {
        location: location.to_string(),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = AnimalsConfig::small();
        let a = AnimalsDataset::generate(&cfg);
        let b = AnimalsDataset::generate(&cfg);
        assert_eq!(a.stream_len(), b.stream_len());
        assert_eq!(a.train, b.train);
        assert_eq!(a.streams[0].items.first(), b.streams[0].items.first());
    }

    #[test]
    fn splits_are_balanced() {
        let cfg = AnimalsConfig::small();
        let d = AnimalsDataset::generate(&cfg);
        assert_eq!(d.train.len(), cfg.classes * cfg.train_per_class);
        assert_eq!(d.val.len(), cfg.classes * cfg.val_per_class);
        for c in 0..cfg.classes {
            assert_eq!(
                d.train.labels.iter().filter(|&&l| l == c).count(),
                cfg.train_per_class
            );
        }
    }

    #[test]
    fn stream_covers_all_locations_and_is_date_ordered() {
        let d = AnimalsDataset::generate(&AnimalsConfig::small());
        assert_eq!(d.streams.len(), 7);
        for s in &d.streams {
            assert!(!s.items.is_empty(), "{} has no items", s.location);
            for pair in s.items.windows(2) {
                assert!(pair[0].date <= pair[1].date, "stream out of order");
            }
        }
    }

    #[test]
    fn arrival_volume_matches_poisson_mean() {
        let cfg = AnimalsConfig::small();
        let d = AnimalsDataset::generate(&cfg);
        let expected = 7.0 * cfg.devices_per_location as f64 * 112.0 * cfg.arrivals_per_day;
        let actual = d.stream_len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.1,
            "stream {actual} vs expected {expected}"
        );
    }

    #[test]
    fn drifted_items_carry_weather_cause() {
        let d = AnimalsDataset::generate(&AnimalsConfig::small());
        for s in &d.streams {
            for item in &s.items {
                assert_eq!(item.true_cause, item.weather.corruption());
                assert_eq!(item.is_drifted(), item.weather.is_drifting());
                if item.is_drifted() {
                    assert_eq!(item.severity, d.config.severity);
                } else {
                    assert_eq!(item.severity, Severity::NONE);
                }
            }
        }
    }

    #[test]
    fn drift_rate_is_near_paper_value() {
        let d = AnimalsDataset::generate(&AnimalsConfig::small());
        let total = d.stream_len() as f64;
        let drifted = d
            .streams
            .iter()
            .flat_map(|s| &s.items)
            .filter(|i| i.is_drifted())
            .count() as f64;
        let frac = drifted / total;
        assert!((0.25..=0.45).contains(&frac), "drift fraction {frac}");
    }

    #[test]
    fn zipf_skew_concentrates_location_labels() {
        let uniform = AnimalsDataset::generate(&AnimalsConfig::small());
        let skewed = AnimalsDataset::generate(&AnimalsConfig {
            zipf_alpha: 2.0,
            ..AnimalsConfig::small()
        });
        let top_share = |d: &AnimalsDataset| -> f64 {
            let items = &d.streams[0].items;
            let mut counts = vec![0usize; d.config.classes];
            for i in items {
                counts[i.label] += 1;
            }
            *counts.iter().max().unwrap() as f64 / items.len() as f64
        };
        assert!(top_share(&skewed) > top_share(&uniform) + 0.1);
    }

    #[test]
    fn locations_favor_different_species_under_skew() {
        let d = AnimalsDataset::generate(&AnimalsConfig {
            zipf_alpha: 1.0,
            ..AnimalsConfig::small()
        });
        let top_class = |s: &LocationStream| -> usize {
            let mut counts = vec![0usize; d.config.classes];
            for i in &s.items {
                counts[i.label] += 1;
            }
            counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0
        };
        let tops: std::collections::HashSet<usize> = d.streams.iter().map(top_class).collect();
        assert!(tops.len() >= 2, "locations share top species: {tops:?}");
    }
}
