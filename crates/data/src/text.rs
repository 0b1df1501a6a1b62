//! A DetAIL-style drifting-text workload (ISSUE 10).
//!
//! The vision workloads emulate ImageNet-C-style covariate shift; language
//! drift looks different: topics wander and *vocabulary* shifts (new terms
//! displace old ones), which is what the DetAIL line of work streams at its
//! detectors. This module builds the same shape synthetically:
//!
//! * a [`TopicModel`] holds one token distribution per topic (the classes)
//!   over a fixed vocabulary — a "document" is the normalized term-frequency
//!   vector of `tokens_per_doc` draws, so features live on the probability
//!   simplex and feed the same `MlpResNet` classifiers as the vision
//!   features;
//! * drift reuses the [`WeatherModel`] timeline and [`Corruption`] causes:
//!   on a drifting day, tokens are drawn from the mixture
//!   `(1 − s) · topic + s · shift(cause)`, where `shift(cause)` is a seeded
//!   per-family vocabulary distribution and `s` is the configured
//!   [`Severity`] strength. Ground-truth cause and severity ride on each
//!   [`StreamItem`] exactly as in the vision streams, so the unchanged
//!   detect → FIM → adapt pipeline consumes the text stream as-is.
//!
//! Everything is deterministic from `config.seed`, matching
//! [`crate::AnimalsDataset`]'s contract.

use crate::corruptions::{Corruption, Severity};
use crate::sampling::{categorical, poisson, seed_from_labels, Zipf};
use crate::stream::{LabeledSet, LocationStream, StreamItem};
use crate::timeline::SimDate;
use crate::weather::WeatherModel;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The seven emulated newsroom locations (same geography as the vision
/// workloads, so weather traces and location attributes line up).
pub const TEXT_LOCATIONS: [&str; 7] = crate::animals::ANIMAL_LOCATIONS;

/// Configuration for [`TextDataset::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextConfig {
    /// Master seed for the topic model and all sampling.
    pub seed: u64,
    /// Vocabulary size — the feature dimensionality of the term-frequency
    /// vectors.
    pub vocab: usize,
    /// Number of topics (the label classes).
    pub topics: usize,
    /// Tokens drawn per document; more tokens → less sampling noise per
    /// term-frequency vector.
    pub tokens_per_doc: usize,
    /// Concentration of each topic's token distribution (higher = peakier
    /// topics = easier classification).
    pub topic_sharpness: f32,
    /// Training documents per topic.
    pub train_per_topic: usize,
    /// Validation documents per topic.
    pub val_per_topic: usize,
    /// Devices per location.
    pub devices_per_location: usize,
    /// Mean inference requests per device per day (Poisson).
    pub arrivals_per_day: f64,
    /// Zipf skew parameter α over topics per location (0 = uniform).
    pub zipf_alpha: f64,
    /// Severity of the vocabulary shift applied on drifting days.
    pub severity: Severity,
}

impl Default for TextConfig {
    fn default() -> Self {
        TextConfig {
            seed: 20_21,
            vocab: 64,
            topics: 20,
            tokens_per_doc: 96,
            topic_sharpness: 2.5,
            train_per_topic: 80,
            val_per_topic: 15,
            devices_per_location: 16,
            arrivals_per_day: 2.0,
            zipf_alpha: 0.0,
            severity: Severity::DEFAULT,
        }
    }
}

impl TextConfig {
    /// A reduced configuration for unit tests and the text golden trace.
    pub fn small() -> Self {
        TextConfig {
            vocab: 32,
            topics: 6,
            tokens_per_doc: 48,
            train_per_topic: 30,
            val_per_topic: 8,
            devices_per_location: 3,
            ..TextConfig::default()
        }
    }
}

/// The generative topic model: one token distribution per topic plus one
/// seeded shift distribution per corruption family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicModel {
    vocab: usize,
    tokens_per_doc: usize,
    /// `topics[t][v]` — probability of token `v` under topic `t`.
    topics: Vec<Vec<f64>>,
    /// `shifts[c][v]` — the drifted vocabulary distribution for corruption
    /// family `c` (indexed by position in [`Corruption::ALL`]).
    shifts: Vec<Vec<f64>>,
}

/// Draws a normalized token distribution: exponentiated Gaussian weights,
/// so `sharpness` controls how peaked the distribution is.
fn draw_distribution<R: Rng + ?Sized>(rng: &mut R, vocab: usize, sharpness: f32) -> Vec<f64> {
    let mut w: Vec<f64> = (0..vocab)
        .map(|_| {
            let g: f32 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            f64::from(sharpness * g).exp()
        })
        .collect();
    let sum: f64 = w.iter().sum();
    for p in &mut w {
        *p /= sum;
    }
    w
}

impl TopicModel {
    /// Builds the topic and shift distributions deterministically from the
    /// configuration.
    pub fn new(config: &TextConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let topics = (0..config.topics)
            .map(|_| draw_distribution(&mut rng, config.vocab, config.topic_sharpness))
            .collect();
        // Each corruption family gets its own vocabulary: independent of the
        // topics (and of each other), seeded by the family name so the same
        // cause shifts the stream the same way at every location.
        let shifts = Corruption::ALL
            .iter()
            .map(|c| {
                let mut r = SmallRng::seed_from_u64(seed_from_labels(&[
                    &config.seed.to_string(),
                    "shift",
                    c.name(),
                ]));
                draw_distribution(&mut r, config.vocab, config.topic_sharpness)
            })
            .collect();
        TopicModel {
            vocab: config.vocab,
            tokens_per_doc: config.tokens_per_doc,
            topics,
            shifts,
        }
    }

    /// Vocabulary size (feature dimensionality).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The shift distribution for a corruption family.
    fn shift(&self, cause: Corruption) -> &[f64] {
        let idx = Corruption::ALL
            .iter()
            .position(|&c| c == cause)
            .expect("every corruption family has a shift distribution");
        &self.shifts[idx]
    }

    /// Samples one clean document from `topic`: the term-frequency vector
    /// of `tokens_per_doc` categorical draws.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, topic: usize) -> Vec<f32> {
        self.sample_from(rng, &self.topics[topic])
    }

    /// Samples one drifted document: tokens come from the mixture
    /// `(1 − s) · topic + s · shift(cause)` with `s` the severity strength.
    pub fn sample_drifted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        topic: usize,
        cause: Corruption,
        severity: Severity,
    ) -> Vec<f32> {
        let s = f64::from(severity.strength());
        let shift = self.shift(cause);
        let mix: Vec<f64> = self.topics[topic]
            .iter()
            .zip(shift)
            .map(|(&t, &d)| (1.0 - s) * t + s * d)
            .collect();
        self.sample_from(rng, &mix)
    }

    fn sample_from<R: Rng + ?Sized>(&self, rng: &mut R, dist: &[f64]) -> Vec<f32> {
        let mut counts = vec![0u32; self.vocab];
        for _ in 0..self.tokens_per_doc {
            counts[categorical(rng, dist)] += 1;
        }
        let n = self.tokens_per_doc.max(1) as f32;
        counts.into_iter().map(|c| c as f32 / n).collect()
    }
}

/// The generated drifting-text workload: same shape as
/// [`crate::AnimalsDataset`], so fleets, orchestrators and benches consume
/// it unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextDataset {
    /// The generative topic model (kept for benches that need fresh draws).
    pub model: TopicModel,
    /// Balanced clean training split.
    pub train: LabeledSet,
    /// Balanced clean validation split.
    pub val: LabeledSet,
    /// Per-location inference streams covering the simulated range.
    pub streams: Vec<LocationStream>,
    /// The weather trace the streams were generated under.
    pub weather: WeatherModel,
    /// The configuration used.
    pub config: TextConfig,
}

impl TextDataset {
    /// Generates the full workload deterministically from `config.seed`.
    pub fn generate(config: &TextConfig) -> Self {
        let model = TopicModel::new(config);
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x7e47);
        let mut train = LabeledSet::new();
        for topic in 0..config.topics {
            for _ in 0..config.train_per_topic {
                train.push(model.sample(&mut rng, topic), topic);
            }
        }
        let mut val = LabeledSet::new();
        for topic in 0..config.topics {
            for _ in 0..config.val_per_topic {
                val.push(model.sample(&mut rng, topic), topic);
            }
        }
        let weather = WeatherModel::new(config.seed ^ 0x77ea);
        let streams = TEXT_LOCATIONS
            .iter()
            .map(|&loc| generate_location(loc, &model, &weather, config))
            .collect();
        TextDataset {
            model,
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

/// Per-location topic weights: a Zipf law over a location-seeded
/// permutation of the topics, so skewed configurations make different
/// locations favor different topics.
fn location_topic_weights(location: &str, topics: usize, alpha: f64, seed: u64) -> Vec<f64> {
    let zipf = Zipf::new(topics, alpha);
    let mut rng =
        SmallRng::seed_from_u64(seed_from_labels(&[&seed.to_string(), location, "topics"]));
    let mut order: Vec<usize> = (0..topics).collect();
    order.shuffle(&mut rng);
    let mut weights = vec![0.0f64; topics];
    for (rank, &topic) in order.iter().enumerate() {
        weights[topic] = zipf.prob(rank);
    }
    weights
}

fn generate_location(
    location: &str,
    model: &TopicModel,
    weather: &WeatherModel,
    config: &TextConfig,
) -> LocationStream {
    let weights = location_topic_weights(location, config.topics, config.zipf_alpha, config.seed);
    let mut rng = SmallRng::seed_from_u64(seed_from_labels(&[
        &config.seed.to_string(),
        location,
        "text-stream",
    ]));
    let mut items = Vec::new();
    for date in SimDate::all() {
        let w = weather.weather(location, date);
        for device in 0..config.devices_per_location {
            let device_id = format!("{location}-txt{device:02}");
            let arrivals = poisson(&mut rng, config.arrivals_per_day);
            for _ in 0..arrivals {
                let topic = categorical(&mut rng, &weights);
                let (features, cause, severity) = match w.corruption() {
                    Some(c) => (
                        model.sample_drifted(&mut rng, topic, c, config.severity),
                        Some(c),
                        config.severity,
                    ),
                    None => (model.sample(&mut rng, topic), None, Severity::NONE),
                };
                items.push(StreamItem {
                    features,
                    label: topic,
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
        let cfg = TextConfig::small();
        let a = TextDataset::generate(&cfg);
        let b = TextDataset::generate(&cfg);
        assert_eq!(a.train, b.train);
        assert_eq!(a.stream_len(), b.stream_len());
        assert_eq!(a.streams[0].items.first(), b.streams[0].items.first());
    }

    #[test]
    fn splits_are_balanced_simplex_vectors() {
        let cfg = TextConfig::small();
        let d = TextDataset::generate(&cfg);
        assert_eq!(d.train.len(), cfg.topics * cfg.train_per_topic);
        assert_eq!(d.val.len(), cfg.topics * cfg.val_per_topic);
        for row in &d.train.features {
            assert_eq!(row.len(), cfg.vocab);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "tf vector sums to {sum}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn stream_covers_all_locations_and_is_date_ordered() {
        let d = TextDataset::generate(&TextConfig::small());
        assert_eq!(d.streams.len(), 7);
        for s in &d.streams {
            assert!(!s.items.is_empty(), "{} has no items", s.location);
            for pair in s.items.windows(2) {
                assert!(pair[0].date <= pair[1].date, "stream out of order");
            }
        }
    }

    #[test]
    fn drifted_items_carry_weather_cause() {
        let d = TextDataset::generate(&TextConfig::small());
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
    fn vocabulary_shift_moves_token_mass() {
        // Mean drifted token distribution must diverge from the mean clean
        // one: that separation is what makes the stream *detectably*
        // drifted for distribution-based detectors.
        let d = TextDataset::generate(&TextConfig::small());
        let mean = |pred: &dyn Fn(&StreamItem) -> bool| -> Vec<f64> {
            let mut acc = vec![0.0f64; d.config.vocab];
            let mut n = 0u64;
            for item in d.streams.iter().flat_map(|s| &s.items) {
                if pred(item) {
                    for (a, &f) in acc.iter_mut().zip(&item.features) {
                        *a += f64::from(f);
                    }
                    n += 1;
                }
            }
            acc.into_iter().map(|a| a / n.max(1) as f64).collect()
        };
        let clean = mean(&|i| !i.is_drifted());
        let drifted = mean(&|i| i.is_drifted());
        let l1: f64 = clean
            .iter()
            .zip(&drifted)
            .map(|(&c, &x)| (c - x).abs())
            .sum();
        assert!(l1 > 0.2, "clean/drifted mean-token L1 distance {l1}");
    }

    #[test]
    fn zipf_skew_concentrates_location_topics() {
        let uniform = TextDataset::generate(&TextConfig::small());
        let skewed = TextDataset::generate(&TextConfig {
            zipf_alpha: 2.0,
            ..TextConfig::small()
        });
        let top_share = |d: &TextDataset| -> f64 {
            let items = &d.streams[0].items;
            let mut counts = vec![0usize; d.config.topics];
            for i in items {
                counts[i.label] += 1;
            }
            *counts.iter().max().unwrap() as f64 / items.len() as f64
        };
        assert!(top_share(&skewed) > top_share(&uniform) + 0.1);
    }

    #[test]
    fn shift_distributions_differ_per_corruption_family() {
        let model = TopicModel::new(&TextConfig::small());
        let rain = model.shift(Corruption::Rain).to_vec();
        let snow = model.shift(Corruption::Snow).to_vec();
        let fog = model.shift(Corruption::Fog).to_vec();
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum() };
        assert!(l1(&rain, &snow) > 0.1);
        assert!(l1(&rain, &fog) > 0.1);
        assert!(l1(&snow, &fog) > 0.1);
    }
}
