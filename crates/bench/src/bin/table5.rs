//! Table 5: Fowlkes–Mallows score of the root-cause analysis variants over
//! eight drift scenarios (combinations of rain / snow / fog).
//!
//! For each scenario, only the scenario's weather conditions corrupt images
//! over a 14-day window (§5.4); the detector's (noisy) verdicts feed the
//! drift log; and each analysis variant's discovered causes induce a
//! clustering of the images that is compared with the ground-truth cause
//! clustering. Paper shape: FIM+SetReduction+CF dominates, reaching 1.0 on
//! every scenario except snow.

use nazar_analysis::{analyze_variant, fowlkes_mallows, AnalysisVariant, FimConfig, RankedCause};
use nazar_bench::animals_model;
use nazar_bench::report::{num, Table};
use nazar_data::{AnimalsConfig, Corruption, SimDate, Weather};
use nazar_detect::msp_of_logits;
use nazar_device::LOG_SCHEMA;
use nazar_log::{Attribute, DriftLog, DriftLogEntry};
use nazar_nn::Mode;
use nazar_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One simulated image with its metadata and ground-truth cause.
struct Obs {
    features: Vec<f32>,
    weather: Weather,
    location: String,
    device_id: String,
    truth_cluster: usize, // 0 = clean, 1.. = cause index within the scenario
}

fn scenario_items(setup: &nazar_bench::AnimalsSetup, active: &[Weather], seed: u64) -> Vec<Obs> {
    let config = &setup.dataset.config;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for loc in nazar_data::ANIMAL_LOCATIONS {
        for day in 0..14u16 {
            let date = SimDate::new(day);
            let weather = setup.dataset.weather.weather(loc, date);
            for dev in 0..config.devices_per_location {
                let device_id = format!("{loc}-dev{dev:02}");
                for _ in 0..nazar_data::sampling::poisson(&mut rng, config.arrivals_per_day) {
                    let class = (out.len() * 7 + dev) % config.classes;
                    let sample = setup.dataset.space.sample(&mut rng, class);
                    let applies = active.contains(&weather);
                    let (features, truth_cluster) = if applies {
                        let c = weather.corruption().expect("active weather drifts");
                        (
                            c.apply(&sample.features, config.severity, &mut rng),
                            1 + active.iter().position(|&w| w == weather).unwrap(),
                        )
                    } else {
                        (sample.features, 0)
                    };
                    out.push(Obs {
                        features,
                        weather,
                        location: loc.to_string(),
                        device_id: device_id.clone(),
                        truth_cluster,
                    });
                }
            }
        }
    }
    out
}

fn predicted_clusters(obs: &[Obs], causes: &[RankedCause]) -> Vec<usize> {
    obs.iter()
        .map(|o| {
            let attrs = [
                Attribute::new("weather", o.weather.name()),
                Attribute::new("location", o.location.clone()),
                Attribute::new("device_id", o.device_id.clone()),
            ];
            causes
                .iter()
                .position(|c| c.attrs.iter().all(|a| attrs.contains(a)))
                .map_or(0, |i| i + 1)
        })
        .collect()
}

fn main() {
    let _obs = nazar_bench::ObsRun::start("table5");
    let config = AnimalsConfig::default();
    let mut setup = animals_model("resnet50", &config);
    let fim = FimConfig::default();

    let scenarios: [(&str, Vec<Weather>); 8] = [
        ("none", vec![]),
        ("rain", vec![Weather::Rain]),
        ("snow", vec![Weather::Snow]),
        ("fog", vec![Weather::Fog]),
        ("fog & snow", vec![Weather::Fog, Weather::Snow]),
        ("fog & rain", vec![Weather::Fog, Weather::Rain]),
        ("snow & rain", vec![Weather::Snow, Weather::Rain]),
        (
            "snow, rain & fog",
            vec![Weather::Snow, Weather::Rain, Weather::Fog],
        ),
    ];
    let variants = [
        ("FIM", AnalysisVariant::FimOnly),
        ("FIM + SetRed", AnalysisVariant::FimWithReduction),
        ("FIM + SetRed + CF", AnalysisVariant::Full),
    ];

    let mut rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(name, _)| vec![name.to_string()])
        .collect();

    for (si, (sname, active)) in scenarios.iter().enumerate() {
        let obs = scenario_items(&setup, active, 1000 + si as u64);
        // Batched MSP detection over all observations.
        let x = Tensor::stack_rows(&obs.iter().map(|o| o.features.clone()).collect::<Vec<_>>())
            .expect("rows");
        let msp = msp_of_logits(&setup.model.logits(&x, Mode::Eval));

        let mut log = DriftLog::new(&LOG_SCHEMA);
        for (i, o) in obs.iter().enumerate() {
            log.push(DriftLogEntry::new(
                i as u64,
                &[
                    ("weather", o.weather.name()),
                    ("location", &o.location),
                    ("device_id", &o.device_id),
                ],
                msp[i] < 0.9,
            ))
            .expect("schema");
        }

        let truth: Vec<usize> = obs.iter().map(|o| o.truth_cluster).collect();
        for (vi, (_, variant)) in variants.iter().enumerate() {
            let causes = analyze_variant(&log, &fim, *variant);
            let predicted = predicted_clusters(&obs, &causes);
            let fms = fowlkes_mallows(&truth, &predicted);
            rows[vi].push(num(fms, 3));
        }
        println!(
            "scenario `{sname}`: {} images, {} detected drifted",
            obs.len(),
            log.num_drifted()
        );
    }
    println!();

    let headers: Vec<&str> = std::iter::once("analysis / ground truth")
        .chain(scenarios.iter().map(|(n, _)| *n))
        .collect();
    let mut t = Table::new("Table 5: Fowlkes–Mallows score (1 is optimal)", &headers);
    for r in &rows {
        t.row(r);
    }
    t.row_str(&[
        "(paper full pipeline)",
        "1",
        "1",
        "0.874",
        "1",
        "1",
        "1",
        "1",
        "1",
    ]);
    t.print();

    // Shape check: the full pipeline dominates (or ties) the ablations.
    #[allow(clippy::needless_range_loop)] // col indexes two parallel rows
    for col in 1..=scenarios.len() {
        let fim_only: f64 = rows[0][col].parse().expect("numeric");
        let full: f64 = rows[2][col].parse().expect("numeric");
        assert!(
            full >= fim_only - 0.02,
            "full pipeline regressed on scenario {col}: {full} vs {fim_only}"
        );
    }
    let full_mean: f64 = (1..=scenarios.len())
        .map(|c| rows[2][c].parse::<f64>().expect("numeric"))
        .sum::<f64>()
        / scenarios.len() as f64;
    println!("full-pipeline mean FMS {full_mean:.3} (paper mean 0.984)");
    assert!(full_mean > 0.8, "full pipeline FMS too low: {full_mean}");
    let _ = Corruption::ALL;
}
