//! The four workloads: what each generates, and its timed set-up.
//!
//! Every configuration is built field by field — never `from_env` — so a
//! stray `NAZAR_*` variable cannot change what a workload measures. All
//! run `Strategy::Nazar` over 8 windows with TENT (lr 0.008, 3 epochs),
//! `min_samples_per_cause` 32, the event-driven scheduler, the exchange
//! and a filesystem store under the benchmark's own `out/` directory.
//!
//! Sizes are scaled so one invocation (three set-ups, a warm-up run, the
//! timed runs and the audit) stays near 20 s on two cores: the driver
//! makes 92 invocations inside a 57-minute cap. README.md gives the
//! reasoning per workload.

use nazar_adapt::{AdaptMethod, TentConfig};
use nazar_cloud::experiment::to_matrix;
use nazar_cloud::timing::synthetic_drift_log;
use nazar_cloud::{CloudConfig, LinkConfig, NetConfig};
use nazar_data::{AnimalsConfig, AnimalsDataset};
use nazar_device::{DeviceConfig, LOG_SCHEMA};
use nazar_log::DriftLog;
use nazar_nn::{train, MlpResNet, ModelArch, Sgd};
use nazar_store::{DriftStore, StoreConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One workload's inputs, before the seed is applied.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    animals: AnimalsConfig,
    /// Builds the base model's architecture from `(input_dim, classes)`.
    arch: fn(usize, usize) -> ModelArch,
    /// Fixed epoch count: early stopping makes training time swing 3x
    /// from seed to seed, which would swamp `setup_s`.
    train_epochs: usize,
    pub sample_rate: f64,
    link: LinkConfig,
    /// Rows of synthetic history preloaded into the store (0 = none).
    pub history_rows: usize,
    history_flush_every: usize,
    retention: Option<usize>,
    chunk_rows: usize,
    pub windows: usize,
}

pub const WORKLOADS: [&str; 4] = ["vision_loop", "fleet_wide", "fleet_lossy", "long_history"];

const LOSSY: LinkConfig = LinkConfig {
    latency_us: 50_000,
    jitter_us: 10_000,
    bandwidth_bps: None,
    loss: 0.2,
    duplicate: 0.05,
    reorder: 0.05,
};

/// The spec for `name`; `quick` shrinks it for the smoke test.
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let fleet = |devices_per_location: usize| AnimalsConfig {
        devices_per_location,
        arrivals_per_day: 0.1,
        ..AnimalsConfig::small()
    };
    let mut spec = match name {
        "vision_loop" => Spec {
            name: "vision_loop",
            why: "paper-shaped Animals loop (64-d, 40 classes, resnet34 analog, 30% sampled): \
                  model math dominates (TENT about half the run, b1 forward a third); the 2-chunk store fits the cache",
            animals: AnimalsConfig {
                devices_per_location: 6,
                ..AnimalsConfig::default()
            },
            // 96 wide, three blocks: the largest preset whose from-scratch
            // training fits the set-up budget three times over.
            arch: ModelArch::resnet34_analog,
            train_epochs: 12,
            sample_rate: 0.3,
            link: LinkConfig::perfect(),
            history_rows: 0,
            history_flush_every: 0,
            retention: None,
            chunk_rows: nazar_store::DEFAULT_CHUNK_ROWS,
            windows: 8,
        },
        "fleet_wide" => Spec {
            name: "fleet_wide",
            why: "2800 devices, tiny model, perfect link: per-item and per-device overhead \
                  (scheduler, upload, broadcast deploy, ingest) dominates and TENT is noise; \
                  16 chunks overflow the 8-chunk cache",
            animals: fleet(400),
            arch: ModelArch::tiny,
            train_epochs: 30,
            sample_rate: 0.02,
            link: LinkConfig::perfect(),
            history_rows: 0,
            history_flush_every: 0,
            retention: None,
            chunk_rows: 2048,
            windows: 8,
        },
        "fleet_lossy" => Spec {
            name: "fleet_lossy",
            why: "fleet_wide over a 20%-loss, duplicating, reordering 50 ms link: the same \
                  transport on its recovery path (retries, dedup, resumable chunks)",
            link: LOSSY,
            ..spec("fleet_wide", false)?
        },
        "long_history" => Spec {
            name: "long_history",
            why: "store preloaded with 200k rows, 2100-device fleet, retention on: reopen with \
                  history, mirror ingest, flush and amortised retention in the run; 27-chunk \
                  out-of-core queries in the audit",
            animals: fleet(300),
            arch: ModelArch::tiny,
            train_epochs: 30,
            sample_rate: 0.02,
            link: LinkConfig::perfect(),
            history_rows: 200_000,
            history_flush_every: 65_536,
            retention: Some(200_000),
            chunk_rows: nazar_store::DEFAULT_CHUNK_ROWS,
            windows: 8,
        },
        _ => return None,
    };
    if quick {
        spec.animals.devices_per_location = spec.animals.devices_per_location.clamp(2, 40) / 2;
        spec.animals.train_per_class = spec.animals.train_per_class.min(20);
        spec.train_epochs = 4;
        spec.windows = 2;
        spec.history_rows /= 10;
        spec.history_flush_every /= 10;
        spec.retention = spec.retention.map(|n| n / 10);
        spec.chunk_rows = spec.chunk_rows.min(1024);
    }
    Some(spec)
}

/// Synthetic history preloaded into a store directory, and the same rows
/// in memory for the audit oracle.
#[derive(Debug)]
pub struct History {
    pub log: DriftLog,
    pub dir: PathBuf,
}

/// Everything a run needs, with what each part of set-up cost.
#[derive(Debug)]
pub struct Setup {
    pub data: AnimalsDataset,
    pub model: MlpResNet,
    pub val_accuracy: f32,
    pub items: usize,
    pub history: Option<History>,
    pub generate_s: f64,
    pub train_s: f64,
}

impl Spec {
    /// Generates the fleet, trains the base model from scratch and (for
    /// `long_history`) preloads the store under `scratch`.
    pub fn set_up(&self, seed: u64, scratch: &Path) -> Setup {
        let t0 = Instant::now();
        let data = AnimalsDataset::generate(&AnimalsConfig {
            seed,
            ..self.animals.clone()
        });
        let generate_s = t0.elapsed().as_secs_f64();

        // `train_base_model`'s recipe with its early stopping disabled
        // (patience == epochs): same optimiser, same batch size, a fixed
        // amount of work.
        let t0 = Instant::now();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
        let (train_x, train_y) = to_matrix(&data.train);
        let (val_x, val_y) = to_matrix(&data.val);
        let mut model = MlpResNet::new(
            (self.arch)(self.animals.dim, self.animals.classes),
            &mut rng,
        );
        let mut opt = Sgd::with_momentum(0.05, 0.9).with_weight_decay(4e-4);
        let val_accuracy = train::train_until_converged(
            &mut model,
            &mut opt,
            &train_x,
            &train_y,
            &val_x,
            &val_y,
            64,
            self.train_epochs,
            self.train_epochs,
            &mut rng,
        );
        let train_s = t0.elapsed().as_secs_f64();

        let history = (self.history_rows > 0).then(|| self.preload(seed, scratch));

        let items = data.stream_len();
        Setup {
            data,
            model,
            val_accuracy,
            items,
            history,
            generate_s,
            train_s,
        }
    }

    fn preload(&self, seed: u64, scratch: &Path) -> History {
        let dir = scratch.join("history");
        let _ = std::fs::remove_dir_all(&dir);
        let log = synthetic_drift_log(self.history_rows, seed);
        let mut store = DriftStore::open_config(&LOG_SCHEMA, self.store_config(&dir))
            .expect("open the history store");
        for row in 0..log.num_rows() {
            store
                .push(log.entry(row).expect("row exists"))
                .expect("synthetic rows follow the log schema");
            if (row + 1) % self.history_flush_every == 0 {
                store.flush().expect("flush history");
            }
        }
        store.flush().expect("final history flush");
        assert_eq!(store.durable_rows(), self.history_rows);
        History { log, dir }
    }

    pub fn store_config(&self, dir: &Path) -> StoreConfig {
        StoreConfig {
            chunk_rows: self.chunk_rows,
            ..StoreConfig::at(dir.to_string_lossy().into_owned())
        }
    }

    /// The cloud configuration of one run persisting into `dir`.
    pub fn cloud_config(&self, seed: u64, dir: &Path) -> CloudConfig {
        CloudConfig {
            windows: self.windows,
            method: AdaptMethod::Tent(TentConfig {
                lr: 0.008,
                epochs: 3,
                ..TentConfig::default()
            }),
            min_samples_per_cause: 32,
            device: DeviceConfig {
                sample_rate: self.sample_rate,
                ..DeviceConfig::default()
            },
            seed,
            net: Some(NetConfig {
                link: self.link,
                seed,
                ..NetConfig::default()
            }),
            log_retention: self.retention,
            persist: Some(self.store_config(dir)),
            ..CloudConfig::default()
        }
    }
}

impl Setup {
    /// A fresh store directory for run `tag`: empty, or a copy of the
    /// preloaded history.
    pub fn fresh_run_dir(&self, scratch: &Path, tag: &str) -> PathBuf {
        let dir = scratch.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create run directory");
        if let Some(history) = &self.history {
            for entry in std::fs::read_dir(&history.dir).expect("list history") {
                let entry = entry.expect("history entry");
                std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy history");
            }
        }
        dir
    }
}

/// The benchmark's scratch directory inside its own `out/`; removed on drop.
#[derive(Debug)]
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    pub fn new(out_dir: &Path, workload: &str) -> Scratch {
        let root = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
