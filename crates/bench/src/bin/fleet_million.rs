//! Million-device benchmark for the columnar fleet.
//!
//! Builds a [`nazar_device::FleetSim`] over 1,000,000 devices (64
//! locations), replays two windows of one inference each — one batched
//! pass per window — broadcasts one BN-patch deployment between
//! them (exercising the shared version arena: one payload, a million pool
//! references), and batch-ingests every emitted drift-log entry. This is
//! the scale the struct-of-arrays `FleetState` exists for — a fleet of
//! whole `Device` structs at this count would hold a million model clones.
//!
//! Reported into `BENCH_fleet.json` (merged, not clobbered — the
//! `fleet_scale` rows survive; override the path with `NAZAR_BENCH_OUT`):
//!
//! * `fleet_million/devices` — fleet size held in memory;
//! * `fleet_million/devices_per_sec` — window-pass throughput over the
//!   replayed windows;
//! * `fleet_million/ingest_rows_per_sec` — drift-log batch-ingest rate;
//! * `fleet_million/peak_rss_bytes` — `VmHWM` from `/proc/self/status`
//!   (0 where unavailable).
//!
//! Everything printed to **stdout** is deterministic — device counts,
//! per-window stats, and an FNV-1a checksum over every entry — so CI runs
//! the binary at `NAZAR_NUM_THREADS=1` and `=4` and diffs the output
//! byte-for-byte (the determinism contract at the million scale). Timings
//! go to stderr. `NAZAR_FLEET_DEVICES` shrinks the fleet for smoke runs;
//! the determinism contract still applies but the 1M floor does not.

use nazar_data::{LocationStream, Severity, SimDate, StreamItem, Weather};
use nazar_device::{DeviceConfig, FleetSim, WindowOutput};
use nazar_log::{Attribute, DriftLog, DriftLogEntry};
use nazar_nn::{BnPatch, MlpResNet, ModelArch};
use nazar_registry::VersionMeta;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const LOCATIONS: usize = 64;
const WINDOWS: usize = 2;
const DIM: usize = 8;
const CLASSES: usize = 4;

fn location_of(device: usize) -> String {
    format!("loc-{:02}", device % LOCATIONS)
}

fn device_id(device: usize) -> String {
    format!("loc-{:02}-dev{:07}", device % LOCATIONS, device)
}

/// Cheap deterministic feature synth — no RNG, so stream construction does
/// not dominate the window pass being measured.
fn features(device: usize, window: usize) -> Vec<f32> {
    (0..DIM)
        .map(|j| ((device.wrapping_mul(31) + j.wrapping_mul(7) + window * 13) % 97) as f32 / 97.0)
        .collect()
}

/// One stream per location holding window `w`'s single item per device.
fn window_streams(devices: usize, w: usize) -> Vec<LocationStream> {
    let (day0, _) = SimDate::window_range(w, WINDOWS);
    let mut streams: Vec<LocationStream> = (0..LOCATIONS)
        .map(|l| LocationStream {
            location: format!("loc-{l:02}"),
            items: Vec::with_capacity(devices.div_ceil(LOCATIONS)),
        })
        .collect();
    for d in 0..devices {
        let weather = if d % 5 == 0 {
            Weather::Snow
        } else {
            Weather::Clear
        };
        streams[d % LOCATIONS].items.push(StreamItem {
            features: features(d, w),
            label: d % CLASSES,
            date: SimDate::new(day0),
            location: location_of(d),
            device_id: device_id(d),
            weather,
            true_cause: weather.corruption(),
            severity: if weather.is_drifting() {
                Severity::DEFAULT
            } else {
                Severity::NONE
            },
        });
    }
    streams
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Order-sensitive checksum over every part a window produced.
fn checksum(parts: &[(String, WindowOutput)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (id, part) in parts {
        fnv(&mut h, id.as_bytes());
        fnv(&mut h, &(part.entries.len() as u64).to_le_bytes());
        fnv(&mut h, &(part.stats.correct as u64).to_le_bytes());
        fnv(&mut h, &(part.stats.flagged as u64).to_le_bytes());
        for e in &part.entries {
            fnv(&mut h, &e.timestamp.to_le_bytes());
            fnv(&mut h, &[u8::from(e.drift)]);
        }
    }
    h
}

fn main() {
    let _obs = nazar_bench::ObsRun::start("fleet_million");
    let devices: usize = std::env::var("NAZAR_FLEET_DEVICES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1_000_000);

    let mut rng = SmallRng::seed_from_u64(17);
    let model = MlpResNet::new(ModelArch::tiny(DIM, CLASSES), &mut rng);
    let config = DeviceConfig {
        // Uploads clone raw features; at a million devices the interesting
        // load is the window pass and the drift log, not sample shipping.
        sample_rate: 0.0,
        ..DeviceConfig::default()
    };

    let t0 = Instant::now();
    let mut fleet = FleetSim::new(
        (0..devices).map(|d| (device_id(d), location_of(d))),
        &model,
        &config,
    );
    eprintln!(
        "built {} devices in {:.2}s",
        fleet.len(),
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(fleet.len(), devices, "fleet must hold every device");

    let donor_patch = {
        let mut donor = MlpResNet::new(
            ModelArch::tiny(DIM, CLASSES),
            &mut SmallRng::seed_from_u64(5),
        );
        BnPatch::extract(&mut donor)
    };

    let mut log = DriftLog::new(&nazar_device::LOG_SCHEMA);
    let mut process_secs = 0.0f64;
    let mut ingest_secs = 0.0f64;
    let mut rows = 0usize;
    for w in 0..WINDOWS {
        let streams = window_streams(devices, w);
        let mut wrng = SmallRng::seed_from_u64(w as u64);
        let t = Instant::now();
        let parts = fleet.process_window_parts(&streams, w, WINDOWS, &mut wrng);
        process_secs += t.elapsed().as_secs_f64();
        drop(streams);

        let mut stats = nazar_device::WindowStats::default();
        for (_, part) in &parts {
            stats.merge(&part.stats);
        }
        println!(
            "window {w}: total={} flagged={} correct={} checksum={:016x}",
            stats.total,
            stats.flagged,
            stats.correct,
            checksum(&parts)
        );

        let entries: Vec<DriftLogEntry> = parts
            .into_iter()
            .flat_map(|(_, part)| part.entries)
            .collect();
        rows += entries.len();
        let t = Instant::now();
        let report = log.ingest_batch(entries);
        ingest_secs += t.elapsed().as_secs_f64();
        assert_eq!(report.quarantined, 0, "well-formed entries only");

        if w == 0 {
            // One broadcast between the windows: a million pool references
            // to a single arena payload.
            let meta = VersionMeta::new(vec![Attribute::new("weather", "snow")], 2.0);
            fleet.deploy(&meta, &donor_patch);
            println!(
                "deployed 1 version: arena_versions={} max_versions={}",
                fleet.arena_versions(),
                fleet.max_versions()
            );
            assert_eq!(
                fleet.arena_versions(),
                1,
                "broadcast must store one shared payload, not one per device"
            );
        }
    }
    println!("log rows: {}", log.num_rows());
    assert_eq!(log.num_rows(), rows);

    let processed = devices * WINDOWS;
    let devices_per_sec = processed as f64 / process_secs.max(1e-9);
    let ingest_rows_per_sec = rows as f64 / ingest_secs.max(1e-9);
    let rss = nazar_device::peak_rss_bytes().unwrap_or(0);
    eprintln!(
        "processed {processed} device-windows in {process_secs:.2}s \
         ({devices_per_sec:.0} devices/s); ingested {rows} rows in \
         {ingest_secs:.2}s ({ingest_rows_per_sec:.0} rows/s); peak RSS {:.1} MiB",
        rss as f64 / (1024.0 * 1024.0)
    );

    nazar_bench::merge_bench_json(
        &nazar_bench::bench_out("BENCH_fleet.json"),
        |id| id.starts_with("fleet_million/"),
        vec![
            nazar_bench::bench_row("fleet_million/devices", &[("value", devices as f64)]),
            nazar_bench::bench_row(
                "fleet_million/devices_per_sec",
                &[("value", devices_per_sec)],
            ),
            nazar_bench::bench_row(
                "fleet_million/ingest_rows_per_sec",
                &[("value", ingest_rows_per_sec)],
            ),
            nazar_bench::bench_row("fleet_million/peak_rss_bytes", &[("value", rss as f64)]),
        ],
    )
    .expect("write bench JSON");
}
