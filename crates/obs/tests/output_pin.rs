//! Pins the registry's two renderings byte for byte: the run report's
//! `metrics` block (`registry().snapshot_json()`) and the telemetry
//! series (`telemetry::series_jsonl()`).
//!
//! The fixed set of series covers a labelled counter family with two
//! series (registered out of order with another family, so the snapshot
//! shows families in first-registration order and series in first-use
//! order), an explicitly volatile counter, a gauge, a `_seconds`
//! histogram (volatile by its suffix) and a stable histogram. The
//! volatile series appear in the report and stay out of the series.
//!
//! The registry is process-wide, so this file holds one test: its own
//! process registers nothing else.

use nazar_obs::{registry, telemetry, testing, Counter, Gauge, Histogram};

static OPS_READ: Counter = Counter::new("nazar_test_pin_ops_total", &[("op", "read")]);
static OPS_WRITE: Counter = Counter::new("nazar_test_pin_ops_total", &[("op", "write")]);
static RETRIES: Counter = Counter::new_volatile("nazar_test_pin_retries_total", &[]);
static LEVEL: Gauge = Gauge::new("nazar_test_pin_level", &[]);
static WAIT: Histogram = Histogram::new(
    "nazar_test_pin_wait_seconds",
    &[("stage", "fim")],
    nazar_obs::DURATION_BUCKETS,
);
static WIDTH: Histogram = Histogram::new("nazar_test_pin_width", &[], nazar_obs::POW2_BUCKETS);

const SNAPSHOT_JSON: &str = concat!(
    r#"[{"name":"nazar_test_pin_ops_total","kind":"counter","labels":{"op":"write"},"value":2},"#,
    r#"{"name":"nazar_test_pin_ops_total","kind":"counter","labels":{"op":"read"},"value":4},"#,
    r#"{"name":"nazar_test_pin_level","kind":"gauge","value":2.5},"#,
    r#"{"name":"nazar_test_pin_retries_total","kind":"counter","value":2},"#,
    r#"{"name":"nazar_test_pin_wait_seconds","kind":"histogram","labels":{"stage":"fim"},"#,
    r#""bounds":[0.000001,0.00001,0.0001,0.00025,0.001,0.0025,0.01,0.025,0.1,0.25,1,2.5,10,60],"#,
    r#""counts":[0,0,0,0,0,0,1,0,0,1,0,0,0,0,1],"sum":90.203,"count":3,"p50":0.175,"p95":60,"p99":60},"#,
    r#"{"name":"nazar_test_pin_width","kind":"histogram","bounds":[1,2,4,8,16,32,64,128,256,512,1024],"#,
    r#""counts":[0,0,1,0,0,0,0,0,0,1,0,0],"sum":303,"count":2,"p50":4,"p95":486.4,"p99":506.88}]"#,
);

const SERIES_JSONL: &str = concat!(
    r#"{"type":"telemetry","seq":0,"t_us":1000000,"trigger":"window_close","metrics":["#,
    r#"{"name":"nazar_test_pin_level","kind":"gauge","value":2.5},"#,
    r#"{"name":"nazar_test_pin_ops_total","labels":{"op":"read"},"kind":"counter","delta":3,"total":3},"#,
    r#"{"name":"nazar_test_pin_ops_total","labels":{"op":"write"},"kind":"counter","delta":2,"total":2},"#,
    r#"{"name":"nazar_test_pin_width","kind":"histogram","delta_count":1,"delta_sum":3,"count":1,"sum":3,"#,
    r#""p50":3,"p95":3.9,"p99":3.98}]}"#,
    "\n",
    r#"{"type":"telemetry","seq":1,"t_us":2000000,"trigger":"window_close","metrics":["#,
    r#"{"name":"nazar_test_pin_ops_total","labels":{"op":"read"},"kind":"counter","delta":1,"total":4},"#,
    r#"{"name":"nazar_test_pin_width","kind":"histogram","delta_count":1,"delta_sum":300,"count":2,"sum":303,"#,
    r#""p50":4,"p95":486.4,"p99":506.88}]}"#,
    "\n",
    r#"{"type":"telemetry_summary","snapshots":2,"retained":2,"evicted":0,"last_t_us":2000000,"totals":["#,
    r#"{"name":"nazar_test_pin_level","kind":"gauge","value":2.5},"#,
    r#"{"name":"nazar_test_pin_ops_total","labels":{"op":"read"},"kind":"counter","total":4},"#,
    r#"{"name":"nazar_test_pin_ops_total","labels":{"op":"write"},"kind":"counter","total":2},"#,
    r#"{"name":"nazar_test_pin_width","kind":"histogram","count":2,"sum":303}]}"#,
    "\n",
);

#[test]
fn snapshot_json_and_series_jsonl_are_pinned() {
    testing::enable_memory_sink();
    telemetry::begin_run();
    OPS_WRITE.inc();
    LEVEL.set(2.5);
    RETRIES.add(2);
    OPS_READ.add(3);
    WAIT.observe(0.003);
    WAIT.observe(0.2);
    WAIT.observe(90.0);
    OPS_WRITE.inc();
    WIDTH.observe(3.0);
    telemetry::snapshot(1_000_000, "window_close");
    OPS_READ.add(1);
    WIDTH.observe(300.0);
    LEVEL.set(2.5);
    telemetry::snapshot(2_000_000, "window_close");

    let json = registry().snapshot_json();
    let series = telemetry::series_jsonl();
    testing::disable();
    assert_eq!(json, SNAPSHOT_JSON);
    assert_eq!(series, SERIES_JSONL);
}
