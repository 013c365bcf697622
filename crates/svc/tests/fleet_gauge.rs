//! `aoft_fleet_cubes` is one process-wide gauge, so this is a test binary
//! of its own: no other fleet may start or stop while it reads the gauge.

use aoft_net::InProc;
use aoft_svc::{FleetConfig, FleetRouter, SvcConfig};

#[test]
fn two_fleets_in_one_process_each_count_their_own_cubes() {
    let gauge = || aoft_obs::global().fleet_cubes.get();
    let start = |config: FleetConfig| {
        FleetRouter::start(config, |_| Ok(InProc::new())).expect("fleet starts")
    };
    let a = start(FleetConfig::new(SvcConfig::new(1), 2));
    let b = start(FleetConfig::new(SvcConfig::new(1), 1).spares(1));
    assert_eq!(gauge(), 4);
    a.shutdown();
    assert_eq!(
        gauge(),
        2,
        "shutting one fleet down leaves the other's cubes"
    );
    b.shutdown();
    assert_eq!(gauge(), 0);
}
