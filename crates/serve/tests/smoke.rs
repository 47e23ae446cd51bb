//! The CI serve-smoke script: boot a real server, run a scripted
//! client session covering the whole verb surface, then a concurrent
//! burst that must coalesce (and, at window 0, must not), and shut down
//! cleanly via the protocol.

use std::sync::Arc;
use std::time::Duration;

use f1_components::{Catalog, CatalogStore};
use f1_serve::protocol::Client;
use f1_serve::{SchedulerConfig, SchedulerStats, ServeConfig, Server};
use f1_skyline::plan::QueryPlan;
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::Watts;

fn plan(cap: f64) -> QueryPlan {
    QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .constraint(Constraint::MaxTotalTdp(Watts::new(cap)))
        .build()
        .expect("plan builds")
}

#[test]
fn scripted_session_end_to_end() {
    let store = Arc::new(CatalogStore::from_shared(Arc::new(Catalog::paper())));
    let session = Arc::new(Session::over(Arc::clone(&store)));
    let server = Server::start(
        session,
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");

    // 1. Liveness.
    let (ok, body) = c.request("ping").expect("ping");
    assert!(ok && body.contains("\"pong\": true"));

    // 2. Cold query computes, repeat is a bit-identical cache hit.
    let key = plan(20.0).key().to_owned();
    let (ok, cold) = c.request(&format!("query {key}")).expect("cold query");
    assert!(ok && cold.contains("\"cached\": false") && cold.contains("\"epoch\": 0"));
    let (ok, warm) = c.request(&format!("query {key}")).expect("warm query");
    assert!(ok && warm.contains("\"cached\": true"));
    assert_eq!(warm.replace("\"cached\": true", "\"cached\": false"), cold);

    // 3. Compact top-k shape.
    let (ok, top) = c.request(&format!("top 5 {key}")).expect("top");
    assert!(ok && top.contains("\"top\": [") && top.contains("\"values\": ["));

    // 4. Delta publishes a new epoch; re-query answers there.
    let (ok, body) = c
        .request(r#"delta {"throughput": [{"compute": "Nvidia TX2", "algorithm": "DroNet", "hz": 30.0}]}"#)
        .expect("delta");
    assert!(ok && body.contains("\"epoch\": 1"), "{body}");
    let (ok, fresh) = c.request(&format!("query {key}")).expect("re-query");
    assert!(ok && fresh.contains("\"epoch\": 1"), "{fresh}");

    // 5. Stats reflect the session: one fast-path hit, admissions, the
    //    applied delta.
    let (ok, stats) = c.request("stats").expect("stats");
    assert!(ok, "{stats}");
    assert!(stats.contains("\"epoch\": 1"), "{stats}");
    assert!(stats.contains("\"deltas_applied\": 1"), "{stats}");
    // The warm query and the top-k were fast-path hits; the post-delta
    // re-query may also have hit if background repair won the race.
    let numeric = server.scheduler().stats();
    assert!(numeric.fast_path_hits >= 2, "{numeric:?}");
    assert!(numeric.admitted >= 1, "{numeric:?}");

    // 6. Clean protocol-driven shutdown.
    let (ok, body) = c.request("shutdown").expect("shutdown");
    assert!(ok && body.contains("\"shutting_down\": true"));
    server.join();
    assert!(server.is_shutting_down());
}

/// Fires 8 same-signature cold plans (different TDP caps) from 8
/// simultaneous clients at a server with the given batch window and
/// returns the scheduler's counters once every answer is in.
fn cold_burst_stats(window: Duration) -> SchedulerStats {
    let store = Arc::new(CatalogStore::from_shared(Arc::new(Catalog::paper())));
    let session = Arc::new(Session::over(store));
    let server = Server::start(
        session,
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            scheduler: SchedulerConfig {
                window,
                queue_capacity: 256,
                max_batch: 64,
                executors: 2,
            },
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout");
                let key = plan(15.0 + i as f64).key().to_owned();
                let (ok, body) = c.request(&format!("top 3 {key}")).expect("response");
                assert!(ok, "{body}");
                body
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let stats = server.scheduler().stats();
    server.shutdown();
    stats
}

#[test]
fn concurrent_cold_burst_coalesces_into_shared_batches() {
    let stats = cold_burst_stats(Duration::from_millis(50));
    assert_eq!(stats.admitted, 8);
    assert_eq!(stats.batched_requests, 8);
    assert!(
        stats.batches < 8,
        "a 50 ms window must coalesce an 8-query burst: {stats:?}"
    );
    assert!(stats.coalesced >= 2, "{stats:?}");
}

#[test]
fn concurrent_cold_burst_at_window_zero_runs_one_batch_per_query() {
    // The serial baseline of the burst above: with no window, every
    // admitted miss is its own pass.
    let stats = cold_burst_stats(Duration::ZERO);
    assert_eq!(stats.admitted, 8);
    assert_eq!(stats.batches, stats.admitted, "{stats:?}");
    assert_eq!(stats.coalesced, 0, "{stats:?}");
}
