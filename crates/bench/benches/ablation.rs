//! Criterion bench: ablations over the design choices DESIGN.md calls out —
//! the master scheduler's quantum length and growth parameter γ, measured by
//! how quickly a saturated high-priority level is granted cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rp_icilk::master::{rebalance, MasterConfig};
use rp_icilk::pool::{PoolKind, SharedState, Task};
use rp_icilk::priority::PrioritySet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Number of rebalance rounds until a fully-busy top level is granted all
/// cores, for a given master configuration.
fn rounds_until_saturated(config: &MasterConfig, workers: usize) -> usize {
    let shared = SharedState::new(PrioritySet::numeric(3), workers, PoolKind::Prioritized);
    // The top level has a deep backlog (never run)...
    for _ in 0..64 {
        shared.push_task(Task {
            run: Box::new(|| {}),
            level: 2,
            enqueued_at: Instant::now(),
            trace: None,
        });
    }
    for round in 1..=64 {
        // ...and is always fully busy on whatever it was allotted.
        let allot = shared.levels[2].allotment.load(Ordering::Relaxed).max(1) as u64;
        shared.record_busy(2, allot * config.quantum.as_nanos() as u64);
        rebalance(&shared, config);
        if shared.levels[2].allotment.load(Ordering::Relaxed) >= workers {
            return round;
        }
    }
    64
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    for growth in [1.5f64, 2.0, 4.0] {
        let config = MasterConfig {
            growth,
            ..MasterConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("rebalance", format!("gamma-{growth}")),
            &config,
            |b, cfg| b.iter(|| rounds_until_saturated(cfg, 16)),
        );
    }
    for quantum_us in [100u64, 500, 2_000] {
        let config = MasterConfig {
            quantum: Duration::from_micros(quantum_us),
            ..MasterConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("rebalance", format!("quantum-{quantum_us}us")),
            &config,
            |b, cfg| b.iter(|| rounds_until_saturated(cfg, 16)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
