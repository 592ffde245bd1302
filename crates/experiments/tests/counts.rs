//! Each simulation is counted exactly once in the counter registry, and
//! every suite sink renders that one count.
//!
//! The registry is process-wide, so these counts are exact only in a
//! process where nothing else simulates. This file is its own test
//! binary and holds a single test; the library's unit tests, which share
//! a binary with the figure harnesses, can only bound the counts from
//! below.

use rf_experiments::bench::SuiteBench;
use rf_experiments::runner::{simulate, RunSpec, SimPool};
use rf_obs::counters::Counter;

#[test]
fn each_simulation_is_counted_once_in_every_sink() {
    // The only test in this binary, so it may own the environment: the
    // global cache is enabled and unbounded, and no store tier answers.
    for var in ["RF_CACHE", "RF_CACHE_CAP", "RF_STORE", "RF_JOBS"] {
        std::env::remove_var(var);
    }

    let mut bench = SuiteBench::start(1_000);
    // A 16-entry queue at width 4 stalls on dq-full routinely.
    let direct = RunSpec::baseline("espresso", 4).dq(16).commits(1_000);
    let report = bench.time("direct", || {
        let stats = simulate(&direct);
        format!("{} {}", stats.committed, stats.cycles)
    });
    let cycles: u64 = report.strip_prefix("1000 ").expect("1000 commits").parse().unwrap();
    // The same point twice through the global cache: one miss that
    // simulates, then one hit that does not.
    let pooled = RunSpec::baseline("ora", 4).commits(2_000);
    for name in ["pooled-miss", "pooled-hit"] {
        let _ = bench.time(name, || {
            format!("{}", SimPool::new(1).run_many(std::slice::from_ref(&pooled))[0].committed)
        });
    }

    let [d, miss, hit] = bench.entries() else { panic!("three harnesses timed") };
    assert_eq!((d.counts[Counter::SimsStarted], d.sims(), d.counts[Counter::SimsFailed]), (1, 1, 0));
    assert_eq!(d.counts[Counter::InstructionsCommitted], 1_000);
    assert_eq!(d.counts[Counter::Cycles], cycles);
    assert!(d.counts[Counter::StallDqFull] > 0, "dq-full stalls not recorded");
    assert_eq!((d.counts[Counter::CacheHits], d.counts[Counter::CacheMisses]), (0, 0));
    assert_eq!((miss.sims(), miss.counts[Counter::InstructionsCommitted]), (1, 2_000));
    assert_eq!((miss.counts[Counter::CacheHits], miss.counts[Counter::CacheMisses]), (0, 1));
    assert_eq!((hit.counts[Counter::SimsStarted], hit.sims()), (0, 0));
    assert_eq!((hit.counts[Counter::CacheHits], hit.counts[Counter::CacheMisses]), (1, 0));

    let record = bench.to_ledger_record(Vec::new());
    let sims: Vec<u64> = record.harnesses.iter().map(|h| h.sims).collect();
    assert_eq!(sims, [1, 1, 0]);
    assert_eq!(record.harnesses[0].committed, 1_000);
    assert_eq!((record.sims, record.committed), (2, 3_000));
    assert_eq!((record.cache_hits, record.cache_misses), (1, 1));

    let json = bench.to_json();
    for key in [
        "\"simulations\": 2,",
        "\"instructions_committed\": 3000,",
        "\"cache_hits\": 1,",
        "\"cache_misses\": 1,",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
