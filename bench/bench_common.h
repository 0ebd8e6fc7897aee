#ifndef TRANSEDGE_BENCH_BENCH_COMMON_H_
#define TRANSEDGE_BENCH_BENCH_COMMON_H_

// Shared harness for bench_paper's figure and table entries and the
// subsystem benches. Every bench builds a full simulated deployment with
// the paper's §5.1 setup (5 clusters of 3f+1 = 7 replicas, hashed keys,
// YCSB-style transaction mixes), drives it with closed-loop clients, and
// prints a table or a JSON line. All latencies/throughputs are measured
// in simulated time and are fully deterministic for a given seed.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "core/system.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace transedge::bench {

struct BenchSetup {
  core::SystemConfig config;
  sim::EnvironmentOptions env_opts;
  workload::WorkloadOptions workload;

  /// Paper defaults: 5 clusters, f = 2 (7 replicas each), 10 ms batch
  /// cadence, clusters a few ms apart (edge locality), clients
  /// co-located with a home cluster.
  static BenchSetup PaperDefaults(uint64_t seed = 1) {
    BenchSetup setup;
    setup.config.num_partitions = 5;
    setup.config.f = 2;
    // The paper's testbed is a single ChameleonCloud site: clusters sit a
    // LAN hop apart (experiments then *add* latency between clusters —
    // Figures 8, 12, 13). The 2PC/BFT baseline's read latency is
    // dominated by batch waits, matching the paper's ~70-80 ms.
    setup.config.batch_interval = sim::Millis(15);
    setup.config.max_batch_size = 2000;
    setup.config.merkle_depth = 13;
    // Cost-model calibration (see ARCHITECTURE.md §Design notes): the
    // fixed per-batch consensus cost amortizes with batch size while the
    // quadratic term (conflict-index and Merkle churn) grows, aiming at the
    // paper's 2000-2500-transaction sweet spot (Figure 9; not reached yet).
    setup.config.cost.admit_per_txn = sim::Micros(2);
    setup.config.cost.validate_per_txn = sim::Micros(6);
    setup.config.cost.apply_per_txn = sim::Micros(3);
    setup.config.cost.batch_overhead = sim::Millis(10);
    setup.config.cost.batch_quadratic_ns = 3.0;
    setup.config.cost.ro_serve_per_key = sim::Micros(3);
    setup.env_opts.seed = seed;
    setup.env_opts.intra_site_latency = sim::Micros(300);
    setup.env_opts.inter_site_latency = sim::Millis(1);
    setup.env_opts.latency_jitter = sim::Micros(150);
    setup.workload.num_keys = 20000;
    setup.workload.value_size = 32;
    setup.workload.seed = seed;
    return setup;
  }
};

/// One fully wired world: system + key space + plan generator.
///
/// `preload` controls whether the whole key space is installed as
/// initial state. Read-only experiments need it (reads must find
/// authenticated values). Read-write experiments run against the paper's
/// full 1M-key space *without* preloading: OCC semantics are identical
/// (an unwritten key reads as absent at version -1), and it keeps memory
/// and setup time flat. Key spaces and preload states are memoized
/// across the points of a sweep.
struct World {
  core::System::PreloadState empty_preload;
  std::unique_ptr<core::System> system;
  std::shared_ptr<workload::KeySpace> keys;
  std::unique_ptr<workload::PlanGenerator> plans;

  explicit World(const BenchSetup& setup, bool preload = true) {
    system = std::make_unique<core::System>(setup.config, setup.env_opts);
    keys = CachedKeySpace(setup);
    plans = std::make_unique<workload::PlanGenerator>(
        keys.get(), setup.config.num_partitions);
    if (preload) {
      system->Preload(CachedPreload(setup, *keys));
    }
    system->Start();
    // Let every cluster certify its genesis batch before clients start.
    system->env().RunUntil(sim::Millis(15));
  }

 private:
  static std::string CacheKey(const BenchSetup& setup) {
    return std::to_string(setup.config.num_partitions) + "/" +
           std::to_string(setup.config.merkle_depth) + "/" +
           std::to_string(setup.workload.num_keys) + "/" +
           std::to_string(setup.workload.value_size) + "/" +
           std::to_string(setup.workload.seed);
  }

  static std::shared_ptr<workload::KeySpace> CachedKeySpace(
      const BenchSetup& setup) {
    static std::map<std::string, std::shared_ptr<workload::KeySpace>> cache;
    auto& slot = cache[CacheKey(setup)];
    if (slot == nullptr) {
      slot = std::make_shared<workload::KeySpace>(
          setup.workload, setup.config.num_partitions);
    }
    return slot;
  }

  static const core::System::PreloadState& CachedPreload(
      const BenchSetup& setup, const workload::KeySpace& keys) {
    static std::map<std::string,
                    std::unique_ptr<core::System::PreloadState>>
        cache;
    auto& slot = cache[CacheKey(setup)];
    if (slot == nullptr) {
      slot = std::make_unique<core::System::PreloadState>(
          core::System::BuildPreloadState(setup.config.num_partitions,
                                          setup.config.merkle_depth,
                                          keys.InitialData()));
    }
    return *slot;
  }
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// True when TRANSEDGE_SMOKE is set (and not "0"): benches shrink their
/// sweeps/durations and emit machine-readable JSON so bench/run_smoke.sh
/// can seed the BENCH_*.json perf trajectory cheaply.
inline bool SmokeMode() {
  const char* v = std::getenv("TRANSEDGE_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace transedge::bench

#endif  // TRANSEDGE_BENCH_BENCH_COMMON_H_
