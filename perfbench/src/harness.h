#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// One repetition of a benchmark workload: generate the inputs from the
// seed, build a fresh simulated deployment, drive it, measure, and run
// the correctness checks. Everything simulated is a pure function of
// (workload, seed); only the host timings vary between repetitions.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "sim/environment.h"
#include "sim/time.h"

namespace perfbench {

namespace sim = transedge::sim;
namespace core = transedge::core;

/// A named workload: deployment, engines, and traffic. Rates are per
/// simulated second; all traffic comes from event-queue actors.
struct WorkloadSpec {
  std::string name;
  core::SystemConfig config;
  sim::EnvironmentOptions env;

  uint64_t num_keys = 20000;
  bool preload = true;

  // Open-loop Poisson read-only transactions (TransEdge protocol).
  double ro_rate = 0;
  int ro_keys = 5;
  int ro_clusters = 5;

  // Open-loop Poisson read-write transactions.
  double rw_rate = 0;
  int rw_reads = 5;
  int rw_writes = 3;
  int rw_clusters = 5;

  // Open-loop Poisson local write-only transactions (`local_writes` keys
  // on one random cluster): background load that keeps every cluster
  // batching.
  double local_rate = 0;
  int local_writes = 2;

  // Closed-loop local write-only transactions (the saturating writers).
  int saturate_loops = 0;
  int saturate_writes = 3;

  // Hot range on partition 0: `hot_keys` consecutive keys, each written
  // by its own closed-loop single-key writer (exponential think time,
  // 20 ms mean), watched by `watchers`.
  int hot_keys = 16;
  int watchers = 0;

  // Client actors the open-loop traffic is spread over.
  int clients = 25;

  sim::Time warmup = sim::Millis(200);
  sim::Time measure = sim::Seconds(2);
  sim::Time max_drain = sim::Seconds(4);

  // Fault schedule (crash_at 0 = none): at `crash_at` (simulated, from
  // the start of traffic) power fails under partition 0's replica
  // `crash_replica`; it restarts from its disk `restart_after` later.
  sim::Time crash_at = 0;
  sim::Time restart_after = 0;
  uint32_t crash_replica = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// One request span: due time to callback, in simulated microseconds.
/// Read-only roots carry a round-1 child span (`parent` = root id).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span.
  const char* name = "";
  sim::Time start = 0;
  sim::Time end = 0;
  int rounds = 0;
  bool ok = false;
  bool measured = false;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RepResult {
  /// Host CPU seconds spent building the deployment and running it.
  double setup_s = 0;
  double host_run_s = 0;
  /// Wall-clock seconds of the run (the traced breakdown's time base).
  double host_run_wall_s = 0;
  /// Simulated end-to-end metrics (exact for a seed).
  std::map<std::string, double> sim_metrics;
  /// Per-layer metrics (complete only for traced repetitions).
  std::map<std::string, double> layer;
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Span> spans;
  /// Human-readable lines: sample counts and the per-role handler table.
  std::vector<std::string> report;
};

RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
