// perfbench: the TransEdge benchmark of record.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Repeats one workload (a fresh deployment each time, same seed) until
// `--seconds` of host time have passed. Simulated metrics must come out
// byte-identical in every repetition; host metrics are medians. With
// --trace 1 it alternates untraced and traced repetitions and reports the
// per-layer metrics of the traced one, writing its request spans to
// <out-dir>. The last stdout line is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/stats.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks both directions).
constexpr MetricDef kEndToEnd[] = {
    {"ro_p50_ms", "ms"},       {"ro_p99_ms", "ms"},
    {"ro_slo_pct", "%"},       {"rw_p50_ms", "ms"},
    {"rw_p99_ms", "ms"},       {"write_tps", "txn/s"},
    {"rw_commit_pct", "%"},    {"watch_lag_p99_ms", "ms"},
    {"host_run_s", "s"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayerFixed[] = {
    {"consensus.follower_propose_host_s", "s"},
    {"consensus.follower_propose_share_pct", "%"},
    {"consensus.commit_host_s", "s"},
    {"consensus.vote_host_s", "s"},
    {"consensus.view_change_host_s", "s"},
    {"consensus.msgs_per_batch", "msg/batch"},
    {"consensus.view_changes", "count"},
    {"batch_pipeline.host_s", "s"},
    {"batch_pipeline.txns_per_batch", "txn/batch"},
    {"batch_pipeline.queue_depth_p99", "txn"},
    {"two_pc.host_s", "s"},
    {"two_pc.msgs_per_dist_commit", "msg/txn"},
    {"read_only_service.host_s", "s"},
    {"read_only_service.round2_served", "count"},
    {"read_only_service.round2_parked", "count"},
    {"read_only_service.round2_rejected", "count"},
    {"read_only_service.round2_aborted", "count"},
    {"client.host_s", "s"},
    {"client.ro_two_round_pct", "%"},
    {"client.ro_round1_p50_ms", "ms"},
    {"client.ro_round2_p99_ms", "ms"},
    {"client.third_round_needed", "count"},
    {"client.timeouts", "count"},
    {"client.ro_retries", "count"},
    {"watch_service.host_s", "s"},
    {"watch_service.keys_pushed", "count"},
    {"watch_client.host_s", "s"},
    {"watch_client.resubscribes", "count"},
    {"node.apply_lag_max", "batch"},
    {"storage.wal_syncs", "count"},
    {"storage.wal_bytes_per_batch", "B/batch"},
    {"storage.pages_written", "count"},
    {"storage.checkpoints", "count"},
    {"storage.catchup_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.timer_host_s", "s"},
    {"sim.queue_depth_p99", "count"},
    {"net.filter_host_s", "s"},
    {"net.msgs.intra", "count"},
    {"net.msgs.inter", "count"},
    {"net.msgs.client", "count"},
    {"net.bytes_per_committed_txn", "B/txn"},
    {"trace.host_run_s", "s"},
    {"trace.overhead_s", "s"},
};

constexpr int kMinPlainReps = 3;
constexpr int kMaxReps = 64;
/// Stop starting repetitions past this much host time, whatever
/// --seconds says, so a run always ends well inside its time limit.
constexpr double kHardStopS = 120;

using Clock = std::chrono::steady_clock;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// The simulated outcome of a repetition as text; identical repetitions
/// produce identical strings.
std::string SimulatedFingerprint(const RepResult& r) {
  std::string s = "attempted=" + std::to_string(r.attempted) +
                  " failed=" + std::to_string(r.failed);
  for (const auto& [name, value] : r.sim_metrics) {
    s += " " + name + "=" + Number(value);
  }
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// client.ro_* phase metrics, derived from the request spans.
void SpanMetrics(const RepResult& rep, std::map<std::string, double>* m) {
  std::map<uint64_t, const Span*> round1_of;
  for (const Span& s : rep.spans) {
    if (s.parent != 0) round1_of[s.parent] = &s;
  }
  transedge::workload::LatencyStats round1, round2;
  uint64_t ok = 0, two_round = 0;
  for (const Span& s : rep.spans) {
    if (s.parent != 0 || std::string(s.name) != "ro" || !s.ok || !s.measured) {
      continue;
    }
    ++ok;
    auto it = round1_of.find(s.id);
    if (it == round1_of.end()) continue;
    round1.Record(it->second->end - it->second->start);
    if (s.rounds > 1) {
      ++two_round;
      round2.Record(s.end - it->second->end);
    }
  }
  (*m)["client.ro_two_round_pct"] =
      ok > 0 ? 100.0 * static_cast<double>(two_round) / static_cast<double>(ok)
             : 0;
  (*m)["client.ro_round1_p50_ms"] = round1.P50Ms();
  (*m)["client.ro_round2_p99_ms"] = round2.P99Ms();
}

void WriteSpans(const RepResult& rep, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : rep.spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_us\":" << s.start << ",\"end_us\":" << s.end
        << ",\"rounds\":" << s.rounds << ",\"ok\":" << (s.ok ? "true" : "false")
        << ",\"measured\":" << (s.measured ? "true" : "false") << "}\n";
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench/runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 != 1 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<RepResult> plain, traced;
  double longest = 0;
  auto room_for_another = [&] {
    return elapsed() + longest < kHardStopS &&
           plain.size() + traced.size() < kMaxReps;
  };
  auto run = [&](bool with_trace) {
    const double before = elapsed();
    (with_trace ? traced : plain)
        .push_back(RunRepetition(*spec, args.seed, with_trace));
    longest = std::max(longest, elapsed() - before);
  };
  if (args.trace == 0) {
    do {
      run(false);
    } while ((elapsed() < args.seconds ||
              plain.size() < static_cast<size_t>(kMinPlainReps)) &&
             room_for_another());
  } else {
    do {
      run(false);
      run(true);
    } while (elapsed() < args.seconds && room_for_another());
  }

  // Correctness: the program's own checks in every repetition, plus
  // determinism of every simulated number across repetitions and across
  // tracing.
  const RepResult& first = plain.front();
  std::vector<Check> checks = first.checks;
  const std::string fingerprint = SimulatedFingerprint(first);
  auto all_match = [&](const std::vector<RepResult>& reps) {
    bool same = true;
    for (const RepResult& r : reps) {
      same &= SimulatedFingerprint(r) == fingerprint;
      for (size_t i = 0; i < r.checks.size() && i < first.checks.size(); ++i) {
        checks[i].ok &= r.checks[i].ok;
      }
    }
    return same;
  };
  checks.push_back({"simulated_metrics_identical_across_repetitions",
                    all_match(plain),
                    std::to_string(plain.size()) + " repetitions"});
  if (!traced.empty()) {
    checks.push_back({"traced_run_matches_untraced", all_match(traced),
                      std::to_string(traced.size()) + " traced repetitions"});
  }
  bool correct = true;
  for (const Check& c : checks) correct &= c.ok;

  std::vector<double> run_s, setup_s;
  for (const RepResult& r : plain) {
    run_s.push_back(r.host_run_s);
    setup_s.push_back(r.setup_s);
  }
  for (const RepResult& r : traced) setup_s.push_back(r.setup_s);

  std::map<std::string, double> values;
  if (args.trace == 0) {
    values = first.sim_metrics;
    values["host_run_s"] = Median(run_s);
    values["setup_s"] = Median(setup_s);
    values["peak_rss_mb"] = PeakRssMb();
  } else {
    // The traced repetition with the median host time supplies the
    // per-layer numbers, so its handler times add up to its own run.
    std::vector<size_t> order(traced.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return traced[a].host_run_wall_s < traced[b].host_run_wall_s;
    });
    const RepResult& chosen = traced[order[(order.size() - 1) / 2]];
    values = chosen.layer;
    SpanMetrics(chosen, &values);
    std::vector<double> traced_wall, plain_wall;
    for (const RepResult& r : traced) traced_wall.push_back(r.host_run_wall_s);
    for (const RepResult& r : plain) plain_wall.push_back(r.host_run_wall_s);
    values["trace.overhead_s"] = Median(traced_wall) - Median(plain_wall);
    values["sim.events_per_host_s"] =
        values["sim.events"] / std::max(Median(run_s), 1e-9);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".jsonl";
    WriteSpans(chosen, spans_path);
    std::printf("spans: %zu written to %s\n", chosen.spans.size(),
                spans_path.c_str());
    // The traced repetition's own lines (handler table, catch-up); the
    // lines every repetition shares follow below.
    for (const std::string& line : chosen.report) {
      if (std::find(first.report.begin(), first.report.end(), line) ==
          first.report.end()) {
        std::printf("%s\n", line.c_str());
      }
    }
  }

  std::printf("workload=%s seed=%llu plain_reps=%zu traced_reps=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size());
  std::string host = "host cpu s (setup/run) per repetition:";
  for (const RepResult& r : plain) {
    host += " " + Number(r.setup_s) + "/" + Number(r.host_run_s);
  }
  std::printf("%s\n", host.c_str());
  for (const std::string& line : first.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const Check& c : checks) {
    std::printf("check %-48s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }

  // Emit exactly the catalogued metrics, in catalogue order; the per-type
  // network counters follow the fixed list.
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(first.attempted) +
                     ", \"failed\": " + std::to_string(first.failed) +
                     ", \"metrics\": {";
  bool first_metric = true;
  auto emit = [&](const std::string& name, const char* unit) {
    auto it = values.find(name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not computed\n",
                   name.c_str());
      std::exit(5);
    }
    json += std::string(first_metric ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + Number(it->second) + ", \"unit\": \"" + unit +
            "\"}";
    first_metric = false;
  };
  if (args.trace == 0) {
    for (const MetricDef& d : kEndToEnd) emit(d.name, d.unit);
  } else {
    for (const MetricDef& d : kPerLayerFixed) emit(d.name, d.unit);
    for (const auto& [name, value] : values) {
      if (name.rfind("net.msgs.", 0) == 0 && name != "net.msgs.intra" &&
          name != "net.msgs.inter" && name != "net.msgs.client") {
        emit(name, "count");
        emit("net.bytes." + name.substr(9), "B");
      }
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
