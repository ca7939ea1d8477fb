// The benchmark's three workloads, driven through the program's public API.
//
// Every layer is timed from outside, around calls into its public
// functions (run_generation, extract_features, Classifier::fit,
// Testbed::deploy/deploy_ids/run, run_shard_workload); nothing here adds
// instrumentation inside the program. One call to run_workload() is one
// measured run and is meant to run in a fresh process, so the process-wide
// peak RSS and CPU figures belong to that run alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class Workload { kTestbedKmeans, kTestbedCnn, kFleetIds };

/// Parses a workload name ("testbed-kmeans", "testbed-cnn", "fleet-ids").
bool parse_workload(std::string_view name, Workload& out);

struct RunRequest {
  Workload workload = Workload::kTestbedKmeans;
  std::uint64_t seed = 1;
  /// Traced run: serve through TimedClassifier and, on the fleet, switch
  /// the shard-health telemetry on; fills RunResult::layers.
  bool trace = false;
};

/// The correctness surface of one run, compared against the recorded
/// reference for the seed.
struct Surface {
  // testbed-*: per-window predicted-malicious counts and Table I's mean.
  std::vector<std::uint64_t> window_predicted;
  double average_accuracy = 0.0;
  // fleet-ids: the shard-count-invariant detection digests.
  std::uint64_t row_digest = 0;
  std::uint64_t verdict_digest = 0;
  std::uint64_t action_digest = 0;
  bool conservation_ok = false;
  std::uint64_t windows = 0;  // windows scored
};

struct RunResult {
  /// One entry per set-up: the testbed sets up once per run; the fleet
  /// times its cheap set-up nine times.
  std::vector<double> setup_s;
  double run_wall_s = 0.0;          // the measured run (first event to end)
  double run_cpu_s = 0.0;           // process user+sys over the measured run
  std::uint64_t packets = 0;        // captured and screened by the IDS
  std::vector<double> close_ns;     // per-window close-to-verdict latency
  double peak_rss_mb = 0.0;         // process high-water after the run
  Surface surface;
  /// Traced run only: per-layer metrics, in print order.
  std::vector<std::pair<std::string, double>> layers;
};

RunResult run_workload(const RunRequest& request);

/// The reference surface for a seed, computed by an independent path: the
/// testbed capture is recorded, re-extracted offline with the training-side
/// features::FeatureAggregator and scored window by window; the fleet runs
/// on a single shard (its digests are shard-count invariant by contract).
Surface reference_surface(Workload workload, std::uint64_t seed);

}  // namespace perfbench
