#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "core/pipeline.hpp"
#include "core/shard_ids.hpp"
#include "core/shard_workload.hpp"
#include "features/extractor.hpp"
#include "ml/cnn.hpp"
#include "ml/kmeans.hpp"
#include "timed_classifier.hpp"

namespace perfbench {

namespace core = ddoshield::core;
namespace ml = ddoshield::ml;
using ddoshield::util::SimTime;

namespace {

// --- workload shapes ----------------------------------------------------------

// Simulated length of the measured testbed run. K-Means screens a second
// of traffic in a few milliseconds, so its run is 600 one-second windows:
// the window-size mix (and with it close_p50) averages over some forty
// attack bursts instead of tracking one seed's bursts, and the run (about
// 2.5 s) outweighs the 2 s set-up every measured process repeats. The CNN
// screens about 40k rows/s; its run is the first 100 s of the same stream,
// which keeps one run (and the reference's offline scoring) near 5 s.
SimTime testbed_duration(Workload w) {
  return w == Workload::kTestbedCnn ? SimTime::seconds(100) : SimTime::seconds(600);
}

// Training epochs of the benchmark's CNN. The paper's Cnn1D fits four, some
// 16 s of set-up in every measured process; one epoch runs the same kernels
// (about 4 s) and scores within a point of the four-epoch model's accuracy
// on the detection runs.
constexpr std::size_t kCnnEpochs = 1;

// The served model is fitted on the canonical training capture, the same
// for every seed: like the paper's model file, it is trained once and then
// faces varying traffic. A per-seed capture would also change the model's
// size (K-Means prunes clusters by the data), so its serving cost, set-up
// time and memory would vary with the seed rather than with the code.
constexpr std::uint64_t kTrainingSeed = 1;

// The detection scenario (bursty SYN/ACK/UDP cycle with quiet gaps),
// stretched to the run length with the same burst pattern throughout.
core::Scenario detection_run_scenario(Workload w, std::uint64_t seed) {
  core::Scenario s = core::detection_scenario(seed);
  s.duration = testbed_duration(w);
  s.attacks.clear();
  core::schedule_attack_cycle(
      s, SimTime::seconds(12), s.duration, SimTime::seconds(6), SimTime::seconds(8),
      {ddoshield::botnet::AttackType::kSynFlood, ddoshield::botnet::AttackType::kAckFlood,
       ddoshield::botnet::AttackType::kUdpFlood},
      120.0);
  return s;
}

constexpr SimTime kFleetDuration = SimTime::millis(3550);
constexpr SimTime kFleetDrain = SimTime::millis(150);
// The fleet set-up takes tens of milliseconds, and the first two or three
// in a process pay first-touch page faults; the median of nine sits past
// that warm-up.
constexpr std::size_t kFleetSetupReps = 9;

core::ShardWorkloadConfig fleet_config(std::uint64_t seed) {
  core::ShardWorkloadConfig cfg;
  cfg.device_count = 10000;
  cfg.cluster_count = 64;
  cfg.shard_count = 4;
  cfg.seed = seed;
  cfg.duration = kFleetDuration;
  cfg.drain_margin = kFleetDrain;
  cfg.flood_device_count = 500;
  cfg.flood_pps = 400.0;
  cfg.ids_enabled = true;
  cfg.ids.window = SimTime::millis(100);
  // Flood devices send ~40 rows per window; the default floor (64) would
  // keep the mitigation ladder from ever engaging.
  cfg.ids.mitigation_config.min_packets = 16;
  return cfg;
}

// The fleet's set-up, timed from outside: the same fleet built, armed and
// torn down with no traffic and 1 ms of simulated time (senders stop 1 ns
// in), so barrier waits barely enter it.
core::ShardWorkloadConfig fleet_setup_config(std::uint64_t seed) {
  core::ShardWorkloadConfig cfg = fleet_config(seed);
  cfg.drain_margin = SimTime::millis(1);
  cfg.duration = cfg.drain_margin + SimTime::nanos(1);
  return cfg;
}

// --- outside-in measurement ---------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

// VmHWM from /proc (the kernel's resident high-water mark), falling back
// to getrusage's ru_maxrss where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// "last=" or "peak=" of one series line in TelemetryCollector::health_report.
double health_value(const std::string& report, const std::string& series, const char* key) {
  std::size_t at = report.find("  " + series + " ");
  if (at == std::string::npos) return 0.0;
  const std::size_t eol = report.find('\n', at);
  const std::size_t k = report.find(key, at);
  if (k == std::string::npos || k > eol) return 0.0;
  return std::strtod(report.c_str() + k + std::strlen(key), nullptr);
}

// --- testbed workloads --------------------------------------------------------

std::unique_ptr<ml::Classifier> make_model(Workload w) {
  if (w == Workload::kTestbedCnn) {
    ml::CnnConfig config;
    config.epochs = kCnnEpochs;
    return std::make_unique<ml::Cnn1D>(config);
  }
  return std::make_unique<ml::KMeansDetector>();
}

// One set-up: training capture, features, model fit, detection testbed
// deployed with the IDS serving the model (through `timed` when traced).
struct TestbedSetup {
  std::unique_ptr<ml::Classifier> model;
  std::unique_ptr<TimedClassifier> timed;
  std::unique_ptr<core::Testbed> testbed;
  ddoshield::ids::RealTimeIds* ids = nullptr;
  double generation_s = 0.0;
  double extract_s = 0.0;
  double fit_s = 0.0;
  double deploy_s = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<TestbedSetup> testbed_setup(Workload w, std::uint64_t seed, bool trace) {
  auto s = std::make_unique<TestbedSetup>();
  const auto t0 = Clock::now();

  auto t = Clock::now();
  const core::GenerationResult generation =
      core::run_generation(core::training_scenario(kTrainingSeed));
  s->generation_s = seconds_since(t);

  t = Clock::now();
  const ddoshield::features::FeatureMatrix fm =
      ddoshield::features::extract_features(generation.dataset);
  s->extract_s = seconds_since(t);

  ml::DesignMatrix x;
  std::vector<int> y;
  core::to_design_matrix(fm, x, y);
  s->model = make_model(w);
  t = Clock::now();
  s->model->fit(x, y);
  s->fit_s = seconds_since(t);

  const ml::Classifier* served = s->model.get();
  if (trace) {
    s->timed = std::make_unique<TimedClassifier>(*s->model);
    served = s->timed.get();
  }
  t = Clock::now();
  s->testbed = std::make_unique<core::Testbed>(detection_run_scenario(w, seed));
  s->testbed->deploy();
  s->ids = &s->testbed->deploy_ids(*served);
  s->deploy_s = seconds_since(t);

  s->total_s = seconds_since(t0);
  return s;
}

RunResult run_testbed(const RunRequest& req) {
  RunResult r;
  const std::unique_ptr<TestbedSetup> setup = testbed_setup(req.workload, req.seed, req.trace);
  r.setup_s.push_back(setup->total_s);
  core::Testbed& tb = *setup->testbed;
  ddoshield::net::Simulator& sim = tb.network().simulator();

  const std::uint64_t events0 = sim.events_executed();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  tb.run();
  r.run_wall_s = seconds_since(t0);
  r.run_cpu_s = process_cpu_s() - cpu0;
  r.peak_rss_mb = peak_rss_mb();

  const ddoshield::ids::IdsSummary summary = setup->ids->summarize();
  r.packets = summary.packets;
  double feature_s = 0.0;
  double close_s = 0.0;
  for (const auto& w : setup->ids->reports()) {
    const auto close = static_cast<double>(w.cpu_feature_ns + w.cpu_inference_ns);
    r.close_ns.push_back(close);
    close_s += close * 1e-9;
    feature_s += static_cast<double>(w.cpu_feature_ns) * 1e-9;
    r.surface.window_predicted.push_back(w.predicted_malicious);
  }
  r.surface.average_accuracy = summary.average_accuracy;
  r.surface.windows = summary.windows;

  if (req.trace) {
    const double score_s = static_cast<double>(setup->timed->score_ns()) * 1e-9;
    const auto rows = static_cast<double>(setup->timed->score_rows());
    const auto events = static_cast<double>(sim.events_executed() - events0);
    const double net_self_s = r.run_wall_s - close_s;
    const auto pool = sim.packet_pool().stats();
    const double wall_s = setup->total_s + r.run_wall_s;
    const double spans = setup->generation_s + setup->extract_s + setup->fit_s +
                         setup->deploy_s + r.run_wall_s;
    r.layers = {
        {"core.generation_s", setup->generation_s},
        {"features.extract_s", setup->extract_s},
        {"ml.fit_s", setup->fit_s},
        {"core.deploy_s", setup->deploy_s},
        {"ml.score_s", score_s},
        {"ml.score_rows", rows},
        {"ml.score_ns_per_row", rows > 0 ? score_s * 1e9 / rows : 0.0},
        {"ids.feature_s", feature_s},
        {"ids.close_self_s", close_s - score_s},
        {"net.run_self_s", net_self_s},
        {"net.events", events},
        {"net.ns_per_event", events > 0 ? net_self_s * 1e9 / events : 0.0},
        {"net.queue_high_water", static_cast<double>(sim.queue_high_water())},
        {"net.pool_allocated_packets", static_cast<double>(pool.allocated_packets)},
        {"net.pool_outstanding_high_water", static_cast<double>(pool.outstanding_high_water)},
        // One event loop: no barriers, no channels, perfectly balanced.
        {"core.shard.barrier_stall_s", 0.0},
        {"core.shard.load_imbalance", 1.0},
        {"core.shard.channel_shipped", 0.0},
        {"core.shard.channel_overflowed", 0.0},
        {"capture.packets", static_cast<double>(tb.tap().packets_captured())},
        {"apps.benign_completions", static_cast<double>(tb.benign_completions())},
        {"apps.benign_failures", static_cast<double>(tb.benign_failures())},
        {"botnet.infected_devices", static_cast<double>(tb.infected_devices())},
        {"mitigate.acl_dropped", 0.0},
        {"mitigate.ratelimit_dropped", 0.0},
        {"ledger.wall_s", wall_s},
        {"ledger.unattributed_s", wall_s - spans},
    };
  }
  return r;
}

Surface testbed_reference(Workload w, std::uint64_t seed) {
  const core::GenerationResult generation =
      core::run_generation(core::training_scenario(kTrainingSeed));
  ml::DesignMatrix x;
  std::vector<int> y;
  core::to_design_matrix(ddoshield::features::extract_features(generation.dataset), x, y);
  const std::unique_ptr<ml::Classifier> model = make_model(w);
  model->fit(x, y);

  // The detection run recorded by the tap, re-extracted offline by the
  // training-side FeatureAggregator and scored window by window.
  core::Testbed tb{detection_run_scenario(w, seed)};
  tb.deploy();
  tb.record_dataset();
  tb.run();

  Surface s;
  double accuracy_sum = 0.0;
  ddoshield::features::FeatureAggregator agg;
  agg.set_on_window([&](const ddoshield::features::WindowOutput& out) {
    ml::DesignMatrix wx{ddoshield::features::kFeatureCount};
    for (const auto& row : out.rows) wx.add_row(row);
    ml::Verdicts verdicts;
    model->score_batch(wx, verdicts);
    std::uint64_t predicted = 0;
    std::uint64_t right = 0;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      predicted += static_cast<std::uint64_t>(verdicts[i] == 1);
      right += static_cast<std::uint64_t>(verdicts[i] == out.labels[i]);
    }
    s.window_predicted.push_back(predicted);
    accuracy_sum += static_cast<double>(right) / static_cast<double>(out.rows.size());
  });
  for (const auto& record : tb.dataset().records()) agg.add(record);
  agg.flush();
  s.windows = s.window_predicted.size();
  s.average_accuracy = s.windows > 0 ? accuracy_sum / static_cast<double>(s.windows) : 0.0;
  return s;
}

// --- fleet workload -----------------------------------------------------------

Surface fleet_surface(const core::ShardWorkloadResult& w) {
  Surface s;
  s.row_digest = w.ids_row_digest;
  s.verdict_digest = w.ids_verdict_digest;
  s.action_digest = fnv1a(w.ids_action_log);
  s.conservation_ok = w.conservation_ok;
  s.windows = w.ids_windows;
  return s;
}

RunResult run_fleet(const RunRequest& req) {
  RunResult r;
  const auto start = Clock::now();
  std::vector<double> setup_cpu;
  for (std::size_t i = 0; i < kFleetSetupReps; ++i) {
    const double cpu0 = process_cpu_s();
    const auto t = Clock::now();
    core::run_shard_workload(fleet_setup_config(req.seed));
    r.setup_s.push_back(seconds_since(t));
    setup_cpu.push_back(process_cpu_s() - cpu0);
  }
  const double setup_s = median(r.setup_s);

  core::ShardWorkloadConfig cfg = fleet_config(req.seed);
  core::FloodPortDetector oracle{core::kShardFloodPort};
  TimedClassifier timed{oracle};
  if (req.trace) {
    cfg.ids_model = &timed;
    cfg.telemetry = true;
  }
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const core::ShardWorkloadResult w = core::run_shard_workload(cfg);
  const double call_s = seconds_since(t0);
  // The call builds the fleet before its first event; the set-up probe
  // times exactly that build (and the teardown), so it is taken off.
  r.run_wall_s = call_s - setup_s;
  r.run_cpu_s = process_cpu_s() - cpu0 - median(setup_cpu);
  r.peak_rss_mb = peak_rss_mb();
  const double wall_s = seconds_since(start);
  r.packets = w.ids_rows;
  double close_s = 0.0;
  for (const std::int64_t ns : w.ids_close_wall_ns) {
    r.close_ns.push_back(static_cast<double>(ns));
    close_s += static_cast<double>(ns) * 1e-9;
  }
  r.surface = fleet_surface(w);

  if (req.trace) {
    const double score_s = static_cast<double>(timed.score_ns()) * 1e-9;
    const auto rows = static_cast<double>(timed.score_rows());
    const auto events = static_cast<double>(w.events_total);
    const double net_self_s = r.run_wall_s - close_s;
    double spans = call_s;
    for (const double s : r.setup_s) spans += s;
    r.layers = {
        // No training on the fleet: it serves the port oracle.
        {"core.generation_s", 0.0},
        {"features.extract_s", 0.0},
        {"ml.fit_s", 0.0},
        {"core.deploy_s", setup_s},
        {"ml.score_s", score_s},
        {"ml.score_rows", rows},
        {"ml.score_ns_per_row", rows > 0 ? score_s * 1e9 / rows : 0.0},
        // The fleet close reports one wall time; its feature share is not
        // published separately.
        {"ids.feature_s", 0.0},
        {"ids.close_self_s", close_s - score_s},
        {"net.run_self_s", net_self_s},
        {"net.events", events},
        {"net.ns_per_event", events > 0 ? net_self_s * 1e9 / events : 0.0},
        // Per-shard simulators are private to run_shard_workload.
        {"net.queue_high_water", 0.0},
        {"net.pool_allocated_packets", 0.0},
        {"net.pool_outstanding_high_water", 0.0},
        {"core.shard.barrier_stall_s",
         health_value(w.health_report, "shard.barrier_stall_ns", "last=") * 1e-9},
        {"core.shard.load_imbalance",
         health_value(w.health_report, "shard.load_imbalance", "peak=")},
        {"core.shard.channel_shipped", static_cast<double>(w.channel_stats.shipped)},
        {"core.shard.channel_overflowed", static_cast<double>(w.channel_stats.overflowed)},
        {"capture.packets", static_cast<double>(w.ids_rows)},
        {"apps.benign_completions", 0.0},
        {"apps.benign_failures", 0.0},
        {"botnet.infected_devices", 0.0},
        {"mitigate.acl_dropped", static_cast<double>(w.acl_dropped)},
        {"mitigate.ratelimit_dropped", static_cast<double>(w.ratelimit_dropped)},
        {"ledger.wall_s", wall_s},
        {"ledger.unattributed_s", wall_s - spans},
    };
  }
  return r;
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  if (name == "testbed-kmeans") {
    out = Workload::kTestbedKmeans;
  } else if (name == "testbed-cnn") {
    out = Workload::kTestbedCnn;
  } else if (name == "fleet-ids") {
    out = Workload::kFleetIds;
  } else {
    return false;
  }
  return true;
}

RunResult run_workload(const RunRequest& request) {
  return request.workload == Workload::kFleetIds ? run_fleet(request) : run_testbed(request);
}

Surface reference_surface(Workload workload, std::uint64_t seed) {
  if (workload != Workload::kFleetIds) return testbed_reference(workload, seed);
  core::ShardWorkloadConfig cfg = fleet_config(seed);
  cfg.shard_count = 1;
  return fleet_surface(core::run_shard_workload(cfg));
}

}  // namespace perfbench
