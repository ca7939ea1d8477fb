// The benchmark's own C++ test: the traced run's timing wrapper must not
// change what the IDS decides. Each workload below runs twice, unwrapped
// and served through TimedClassifier (plus, on the fleet, the shard-health
// telemetry the traced run switches on); the verdict surfaces must match
// exactly, and the wrapper must have seen every screened packet.
//
// testbed-cnn shares the testbed code path with testbed-kmeans and is left
// out to keep the test fast. Exit code 0 = pass.
#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

double layer(const perfbench::RunResult& r, const std::string& name) {
  for (const auto& [n, v] : r.layers)
    if (n == name) return v;
  return -1.0;
}

void wrapped_matches_unwrapped(perfbench::Workload w, const std::string& label) {
  perfbench::RunRequest req;
  req.workload = w;
  req.seed = 5;
  const perfbench::RunResult plain = perfbench::run_workload(req);
  req.trace = true;
  const perfbench::RunResult traced = perfbench::run_workload(req);

  const perfbench::Surface& a = plain.surface;
  const perfbench::Surface& b = traced.surface;
  expect(a.windows > 0, label + ": windows scored");
  expect(a.window_predicted == b.window_predicted && a.average_accuracy == b.average_accuracy,
         label + ": per-window verdict counts and accuracy unchanged by the wrapper");
  expect(a.row_digest == b.row_digest && a.verdict_digest == b.verdict_digest &&
             a.action_digest == b.action_digest && a.conservation_ok == b.conservation_ok,
         label + ": row/verdict/action digests unchanged by the wrapper");
  expect(plain.packets == traced.packets, label + ": same packets screened");
  expect(layer(traced, "ml.score_rows") == static_cast<double>(traced.packets),
         label + ": wrapper scored every screened packet");
  expect(plain.layers.empty() && !traced.layers.empty(), label + ": layers only when traced");
}

}  // namespace

int main() {
  wrapped_matches_unwrapped(perfbench::Workload::kTestbedKmeans, "testbed-kmeans");
  wrapped_matches_unwrapped(perfbench::Workload::kFleetIds, "fleet-ids");
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
