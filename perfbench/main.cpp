// perfbench: one measured run of one workload, printed as one JSON line.
//
//   perfbench --workload NAME --seed N [--trace]
//   perfbench --reference --workload NAME --seed N
//
// run.py starts one of these per measured run, each in a fresh process,
// and pools their lines into the benchmark's metrics. --reference prints
// the seed's reference surface instead (see reference_surface()).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

// PERFBENCH_BUILD_TYPE and PERFBENCH_COMPILER come from CMakeLists.txt.
namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string numbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += number(v[i]);
  }
  return out + "]";
}

std::string surface_json(const perfbench::Surface& s) {
  std::string out = "{\"window_predicted\":[";
  for (std::size_t i = 0; i < s.window_predicted.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(s.window_predicted[i]);
  }
  out += "],\"average_accuracy\":" + number(s.average_accuracy);
  // Digests go out as strings: JSON readers may hold numbers as doubles.
  out += ",\"row_digest\":\"" + std::to_string(s.row_digest) + "\"";
  out += ",\"verdict_digest\":\"" + std::to_string(s.verdict_digest) + "\"";
  out += ",\"action_digest\":\"" + std::to_string(s.action_digest) + "\"";
  out += std::string{",\"conservation_ok\":"} + (s.conservation_ok ? "true" : "false");
  out += ",\"windows\":" + std::to_string(s.windows) + "}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload testbed-kmeans|testbed-cnn|fleet-ids --seed N\n"
               "                 [--trace] [--reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunRequest req;
  bool have_workload = false;
  bool reference_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      have_workload = perfbench::parse_workload(argv[++i], req.workload);
      if (!have_workload) return usage();
    } else if (arg == "--seed" && has_value) {
      req.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      req.trace = true;
    } else if (arg == "--reference") {
      reference_only = true;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  if (reference_only) {
    std::printf("{\"reference\":%s}\n",
                surface_json(perfbench::reference_surface(req.workload, req.seed)).c_str());
    return 0;
  }

  const perfbench::RunResult r = perfbench::run_workload(req);
  std::string out = "{\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"compiler\":\"" PERFBENCH_COMPILER
                    "\"";
  out += ",\"setup_s\":" + numbers(r.setup_s);
  out += ",\"run_wall_s\":" + number(r.run_wall_s);
  out += ",\"run_cpu_s\":" + number(r.run_cpu_s);
  out += ",\"packets\":" + std::to_string(r.packets);
  out += ",\"close_ns\":" + numbers(r.close_ns);
  out += ",\"peak_rss_mb\":" + number(r.peak_rss_mb);
  out += ",\"surface\":" + surface_json(r.surface);
  out += ",\"layers\":{";
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + r.layers[i].first + "\":" + number(r.layers[i].second);
  }
  std::printf("%s}}\n", out.c_str());
  return 0;
}
