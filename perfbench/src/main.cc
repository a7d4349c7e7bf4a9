// perfbench: the CamAL serving benchmark.
//
//   perfbench --workload <fleet_scan|openloop_short|session_stream>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints human-readable notes, then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer breakdown
// (and a Chrome trace is written under --out). Exits 0 when every output
// check passed, 1 when a check failed, 2 on bad arguments or set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--out") {
      config.out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");

  // Pin the nested conv-GEMM pool to one thread per Service worker: the
  // load generator, the harvester and the workers then fit in 4 cores.
  setenv("CAMAL_THREADS", std::to_string(perfbench::kWorkers).c_str(), 1);

  camal::Result<perfbench::RunReport> result =
      perfbench::RunWorkload(config);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  perfbench::RunReport& report = result.value();
  const auto& metrics = config.trace ? report.per_layer : report.end_to_end;
  std::string json_metrics;
  for (const perfbench::Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      report.correct = false;
      report.notes.push_back("metric " + m.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += JsonString(m.name) + ": {\"value\": " + value +
                    ", \"unit\": " + JsonString(m.unit) + "}";
  }
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : metrics) {
    std::printf("# %-44s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.tally.attempted()),
      static_cast<long long>(report.tally.failed()), json_metrics.c_str());
  return report.correct ? 0 : 1;
}
