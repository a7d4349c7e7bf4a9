// The three workloads of the benchmark and the report they produce.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/column_store.h"
#include "serve/service.h"
#include "setup.h"
#include "stats.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for stores, checkpoints and traces.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. The last line of the benchmark's output is
/// built from `correct`, the tally and one of the two metric lists.
struct RunReport {
  bool correct = true;
  OutcomeTally tally;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (sample counts,
  /// rates, check outcomes).
  std::vector<std::string> notes;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Sets up (several times, timing each), runs the measured phase of
/// \p config.workload, checks a seeded sample of outputs against direct
/// sequential scans, and — when config.trace — runs the per-layer
/// breakdown and writes the Chrome trace. Returns a non-OK Status only
/// when the run could not execute at all.
camal::Result<RunReport> RunWorkload(const RunConfig& config);

/// One set-up of a workload: trained ensembles, the served cohort mapped
/// from column stores, a started Service and (session_stream) the live
/// sessions.
struct Deployment {
  std::vector<TrainedAppliance> appliances;
  std::vector<camal::data::ColumnStore> stores;  ///< one per household.
  std::unique_ptr<camal::serve::Service> service;
  std::vector<std::shared_ptr<camal::serve::Session>> sessions;
  /// Readings each session was seeded with.
  int64_t history = 0;
  std::string dir;  ///< work directory of this set-up.
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
