// Set-up shared by every workload: trained ensembles, household stores on
// disk, and a started serve::Service over them.
#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ensemble.h"
#include "data/column_store.h"
#include "serve/service.h"

namespace perfbench {

/// Window length, stride and GEMM batch of every scan in the benchmark.
inline constexpr int64_t kWindow = 128;
inline constexpr int64_t kStride = 64;
inline constexpr int64_t kBatch = 32;
/// Request workers of every Service. With the load generator and the
/// harvester thread this fills a 4-core host; the nested conv-GEMM pool
/// is pinned to one thread per worker (CAMAL_THREADS = kWorkers).
inline constexpr int kWorkers = 2;

/// One served appliance: its trained ensemble and scan options.
struct TrainedAppliance {
  camal::data::ApplianceSpec spec;
  std::unique_ptr<camal::core::CamalEnsemble> ensemble;
  camal::serve::BatchRunnerOptions runner;
};

/// Trains the two served appliances — kettle (detected in fewer windows)
/// and dishwasher (in more) — as 3-member, 16-filter, window-128
/// ensembles on a fixed-seed REFIT-like cohort. The training inputs do not
/// depend on the benchmark seed, so every run serves the same models.
camal::Result<std::vector<TrainedAppliance>> TrainAppliances();

/// Writes each house as a column store file dir/house_<i>.cstore and maps
/// it back; stores[i] serves houses[i].
camal::Result<std::vector<camal::data::ColumnStore>> WriteAndOpenStores(
    const std::vector<camal::data::HouseRecord>& houses,
    const std::string& dir);

/// A started Service with every appliance registered: kWorkers workers,
/// an unbounded admission queue (every workload pre-sizes its load, so no
/// request is refused) and the default coalescing budget.
camal::Result<std::unique_ptr<camal::serve::Service>> StartService(
    std::vector<TrainedAppliance>* appliances);

/// Creates \p dir (and parents) if missing.
camal::Status MakeDirs(const std::string& dir);
/// Removes \p dir and everything under it; missing is fine.
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
