#include "setup.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/rng.h"
#include "data/balance.h"
#include "data/dataset.h"
#include "simulate/profiles.h"
#include "simulate/signature.h"

namespace perfbench {

namespace {

constexpr uint64_t kTrainCohortSeed = 3;
constexpr uint64_t kTrainSeed = 5;

}  // namespace

camal::Result<std::vector<TrainedAppliance>> TrainAppliances() {
  using camal::simulate::ApplianceType;
  // Five 5-day houses: four to train on, one to validate on.
  std::vector<camal::data::HouseRecord> houses =
      camal::simulate::SimulateDataset(camal::simulate::RefitProfile(), 0.25,
                                       kTrainCohortSeed);
  std::vector<camal::data::HouseRecord> valid_houses = {houses.back()};
  houses.pop_back();

  std::vector<TrainedAppliance> out;
  camal::Rng rng(kTrainSeed);
  for (ApplianceType type : {ApplianceType::kKettle, ApplianceType::kDishwasher}) {
    const camal::data::ApplianceSpec spec = camal::simulate::SpecFor(type);
    camal::data::BuildOptions build;
    build.window_length = kWindow;
    auto train = camal::data::BuildWindowDataset(houses, spec, build);
    if (!train.ok()) return train.status();
    auto valid = camal::data::BuildWindowDataset(valid_houses, spec, build);
    if (!valid.ok()) return valid.status();
    if (!camal::data::IsBalanceable(train.value())) {
      return camal::Status::FailedPrecondition(
          spec.name + ": weak labels are single-class");
    }
    camal::core::EnsembleConfig config;
    config.kernel_sizes = {5, 9, 15};
    config.trials_per_kernel = 1;
    config.ensemble_size = 3;
    config.base_filters = 16;
    config.train.max_epochs = 5;
    auto ensemble = camal::core::CamalEnsemble::Train(
        camal::data::BalanceByWeakLabel(train.value(), &rng), valid.value(),
        config, kTrainSeed);
    if (!ensemble.ok()) return ensemble.status();

    TrainedAppliance appliance;
    appliance.spec = spec;
    appliance.ensemble = std::make_unique<camal::core::CamalEnsemble>(
        std::move(ensemble).value());
    appliance.runner.stream.window_length = kWindow;
    appliance.runner.stream.stride = kStride;
    appliance.runner.stream.batch_size = kBatch;
    appliance.runner.appliance_avg_power_w = spec.avg_power_w;
    out.push_back(std::move(appliance));
  }
  return out;
}

camal::Result<std::vector<camal::data::ColumnStore>> WriteAndOpenStores(
    const std::vector<camal::data::HouseRecord>& houses,
    const std::string& dir) {
  camal::Status made = MakeDirs(dir);
  if (!made.ok()) return made;
  std::vector<camal::data::ColumnStore> stores;
  stores.reserve(houses.size());
  for (size_t h = 0; h < houses.size(); ++h) {
    const std::string path = dir + "/house_" + std::to_string(h) + ".cstore";
    camal::Status written = camal::data::WriteColumnStore(houses[h], path);
    if (!written.ok()) return written;
    auto store = camal::data::ColumnStore::Open(path);
    if (!store.ok()) return store.status();
    stores.push_back(std::move(store).value());
  }
  return stores;
}

camal::Result<std::unique_ptr<camal::serve::Service>> StartService(
    std::vector<TrainedAppliance>* appliances) {
  camal::serve::ServiceOptions options;
  options.workers = kWorkers;
  options.queue_capacity = 0;
  auto service = std::make_unique<camal::serve::Service>(options);
  for (TrainedAppliance& a : *appliances) {
    camal::Status st =
        service->RegisterAppliance(a.spec.name, a.ensemble.get(), a.runner);
    if (!st.ok()) return st;
  }
  camal::Status started = service->Start();
  if (!started.ok()) return started;
  return service;
}

camal::Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return camal::Status::IoError("mkdir " + dir + ": " + ec.message());
  return camal::Status::OK();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
