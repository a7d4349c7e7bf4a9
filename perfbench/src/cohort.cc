#include "cohort.h"

#include "common/rng.h"
#include "simulate/household.h"
#include "simulate/signature.h"

namespace perfbench {

std::vector<camal::data::HouseRecord> SimulateCohort(uint64_t seed,
                                                     int households,
                                                     double days) {
  using camal::simulate::ApplianceType;
  camal::Rng rng(seed);
  std::vector<camal::data::HouseRecord> houses;
  houses.reserve(static_cast<size_t>(households));
  for (int h = 0; h < households; ++h) {
    camal::simulate::HouseholdConfig config;
    config.house_id = h + 1;
    config.interval_seconds = 60.0;
    config.days = days;
    config.missing_fraction = 0.015;
    config.base_load.standby_w = rng.Uniform(40.0, 90.0);
    config.base_load.lighting_peak_w = rng.Uniform(120.0, 320.0);
    config.base_load.distractor_rate_per_day = rng.Uniform(3.0, 10.0);
    for (ApplianceType type :
         {ApplianceType::kDishwasher, ApplianceType::kWashingMachine,
          ApplianceType::kMicrowave, ApplianceType::kKettle}) {
      camal::simulate::InstalledAppliance installed;
      installed.type = type;
      installed.activations_per_day =
          camal::simulate::DefaultActivationsPerDay(type) *
          rng.Uniform(0.6, 1.5);
      config.appliances.push_back(installed);
    }
    camal::Rng house_rng = rng.Fork();
    houses.push_back(camal::simulate::SimulateHousehold(config, &house_rng));
  }
  return houses;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed,
                                     const std::vector<Phase>& phases) {
  camal::Rng rng(seed);
  std::vector<Arrival> arrivals;
  double phase_start = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    const double phase_end = phase_start + phase.seconds;
    if (phase.rate > 0.0) {
      double t = phase_start + rng.Exponential(phase.rate);
      while (t < phase_end) {
        arrivals.push_back({t, phase.kind, static_cast<int64_t>(p)});
        t += rng.Exponential(phase.rate);
      }
    }
    phase_start = phase_end;
  }
  return arrivals;
}

}  // namespace perfbench
