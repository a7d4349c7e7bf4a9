// Seeded inputs of the benchmark: the served household cohort and the
// open-loop arrival schedules. Everything here is a pure function of its
// seed, so two runs with one seed offer the program identical inputs.
#ifndef PERFBENCH_COHORT_H_
#define PERFBENCH_COHORT_H_

#include <cstdint>
#include <vector>

#include "data/time_series.h"

namespace perfbench {

/// REFIT-like 1-minute households (the profile the ensembles are trained
/// on): `households` houses of `days` days, each owning a dishwasher,
/// washing machine, microwave and kettle, with per-house base-load and
/// usage-rate variation and 1.5% missing readings.
std::vector<camal::data::HouseRecord> SimulateCohort(uint64_t seed,
                                                     int households,
                                                     double days);

/// One phase of an open-loop schedule: Poisson arrivals at `rate` per
/// second for `seconds`. A rate of 0 is a quiet gap.
struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  int kind = 0;  ///< caller's label, copied to each arrival.
};

/// One intended arrival of an open-loop schedule.
struct Arrival {
  double at = 0.0;  ///< seconds from the schedule start.
  int kind = 0;     ///< Phase::kind of the phase it falls in.
  int64_t phase = 0;  ///< index of that phase in the schedule.
};

/// Poisson arrivals over consecutive phases, in time order. Each phase
/// restarts its arrival process at its own start, so a phase's arrivals
/// do not depend on the rates of the phases before it.
std::vector<Arrival> PoissonSchedule(uint64_t seed,
                                     const std::vector<Phase>& phases);

}  // namespace perfbench

#endif  // PERFBENCH_COHORT_H_
