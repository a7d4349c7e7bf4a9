// Summary statistics and outcome accounting of the benchmark.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "serve/batch_runner.h"

namespace perfbench {

/// A percentile together with the number of samples it was taken from,
/// so a reader can tell how many samples lie beyond it.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of \p values; {0, 0} when
/// empty. Exact, not bucketed.
Percentile PercentileOf(std::vector<double> values, double p);

/// Median of \p values (0 when empty).
double Median(std::vector<double> values);

/// Attempted and failed operations of one run. Every non-OK future is a
/// failure, and so is every response that disagrees with its reference
/// scan; failed_frac() divides by everything attempted.
class OutcomeTally {
 public:
  /// Counts one operation; returns whether its future held a value.
  bool Record(const camal::Result<camal::serve::ScanResult>& result);
  /// Counts one operation that has no ScanResult (e.g. a restore).
  void Record(const camal::Status& status);
  /// Counts a mismatch found by an output check of an already-recorded
  /// operation.
  void RecordMismatch() { ++failed_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// True when \p a and \p b carry bit-identical detection, status and power
/// series and the same full-scan window count.
bool SameScanOutput(const camal::serve::ScanResult& a,
                    const camal::serve::ScanResult& b);

/// Peak resident set size of this process in MiB, 0 if unknown.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
