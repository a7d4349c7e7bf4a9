#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

Percentile PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::min<int64_t>(std::max<int64_t>(rank, 1), n);
  return {values[static_cast<size_t>(rank - 1)], n};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool OutcomeTally::Record(
    const camal::Result<camal::serve::ScanResult>& result) {
  ++attempted_;
  if (!result.ok()) ++failed_;
  return result.ok();
}

void OutcomeTally::Record(const camal::Status& status) {
  ++attempted_;
  if (!status.ok()) ++failed_;
}

namespace {

bool SameTensor(const camal::nn::Tensor& a, const camal::nn::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.numel()) * sizeof(float)) == 0);
}

}  // namespace

bool SameScanOutput(const camal::serve::ScanResult& a,
                    const camal::serve::ScanResult& b) {
  return a.windows_full == b.windows_full &&
         SameTensor(a.detection, b.detection) &&
         SameTensor(a.status, b.status) && SameTensor(a.power, b.power);
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
