// Unit tests of the benchmark's own pieces: seeded inputs, percentile and
// failure accounting, span self times and the FLOP model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "cohort.h"
#include "layers.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

const std::vector<Phase> kPhases = {
    {500.0, 1.0, 0}, {4000.0, 0.2, 1}, {0.0, 0.5, 2}, {500.0, 1.0, 0}};

TEST(Schedule, SameSeedGivesSameSchedule) {
  const std::vector<Arrival> a = PoissonSchedule(7, kPhases);
  const std::vector<Arrival> b = PoissonSchedule(7, kPhases);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].phase, b[i].phase);
  }
  const std::vector<Arrival> c = PoissonSchedule(8, kPhases);
  EXPECT_FALSE(c.size() == a.size() && c.front().at == a.front().at);
}

TEST(Schedule, ArrivalsStayInsideTheirPhases) {
  const std::vector<Arrival> a = PoissonSchedule(3, kPhases);
  const double starts[] = {0.0, 1.0, 1.2, 1.7, 2.7};
  int64_t per_phase[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) EXPECT_GE(a[i].at, a[i - 1].at);
    const auto p = static_cast<size_t>(a[i].phase);
    ASSERT_LT(p, 4u);
    EXPECT_GE(a[i].at, starts[p]);
    EXPECT_LT(a[i].at, starts[p + 1]);
    EXPECT_EQ(a[i].kind, kPhases[p].kind);
    ++per_phase[p];
  }
  EXPECT_EQ(per_phase[2], 0);  // a rate-0 phase is a quiet gap
  // Poisson counts: mean rate * seconds, well inside 5 sigma.
  EXPECT_NEAR(per_phase[1], 800, 5 * std::sqrt(800.0));
  EXPECT_NEAR(per_phase[0], 500, 5 * std::sqrt(500.0));
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Cohort, SameSeedGivesSameCohort) {
  const auto a = SimulateCohort(11, 3, 2.0);
  const auto b = SimulateCohort(11, 3, 2.0);
  const auto c = SimulateCohort(12, 3, 2.0);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (size_t h = 0; h < a.size(); ++h) {
    EXPECT_EQ(a[h].aggregate.size(), static_cast<size_t>(2 * 24 * 60));
    EXPECT_TRUE(SameBits(a[h].aggregate, b[h].aggregate));
  }
  EXPECT_FALSE(SameBits(a[0].aggregate, c[0].aggregate));
}

TEST(Stats, PercentileReportsItsSampleCount) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Percentile p50 = PercentileOf(v, 50);
  const Percentile p99 = PercentileOf(v, 99);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p99.samples, 100);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(PercentileOf(v, 100).value, 100.0);
  EXPECT_EQ(PercentileOf({}, 50).samples, 0);
  EXPECT_EQ(PercentileOf({4.0}, 99).samples, 1);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

camal::serve::ScanResult MakeResult(float value) {
  camal::serve::ScanResult r;
  r.detection = camal::nn::Tensor({4});
  r.status = camal::nn::Tensor({4});
  r.power = camal::nn::Tensor({4});
  for (int64_t i = 0; i < 4; ++i) r.detection.at(i) = value;
  r.windows = r.windows_full = 1;
  return r;
}

TEST(Stats, FailedFracCountsEveryNonOkFutureAndMismatch) {
  OutcomeTally tally;
  EXPECT_TRUE(tally.Record(camal::Result<camal::serve::ScanResult>(
      MakeResult(0.5f))));
  EXPECT_TRUE(tally.Record(camal::Result<camal::serve::ScanResult>(
      MakeResult(0.25f))));
  EXPECT_FALSE(tally.Record(camal::Result<camal::serve::ScanResult>(
      camal::Status::Internal("scan failed"))));
  EXPECT_FALSE(tally.Record(camal::Result<camal::serve::ScanResult>(
      camal::Status::DeadlineExceeded("shed"))));
  EXPECT_FALSE(tally.Record(camal::Result<camal::serve::ScanResult>(
      camal::Status::FailedPrecondition("queue full"))));
  tally.Record(camal::Status::OK());
  tally.Record(camal::Status::IoError("checkpoint"));
  tally.RecordMismatch();  // an OK future whose output was wrong
  EXPECT_EQ(tally.attempted(), 7);
  EXPECT_EQ(tally.failed(), 5);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 5.0 / 7.0);
  EXPECT_EQ(OutcomeTally().failed_frac(), 0.0);
}

TEST(Stats, SameScanOutputIsBitwise) {
  const camal::serve::ScanResult a = MakeResult(0.5f);
  EXPECT_TRUE(SameScanOutput(a, MakeResult(0.5f)));
  EXPECT_FALSE(SameScanOutput(a, MakeResult(std::nextafter(0.5f, 1.0f))));
  camal::serve::ScanResult nan = MakeResult(0.5f);
  nan.power.at(2) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(SameScanOutput(nan, nan));  // NaN == NaN bit for bit
  EXPECT_FALSE(SameScanOutput(a, nan));
  camal::serve::ScanResult more = MakeResult(0.5f);
  more.windows_full = 2;
  EXPECT_FALSE(SameScanOutput(a, more));
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, 1, 0, 7},  {"a", 1.0, 3.0, 2, 1, 7},
      {"b", 2.0, 5.0, 3, 1, 7},      {"c", 8.0, 12.0, 4, 1, 7},
      {"a.child", 1.5, 2.0, 5, 2, 7}};
  const std::vector<double> self = ComputeSelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);  // [1,5] and [8,10] covered
  EXPECT_DOUBLE_EQ(self[1], 1.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer off(false);
  { ScopedSpan span(&off, "x"); }
  EXPECT_EQ(off.Add("y", 0.0, 1.0, 0, 0), 0);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  int64_t parent = 0;
  {
    ScopedSpan span(&on, "outer", 0, 3);
    parent = span.id();
    ScopedSpan inner(&on, "inner", parent, 3);
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_EQ(spans[1].request, 3);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
}

TEST(Layers, MemberFlopsFollowTheLayerShapes) {
  // f = 1, k = 1, L = 1: unit(1,1) = 2*(1+5+3), unit(1,2) = 2*(2+20+12+2),
  // unit(2,2) = 2*(4+20+12).
  EXPECT_DOUBLE_EQ(MemberFlopsPerWindow(1, 1, 1), 18.0 + 72.0 + 72.0);
  // Linear in the window length.
  EXPECT_DOUBLE_EQ(MemberFlopsPerWindow(5, 16, 128),
                   128.0 * MemberFlopsPerWindow(5, 16, 1));
}

}  // namespace
}  // namespace perfbench
