#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <thread>
#include <utility>

#include "cohort.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {

namespace {

using camal::Result;
using camal::serve::ScanResult;
using Clock = std::chrono::steady_clock;
using ScanFuture = std::future<Result<ScanResult>>;

// Each run sets up this many times and reports the median set-up time.
constexpr int kSetupReps = 3;
// A run whose load generator submitted any request later than this after
// its intended arrival fails instead of reporting latencies.
constexpr double kMaxSubmitLagSeconds = 0.1;
// Responses per run compared bitwise with a direct sequential scan.
constexpr int kSampledChecks = 8;

// fleet_scan: every (household, appliance) pair of a 2-week cohort at once.
constexpr int kFleetHouseholds = 10;
constexpr double kFleetDays = 14.0;
constexpr double kFleetLimitSeconds = 3.0;
constexpr int kMinFleetPasses = 3;

// The open loops repeat a cycle of a nominal phase, an overload burst and
// a quiet gap in which the burst's backlog drains. Rates are fixed: two
// commits are always offered the same load.
struct CycleShape {
  double nominal_rps;
  double overload_rps;
  double nominal_seconds;
  double burst_seconds;
  double gap_seconds;
  double goodput_limit_seconds;  ///< latency limit of overload goodput.
};
constexpr int kNominal = 0;
constexpr int kBurst = 1;
constexpr int kGap = 2;
// Arrivals of the leading warm-up cycle: served and checked like the
// rest, left out of every metric (allocator pools and caches fill there).
constexpr int kWarmup = 3;

// openloop_short: "what is running now" queries of the last 1-4 windows.
constexpr CycleShape kShortCycle{400.0, 5000.0, 1.7, 0.2, 1.0, 1.0};
constexpr int kShortHouseholds = 20;
constexpr double kShortDays = 21.0;
constexpr int kShortMaxWindows = 4;

// session_stream: sessions seeded with a week of history, then one-stride
// appends; the future part of each household feeds the appends.
constexpr CycleShape kStreamCycle{600.0, 5000.0, 1.7, 0.2, 1.0, 1.0};
constexpr int kSessions = 64;
constexpr double kHistoryDays = 7.0;

int64_t DaysToReadings(double days) {
  return static_cast<int64_t>(days * 24 * 60);
}

int CycleCount(const CycleShape& shape, double seconds) {
  const double cycle =
      shape.nominal_seconds + shape.burst_seconds + shape.gap_seconds;
  return std::max(1, static_cast<int>(seconds / cycle));
}

// Days of readings each session needs beyond its history: twice its mean
// share of the run's appends, so random session choice rarely exhausts one.
double FutureDays(double seconds) {
  const double appends =
      (CycleCount(kStreamCycle, seconds) + 1) *
      (kStreamCycle.nominal_rps * kStreamCycle.nominal_seconds +
       kStreamCycle.overload_rps * kStreamCycle.burst_seconds);
  const double per_session = 2.0 * appends / kSessions + 16.0;
  return per_session * static_cast<double>(kStride) / (24 * 60);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void Note(RunReport* report, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void Note(RunReport* report, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report->notes.emplace_back(buf);
}

// Request spans derived from the service's own timings: the request runs
// from its intended arrival to completion; inside it the generator's lag,
// the admission-queue wait and the scan (the shared pass when coalesced).
void AddRequestSpans(Tracer* tracer, int64_t request, double intended,
                     double submitted, const ScanResult& result) {
  if (!tracer->enabled()) return;
  const double done = submitted + result.latency_seconds;
  const double scan_start = done - result.seconds;
  const int64_t root = tracer->Add("request", intended, done, 0, request);
  if (submitted > intended) {
    tracer->Add("loadgen.submit_lag", intended, submitted, root, request);
  }
  tracer->Add("serve.service.queue_wait", submitted, scan_start, root,
              request);
  tracer->Add("serve.batch_runner.scan", scan_start, done, root, request);
}

// Distinct indices in [0, n), at most \p count of them, seeded.
std::vector<size_t> SampleIndices(uint64_t seed, size_t n, int count) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  camal::Rng rng(seed);
  rng.Shuffle(&all);
  all.resize(std::min(n, static_cast<size_t>(count)));
  std::sort(all.begin(), all.end());
  return all;
}

void Teardown(Deployment* d) {
  if (d->service) d->service->Shutdown();
  d->sessions.clear();
  d->service.reset();
  d->stores.clear();
  if (!d->dir.empty()) RemoveTree(d->dir);
  *d = Deployment();
}

Result<Deployment> SetUp(const RunConfig& config, int rep) {
  Deployment d;
  d.dir = config.out_dir + "/work-" + config.workload + "-" +
          std::to_string(static_cast<long long>(getpid())) + "-" +
          std::to_string(rep);
  auto trained = TrainAppliances();
  if (!trained.ok()) return trained.status();
  d.appliances = std::move(trained).value();

  const bool sessions = config.workload == "session_stream";
  const int households = sessions ? kSessions
                         : config.workload == "fleet_scan" ? kFleetHouseholds
                                                           : kShortHouseholds;
  const double days = sessions ? kHistoryDays + FutureDays(config.seconds)
                      : config.workload == "fleet_scan" ? kFleetDays
                                                        : kShortDays;
  auto stores = WriteAndOpenStores(
      SimulateCohort(SubSeed(config.seed, 1), households, days),
      d.dir + "/stores");
  if (!stores.ok()) return stores.status();
  d.stores = std::move(stores).value();
  auto service = StartService(&d.appliances);
  if (!service.ok()) return service.status();
  d.service = std::move(service).value();

  if (sessions) {
    d.history = DaysToReadings(kHistoryDays);
    std::vector<ScanFuture> seeded;
    for (int s = 0; s < kSessions; ++s) {
      camal::serve::SessionOptions options;
      options.household_id = "session-" + std::to_string(s);
      // Appends park behind the in-flight one; the schedule never piles
      // more than a burst's worth onto one session.
      options.max_pending_appends = 1 << 20;
      auto session = d.service->CreateSession(
          d.appliances[static_cast<size_t>(s) % d.appliances.size()].spec.name,
          options);
      if (!session.ok()) return session.status();
      d.sessions.push_back(session.value());
      seeded.push_back(d.sessions.back()->AppendReadings(
          d.stores[static_cast<size_t>(s)].aggregate().subview(0, d.history)));
    }
    for (ScanFuture& f : seeded) {
      Result<ScanResult> r = f.get();
      if (!r.ok()) return r.status();
    }
  }
  return d;
}

// Runs an open-loop schedule: this thread sleeps until each intended
// arrival and submits without waiting for completions; a harvester thread
// resolves the futures in submission order and hands each result to
// \p complete. \p between runs on the harvester before each wait, with
// the seconds since the schedule start (the session workload checkpoints
// there, beside the appends). Returns the schedule's start time;
// \p max_lag receives the generator's worst lag.
Clock::time_point RunOpenLoop(
    const std::vector<Arrival>& schedule,
    const std::function<ScanFuture(size_t)>& submit,
    const std::function<void(size_t, Result<ScanResult>, double)>& complete,
    const std::function<void(double)>& between, double* max_lag) {
  struct InFlight {
    size_t index;
    double submitted;
    ScanFuture future;
  };
  camal::Mutex mu;
  camal::CondVar cv;
  std::deque<InFlight> in_flight;
  bool done = false;

  *max_lag = 0.0;
  const Clock::time_point t0 = Clock::now();
  std::thread harvester([&] {
    for (;;) {
      InFlight item;
      {
        camal::MutexLock lock(&mu);
        while (in_flight.empty() && !done) cv.Wait(&mu);
        if (in_flight.empty()) return;
        item = std::move(in_flight.front());
        in_flight.pop_front();
      }
      between(Seconds(Clock::now() - t0));
      complete(item.index, item.future.get(), item.submitted);
    }
  });

  for (size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(schedule[i].at)));
    const double submitted = Seconds(Clock::now() - t0);
    *max_lag = std::max(*max_lag, submitted - schedule[i].at);
    ScanFuture future = submit(i);
    camal::MutexLock lock(&mu);
    in_flight.push_back({i, submitted, std::move(future)});
    cv.NotifyOne();
  }
  {
    camal::MutexLock lock(&mu);
    done = true;
    cv.NotifyAll();
  }
  harvester.join();
  return t0;
}

// One warm-up cycle, then as many measured cycles as fit in \p seconds.
std::vector<Phase> Cycles(const CycleShape& shape, double seconds) {
  const int cycles = CycleCount(shape, seconds);
  std::vector<Phase> phases = {
      {shape.nominal_rps, shape.nominal_seconds, kWarmup},
      {shape.overload_rps, shape.burst_seconds, kWarmup},
      {0.0, shape.gap_seconds, kGap}};
  for (int c = 0; c < cycles; ++c) {
    phases.push_back({shape.nominal_rps, shape.nominal_seconds, kNominal});
    phases.push_back({shape.overload_rps, shape.burst_seconds, kBurst});
    phases.push_back({0.0, shape.gap_seconds, kGap});
  }
  return phases;
}

// Per-arrival outcome of an open loop, written by the harvester.
struct Outcome {
  bool ok = false;
  double latency = 0.0;  ///< intended arrival -> completion, seconds.
  double done = 0.0;     ///< completion, seconds from schedule start.
  double submitted = 0.0;  ///< seconds from schedule start.
  ScanResult timing;       ///< latency_seconds and seconds only.
  int64_t windows = 0;
};

// Records one open-loop arrival's result; keeps it whole when sampled.
void RecordOutcome(size_t i, Result<ScanResult> r, double submitted,
                   const std::vector<Arrival>& schedule,
                   const std::vector<size_t>& sampled,
                   std::vector<Outcome>* outcomes,
                   std::vector<ScanResult>* kept, ServiceObservations* obs,
                   RunReport* report) {
  if (!report->tally.Record(r)) return;
  const ScanResult& s = r.value();
  Outcome& o = (*outcomes)[i];
  o.ok = true;
  o.submitted = submitted;
  o.done = submitted + s.latency_seconds;
  o.latency = o.done - schedule[i].at;
  o.timing.latency_seconds = s.latency_seconds;
  o.timing.seconds = s.seconds;
  o.windows = s.windows;
  obs->queue_wait_seconds.push_back(s.latency_seconds - s.seconds);
  auto it = std::find(sampled.begin(), sampled.end(), i);
  if (it != sampled.end()) {
    (*kept)[static_cast<size_t>(it - sampled.begin())] = std::move(r).value();
  }
}

void AddOpenLoopSpans(Tracer* tracer, Clock::time_point t0,
                      const std::vector<Arrival>& schedule,
                      const std::vector<Outcome>& outcomes) {
  if (!tracer->enabled()) return;
  const double base = tracer->ToSeconds(t0);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) continue;
    AddRequestSpans(tracer, static_cast<int64_t>(i) + 1,
                    base + schedule[i].at, base + outcomes[i].submitted,
                    outcomes[i].timing);
  }
}

// End-to-end metrics of an open loop: latency of the nominal phases,
// goodput of the bursts (completions within the limit per second, from
// the burst's start to its last completion; failures count as misses),
// and delivered windows per second over the whole schedule.
void OpenLoopMetrics(const std::vector<Phase>& phases,
                     const std::vector<Arrival>& schedule,
                     const std::vector<Outcome>& outcomes,
                     const CycleShape& shape, RunReport* report,
                     double* windows_per_s, Percentile* p50,
                     Percentile* p99, double* goodput) {
  std::vector<double> phase_start(phases.size());
  double t = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    phase_start[p] = t;
    t += phases[p].seconds;
  }
  std::vector<double> nominal, burst;
  std::vector<int64_t> within(phases.size(), 0);
  std::vector<double> burst_end(phases.size(), 0.0);
  int64_t windows = 0;
  double last_done = 0.0;
  double first = -1.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok || schedule[i].kind == kWarmup) continue;
    if (first < 0.0) first = schedule[i].at;
    windows += o.windows;
    last_done = std::max(last_done, o.done);
    const auto p = static_cast<size_t>(schedule[i].phase);
    if (schedule[i].kind == kNominal) nominal.push_back(o.latency);
    if (schedule[i].kind == kBurst) {
      burst.push_back(o.latency);
      burst_end[p] = std::max(burst_end[p], o.done);
      if (o.latency <= shape.goodput_limit_seconds) ++within[p];
    }
  }
  std::vector<double> goodputs;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].kind != kBurst || burst_end[p] <= phase_start[p]) continue;
    goodputs.push_back(static_cast<double>(within[p]) /
                       (burst_end[p] - phase_start[p]));
  }
  *windows_per_s = last_done > first
                       ? static_cast<double>(windows) / (last_done - first)
                       : 0.0;
  // The median comes from the nominal phases. The tail comes from the
  // bursts: there it is set by how fast the backlog drains, while the
  // nominal tail of a few milliseconds swings run to run with scheduling
  // stalls of the shared host (it is printed, not gated).
  *p50 = PercentileOf(nominal, 50);
  *p99 = PercentileOf(burst, 99);
  const Percentile nominal_p99 = PercentileOf(nominal, 99);
  Note(report, "nominal-phase p99 %.3f ms over %lld samples (not gated)",
       nominal_p99.value * 1e3, static_cast<long long>(nominal_p99.samples));
  *goodput = Median(goodputs);
  Note(report, "open loop: %zu arrivals; per cycle %.1f s at %.0f/s, a "
       "%.2f s burst at %.0f/s, %.1f s gap; %zu measured cycles after one "
       "warm-up; goodput limit %.0f ms",
       schedule.size(), shape.nominal_seconds, shape.nominal_rps,
       shape.burst_seconds, shape.overload_rps, shape.gap_seconds,
       goodputs.size(), shape.goodput_limit_seconds * 1e3);
}

struct Measured {
  double windows_per_s = 0.0;
  Percentile p50;
  Percentile p99;
  double goodput = 0.0;
};

// Builds the sequential reference runners of the output checks over
// clones of the served ensembles. Call only while no service is running
// forwards on the originals.
std::vector<std::unique_ptr<camal::serve::BatchRunner>> ReferenceRunners(
    Deployment* d, std::vector<camal::core::CamalEnsemble>* clones) {
  clones->clear();
  for (TrainedAppliance& a : d->appliances) {
    clones->push_back(a.ensemble->Clone());
  }
  std::vector<std::unique_ptr<camal::serve::BatchRunner>> runners;
  for (size_t a = 0; a < d->appliances.size(); ++a) {
    runners.push_back(std::make_unique<camal::serve::BatchRunner>(
        &(*clones)[a], d->appliances[a].runner));
  }
  return runners;
}

void CheckSample(const ScanResult& served, const ScanResult& expected,
                 const char* what, RunReport* report) {
  if (!SameScanOutput(served, expected)) {
    report->tally.RecordMismatch();
    report->correct = false;
    Note(report, "MISMATCH: %s differs from its direct sequential scan", what);
  }
}

Measured RunFleet(const RunConfig& config, Deployment* d, Tracer* tracer,
                  ServiceObservations* obs, RunReport* report) {
  struct Pair {
    size_t appliance;
    size_t house;
  };
  std::vector<Pair> pairs;
  for (size_t a = 0; a < d->appliances.size(); ++a) {
    for (size_t h = 0; h < d->stores.size(); ++h) pairs.push_back({a, h});
  }
  const std::vector<size_t> sampled =
      SampleIndices(SubSeed(config.seed, 2), pairs.size(), kSampledChecks);
  std::vector<ScanResult> kept(sampled.size());

  std::vector<double> windows_per_s, goodput, pass_p50, pass_p99;
  int64_t samples = 0;
  camal::Stopwatch run;
  int64_t request = 0;
  // Pass 0 warms allocator pools and caches and is left out of the
  // metrics; measured passes run for config.seconds.
  for (int pass = 0;
       pass <= kMinFleetPasses || run.ElapsedSeconds() < config.seconds;
       ++pass) {
    if (pass == 1) run.Restart();
    const Clock::time_point t0 = Clock::now();
    const double base = tracer->ToSeconds(t0);
    std::vector<ScanFuture> futures;
    std::vector<double> submitted;
    for (const Pair& p : pairs) {
      camal::serve::ScanRequest req;
      req.household_id = "house-" + std::to_string(p.house);
      req.appliance = d->appliances[p.appliance].spec.name;
      req.series = d->stores[p.house].aggregate();
      submitted.push_back(Seconds(Clock::now() - t0));
      futures.push_back(d->service->Submit(std::move(req)));
    }
    obs->max_submit_lag_seconds =
        std::max(obs->max_submit_lag_seconds, submitted.back());
    double pass_end = 0.0;
    int64_t pass_windows = 0, within = 0;
    std::vector<double> latencies;
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<ScanResult> r = futures[i].get();
      if (!report->tally.Record(r)) continue;
      const ScanResult& s = r.value();
      AddRequestSpans(tracer, ++request, base, base + submitted[i], s);
      if (pass > 0) {
        pass_end = std::max(pass_end, submitted[i] + s.latency_seconds);
        pass_windows += s.windows;
        latencies.push_back(s.latency_seconds);
        if (s.latency_seconds <= kFleetLimitSeconds) ++within;
        obs->queue_wait_seconds.push_back(s.latency_seconds - s.seconds);
      }
      auto it = std::find(sampled.begin(), sampled.end(), i);
      if (pass == 0 && it != sampled.end()) {
        kept[static_cast<size_t>(it - sampled.begin())] =
            std::move(r).value();
      }
    }
    if (pass_end > 0.0) {
      windows_per_s.push_back(static_cast<double>(pass_windows) / pass_end);
      goodput.push_back(static_cast<double>(within) / pass_end);
      pass_p50.push_back(PercentileOf(latencies, 50).value);
      pass_p99.push_back(PercentileOf(latencies, 99).value);
      samples += static_cast<int64_t>(latencies.size());
    }
  }
  obs->after = d->service->stats();
  d->service->Shutdown();

  std::vector<camal::core::CamalEnsemble> clones;
  auto runners = ReferenceRunners(d, &clones);
  for (size_t k = 0; k < sampled.size(); ++k) {
    const Pair& p = pairs[sampled[k]];
    CheckSample(kept[k], runners[p.appliance]->Scan(d->stores[p.house].aggregate()),
                "fleet scan", report);
  }
  Note(report, "fleet_scan: %zu measured passes (after one warm-up) of %zu requests (%d households x %zu "
       "appliances, %.0f days), %zu outputs checked bitwise",
       windows_per_s.size(), pairs.size(), kFleetHouseholds,
       d->appliances.size(), kFleetDays, sampled.size());
  Measured m;
  m.windows_per_s = Median(windows_per_s);
  // Each pass is one nightly scan: its percentiles over the households,
  // then the median over passes (a pass's p99 is its slowest household).
  m.p50 = {Median(pass_p50), samples};
  m.p99 = {Median(pass_p99), samples};
  m.goodput = Median(goodput);
  return m;
}

Measured RunShort(const RunConfig& config, Deployment* d, Tracer* tracer,
                  ServiceObservations* obs, RunReport* report) {
  struct Query {
    size_t house;
    size_t appliance;
    int64_t offset;
    int64_t length;
  };
  const std::vector<Phase> phases = Cycles(kShortCycle, config.seconds);
  const std::vector<Arrival> schedule =
      PoissonSchedule(SubSeed(config.seed, 3), phases);
  std::vector<Query> queries;
  camal::Rng rng(SubSeed(config.seed, 4));
  for (size_t i = 0; i < schedule.size(); ++i) {
    Query q;
    q.house = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(d->stores.size()) - 1));
    q.appliance = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(d->appliances.size()) - 1));
    q.length = kWindow + kStride * (rng.UniformInt(1, kShortMaxWindows) - 1);
    q.offset = rng.UniformInt(0, d->stores[q.house].num_samples() - q.length);
    queries.push_back(q);
  }
  const std::vector<size_t> sampled =
      SampleIndices(SubSeed(config.seed, 5), schedule.size(), kSampledChecks);
  std::vector<ScanResult> kept(sampled.size());
  std::vector<Outcome> outcomes(schedule.size());
  const auto view = [&](const Query& q) {
    return d->stores[q.house].aggregate().subview(q.offset, q.length);
  };

  const Clock::time_point t0 = RunOpenLoop(
      schedule,
      [&](size_t i) {
        camal::serve::ScanRequest req;
        req.household_id = "query-" + std::to_string(i);
        req.appliance = d->appliances[queries[i].appliance].spec.name;
        req.series = view(queries[i]);
        return d->service->Submit(std::move(req));
      },
      [&](size_t i, Result<ScanResult> r, double submitted) {
        RecordOutcome(i, std::move(r), submitted, schedule, sampled,
                      &outcomes, &kept, obs, report);
      },
      [](double) {}, &obs->max_submit_lag_seconds);
  AddOpenLoopSpans(tracer, t0, schedule, outcomes);
  obs->after = d->service->stats();
  d->service->Shutdown();

  std::vector<camal::core::CamalEnsemble> clones;
  auto runners = ReferenceRunners(d, &clones);
  for (size_t k = 0; k < sampled.size(); ++k) {
    const Query& q = queries[sampled[k]];
    CheckSample(kept[k], runners[q.appliance]->Scan(view(q)), "short query",
                report);
  }
  Measured m;
  OpenLoopMetrics(phases, schedule, outcomes, kShortCycle, report,
                  &m.windows_per_s, &m.p50, &m.p99, &m.goodput);
  Note(report, "openloop_short: %zu outputs checked bitwise", sampled.size());
  return m;
}

Measured RunStream(const RunConfig& config, Deployment* d, Tracer* tracer,
                   ServiceObservations* obs, RunReport* report) {
  struct Append {
    size_t session;
    int64_t index;  ///< appends to this session scheduled before it.
  };
  const std::vector<Phase> phases = Cycles(kStreamCycle, config.seconds);
  const std::vector<Arrival> schedule =
      PoissonSchedule(SubSeed(config.seed, 6), phases);
  const int64_t capacity =
      (d->stores.front().num_samples() - d->history) / kStride;
  std::vector<int64_t> count(d->sessions.size(), 0);
  std::vector<Append> appends;
  camal::Rng rng(SubSeed(config.seed, 7));
  for (size_t i = 0; i < schedule.size(); ++i) {
    auto s = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(d->sessions.size()) - 1));
    for (size_t probe = 0; count[s] >= capacity; ++probe) {
      if (probe == count.size()) {
        Note(report, "session_stream: schedule exceeds the cohort's future");
        report->correct = false;
        d->service->Shutdown();
        return {};
      }
      s = (s + 1) % count.size();
    }
    appends.push_back({s, count[s]++});
  }
  const std::vector<size_t> sampled =
      SampleIndices(SubSeed(config.seed, 8), schedule.size(), kSampledChecks);
  std::vector<ScanResult> kept(sampled.size());
  std::vector<Outcome> outcomes(schedule.size());
  const auto delta = [&](size_t s, int64_t index) {
    return d->stores[s].aggregate().subview(d->history + index * kStride,
                                            kStride);
  };
  const std::string ckpt_dir = d->dir + "/checkpoints";
  camal::Status made = MakeDirs(ckpt_dir);
  report->tally.Record(made);
  // One checkpoint in the middle of every nominal phase, so each phase's
  // tail sees the same interference from the snapshot write.
  std::vector<double> checkpoint_at;
  const double cycle = kStreamCycle.nominal_seconds +
                       kStreamCycle.burst_seconds + kStreamCycle.gap_seconds;
  for (size_t k = 0; k < phases.size() / 3; ++k) {
    checkpoint_at.push_back(static_cast<double>(k) * cycle +
                            0.5 * kStreamCycle.nominal_seconds);
  }
  size_t next_checkpoint = 0;
  const auto checkpoint = [&] {
    const int64_t span = tracer->Begin("serve.checkpoint.write", 0, 0);
    camal::Stopwatch timer;
    camal::Status st = d->service->CheckpointSessions(ckpt_dir);
    obs->checkpoint_write_seconds.push_back(timer.ElapsedSeconds());
    tracer->End(span);
    report->tally.Record(st);
  };

  const Clock::time_point t0 = RunOpenLoop(
      schedule,
      [&](size_t i) {
        const camal::data::SeriesView v =
            delta(appends[i].session, appends[i].index);
        return d->service->AppendReadings(d->sessions[appends[i].session],
                                          std::vector<float>(v.begin(),
                                                             v.end()));
      },
      [&](size_t i, Result<ScanResult> r, double submitted) {
        RecordOutcome(i, std::move(r), submitted, schedule, sampled,
                      &outcomes, &kept, obs, report);
      },
      [&](double now) {
        if (next_checkpoint < checkpoint_at.size() &&
            now >= checkpoint_at[next_checkpoint]) {
          checkpoint();
          ++next_checkpoint;
        }
      },
      &obs->max_submit_lag_seconds);
  AddOpenLoopSpans(tracer, t0, schedule, outcomes);
  // Every append has resolved, so every session is quiescent: this
  // snapshot holds all of them.
  checkpoint();
  std::error_code ec;
  obs->checkpoint_bytes = static_cast<double>(std::filesystem::file_size(
      camal::serve::Service::CheckpointFile(ckpt_dir), ec));
  obs->after = d->service->stats();
  d->service->Shutdown();

  std::vector<camal::core::CamalEnsemble> clones;
  auto runners = ReferenceRunners(d, &clones);
  const auto scan_upto = [&](size_t s, int64_t appended) {
    const size_t a = s % d->appliances.size();
    return runners[a]->Scan(d->stores[s].aggregate().subview(
        0, d->history + appended * kStride));
  };
  for (size_t k = 0; k < sampled.size(); ++k) {
    const Append& ap = appends[sampled[k]];
    CheckSample(kept[k], scan_upto(ap.session, ap.index + 1), "session append",
                report);
  }

  // Crash recovery: revive every session into a fresh service, then check
  // that appends continue bitwise-identically to an uninterrupted stream.
  auto fresh = StartService(&d->appliances);
  report->tally.Record(fresh.status());
  if (fresh.ok()) {
    const int64_t span = tracer->Begin("serve.checkpoint.restore", 0, 0);
    camal::Stopwatch timer;
    Result<int64_t> restored = fresh.value()->RestoreSessions(ckpt_dir);
    obs->restore_seconds = timer.ElapsedSeconds();
    tracer->End(span);
    report->tally.Record(restored.status());
    if (!restored.ok() ||
        restored.value() != static_cast<int64_t>(d->sessions.size())) {
      report->tally.RecordMismatch();
      report->correct = false;
      Note(report, "MISMATCH: restore revived %lld of %zu sessions",
           static_cast<long long>(restored.ok() ? restored.value() : -1),
           d->sessions.size());
    }
    int checked = 0;
    for (size_t s = 0; s < count.size() && checked < 2; ++s) {
      if (count[s] >= capacity) continue;
      auto session = fresh.value()->GetSession(d->sessions[s]->id());
      report->tally.Record(session.status());
      if (!session.ok()) continue;
      const camal::data::SeriesView v = delta(s, count[s]);
      Result<ScanResult> r = session.value()->AppendReadings(v).get();
      if (!report->tally.Record(r)) continue;
      CheckSample(r.value(), scan_upto(s, count[s] + 1), "restored append",
                  report);
      ++checked;
    }
    fresh.value()->Shutdown();
  }

  Measured m;
  OpenLoopMetrics(phases, schedule, outcomes, kStreamCycle, report,
                  &m.windows_per_s, &m.p50, &m.p99, &m.goodput);
  Note(report, "session_stream: %d sessions, %.0f-day history, %zu "
       "checkpoints (one per nominal phase, one after the run), restore "
       "%.1f ms, %zu appends checked bitwise",
       kSessions, kHistoryDays, obs->checkpoint_write_seconds.size(),
       obs->restore_seconds * 1e3, sampled.size());
  return m;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fleet_scan", "openloop_short", "session_stream"};
  return names;
}

Result<RunReport> RunWorkload(const RunConfig& config) {
  RunReport report;
  std::vector<double> setup_seconds;
  Deployment d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Teardown(&d);
    camal::Stopwatch timer;
    Result<Deployment> set_up = SetUp(config, rep);
    setup_seconds.push_back(timer.ElapsedSeconds());
    if (!set_up.ok()) {
      Teardown(&d);
      return set_up.status();
    }
    d = std::move(set_up).value();
  }

  Tracer tracer(config.trace);
  ServiceObservations obs;
  obs.before = d.service->stats();
  Measured m;
  if (config.workload == "fleet_scan") {
    m = RunFleet(config, &d, &tracer, &obs, &report);
  } else if (config.workload == "openloop_short") {
    m = RunShort(config, &d, &tracer, &obs, &report);
  } else {
    m = RunStream(config, &d, &tracer, &obs, &report);
  }

  if (obs.max_submit_lag_seconds > kMaxSubmitLagSeconds) {
    report.correct = false;
    Note(&report, "FAILED: the load generator fell %.1f ms behind its "
         "schedule (bound %.0f ms); latencies are not reported",
         obs.max_submit_lag_seconds * 1e3, kMaxSubmitLagSeconds * 1e3);
  }
  Note(&report, "latency_p50_ms over %lld samples, latency_p99_ms over "
       "%lld; setup_s is the median of %d set-ups; failed_frac %.6f (%lld "
       "of %lld)",
       static_cast<long long>(m.p50.samples),
       static_cast<long long>(m.p99.samples), kSetupReps,
       report.tally.failed_frac(),
       static_cast<long long>(report.tally.failed()),
       static_cast<long long>(report.tally.attempted()));
  report.end_to_end = {
      {"setup_s", Median(setup_seconds), "s"},
      {"windows_per_s", m.windows_per_s, "1/s"},
      {"latency_p50_ms", m.p50.value * 1e3, "ms"},
      {"latency_p99_ms", m.p99.value * 1e3, "ms"},
      {"overload_goodput_rps", m.goodput, "1/s"},
      {"rss_peak_mb", PeakRssMb(), "MiB"},
  };

  if (config.trace) {
    MeasureLayers(&d, obs, &tracer, &report);
    std::string self = "self time by span (ms):";
    for (const auto& [name, seconds] : tracer.SelfSeconds()) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s %.3f;", name.c_str(),
                    seconds * 1e3);
      self += buf;
    }
    report.notes.push_back(self);
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (tracer.WriteChromeJson(path)) {
      Note(&report, "trace: %zu spans written to %s", tracer.spans().size(),
           path.c_str());
    } else {
      Note(&report, "trace: could not write %s", path.c_str());
    }
  }
  Teardown(&d);
  return report;
}

}  // namespace perfbench
