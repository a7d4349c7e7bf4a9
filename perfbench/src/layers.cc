#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <utility>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/localizer.h"
#include "nn/gemm.h"
#include "serve/batch_runner.h"
#include "serve/window_stream.h"

namespace perfbench {

namespace {

using camal::Stopwatch;

// The scan breakdown replays the first kReplayWindows windows of the
// first household, kScanReps times per appliance, alternating whether the
// real scan or the replay goes first so drift of the shared host's speed
// cancels; medians are reported.
constexpr int64_t kReplayWindows = 256;
constexpr int kScanReps = 7;
// Repetitions of the checkpoint probe's writes.
constexpr int kReps = 3;
// History lengths (readings) of the session-append probe: about 1, 4 and
// 7 days, each a whole number of strides so no end-aligned tail window is
// re-fed (an empty append then only finalizes).
constexpr int64_t kHistories[] = {23 * kStride, 90 * kStride, 157 * kStride};
constexpr int kProbeAppends = 32;
// Sessions of the checkpoint probe (workloads without their own sessions).
constexpr int kProbeSessions = 16;

void AddMetric(RunReport* report, std::string name, double value,
               std::string unit) {
  report->per_layer.push_back({std::move(name), value, std::move(unit)});
}

// Component times of one replay of a household scan, each summed over the
// scan's batches.
struct ScanParts {
  double fill = 0.0;      ///< MultiWindowStream::NextBatch.
  double members = 0.0;   ///< member ForwardInference, summed.
  int64_t windows = 0;
  int64_t batches = 0;
  int64_t detected = 0;
  int64_t spans = 0;
  /// Per batch: (Localize - member forwards) / windows, the localizer's
  /// own seconds per window paired on one batch (robust to drift between
  /// batches, unlike a difference of sums).
  std::vector<double> localizer_self_per_window;
};

// Replays the feed and localize phases of BatchRunner::Scan through the
// layers' public functions, timing each call and recording a span around
// it. The member forwards run once on their own and once inside
// Localize, so the localizer's own work (ensemble averaging, CAMs,
// attention) is Localize minus the member forwards on the same batch.
ScanParts ReplayScan(camal::core::CamalEnsemble* ensemble,
                     const camal::serve::BatchRunnerOptions& options,
                     camal::data::SeriesView series, Tracer* tracer,
                     int64_t parent) {
  ScanParts parts;
  camal::core::CamalLocalizer localizer(ensemble, options.localizer);
  camal::serve::MultiWindowStream stream({series}, options.stream);
  camal::nn::Tensor batch;
  std::vector<camal::serve::WindowRef> refs;
  for (;;) {
    Stopwatch t;
    int64_t b = 0;
    {
      ScopedSpan span(tracer, "serve.window_stream.fill", parent);
      b = stream.NextBatch(&batch, &refs);
    }
    parts.fill += t.ElapsedSeconds();
    ++parts.spans;
    if (b == 0) break;
    const double members_before = parts.members;
    for (auto& member : ensemble->members()) {
      t.Restart();
      ScopedSpan span(tracer,
                      "nn.member.forward.k" + std::to_string(member.kernel_size),
                      parent);
      camal::nn::Tensor logits = member.model->ForwardInference(batch);
      parts.members += t.ElapsedSeconds();
      ++parts.spans;
    }
    t.Restart();
    {
      ScopedSpan span(tracer, "core.localizer.localize", parent);
      camal::core::LocalizationResult loc = localizer.Localize(batch);
      for (int64_t i = 0; i < b; ++i) {
        if (loc.probabilities.at(i) > options.localizer.detection_threshold) {
          ++parts.detected;
        }
      }
    }
    const double batch_localize = t.ElapsedSeconds();
    const double batch_members = parts.members - members_before;
    parts.localizer_self_per_window.push_back(
        (batch_localize - batch_members) / static_cast<double>(b));
    ++parts.spans;
    parts.windows += b;
    ++parts.batches;
  }
  return parts;
}

// Seconds one ScopedSpan costs on \p tracer (a record plus two clock
// reads), from a burst of spans on a scratch tracer of the same mode.
double SpanCostSeconds(bool enabled) {
  Tracer scratch(enabled);
  constexpr int kSpans = 20000;
  Stopwatch t;
  for (int i = 0; i < kSpans; ++i) ScopedSpan span(&scratch, "probe");
  return t.ElapsedSeconds() / kSpans;
}

// Median-of-reps wall time of \p fn, in seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    t.push_back(sw.ElapsedSeconds());
  }
  return Median(t);
}

// GFLOP/s of ConvGemmEpilogue at the members' hottest shape: the
// 2f -> 2f kernel-5 convolution with fused BatchNorm and ReLU, over a
// 32-window batch (f = 16, L = 128).
double GemmCeilingGflops() {
  camal::nn::ConvGemmParams p;
  p.cout = 32;
  p.cin = 32;
  p.kernel = 5;
  p.lpad = kWindow + p.kernel - 1;
  p.relu = true;
  camal::Rng rng(11);
  std::vector<float> w(static_cast<size_t>(p.cout * p.cin * p.kernel));
  std::vector<float> x(static_cast<size_t>(kBatch * p.cin * p.lpad));
  std::vector<float> scale(static_cast<size_t>(p.cout));
  std::vector<float> shift(static_cast<size_t>(p.cout));
  for (float& v : w) v = static_cast<float>(rng.Uniform(-0.5, 0.5));
  for (float& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : scale) v = static_cast<float>(rng.Uniform(0.5, 1.5));
  for (float& v : shift) v = static_cast<float>(rng.Uniform(-0.1, 0.1));
  p.row_scale = scale.data();
  p.row_shift = shift.data();
  const int64_t out_len = camal::nn::ConvGemmOutputLength(p);
  std::vector<float> y(static_cast<size_t>(kBatch * p.cout * out_len));
  const double flops_per_batch = 2.0 * static_cast<double>(
      p.cout * p.cin * p.kernel * out_len * kBatch);
  constexpr int kBatchesPerRep = 200;
  const double seconds = MedianSeconds(5, [&] {
    for (int r = 0; r < kBatchesPerRep; ++r) {
      for (int64_t n = 0; n < kBatch; ++n) {
        camal::nn::ConvGemmEpilogue(w.data(), x.data() + n * p.cin * p.lpad,
                                    y.data() + n * p.cout * out_len, p);
      }
    }
  });
  return flops_per_batch * kBatchesPerRep / seconds / 1e9;
}

struct CheckpointTimes {
  double write_seconds = 0.0;
  double bytes = 0.0;
  double restore_seconds = 0.0;
};

// Checkpoint cost on a small probe service: kProbeSessions sessions with
// a week of history each, snapshotted kReps times, then restored into a
// second fresh service.
CheckpointTimes ProbeCheckpoint(Deployment* d, Tracer* tracer,
                                RunReport* report) {
  CheckpointTimes out;
  const std::string dir = d->dir + "/probe-checkpoint";
  if (!MakeDirs(dir).ok()) return out;
  auto service = StartService(&d->appliances);
  if (!service.ok()) return out;
  std::vector<std::future<camal::Result<camal::serve::ScanResult>>> seeded;
  for (int s = 0; s < kProbeSessions; ++s) {
    auto session = service.value()->CreateSession(
        d->appliances[static_cast<size_t>(s) % d->appliances.size()].spec.name);
    if (!session.ok()) continue;
    const camal::data::ColumnStore& store =
        d->stores[static_cast<size_t>(s) % d->stores.size()];
    seeded.push_back(session.value()->AppendReadings(store.aggregate().subview(
        0, std::min<int64_t>(store.num_samples(), kHistories[2]))));
  }
  for (auto& f : seeded) report->tally.Record(f.get());
  std::vector<double> writes;
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan span(tracer, "serve.checkpoint.write");
    Stopwatch t;
    report->tally.Record(service.value()->CheckpointSessions(dir));
    writes.push_back(t.ElapsedSeconds());
  }
  service.value()->Shutdown();
  std::error_code ec;
  out.bytes = static_cast<double>(std::filesystem::file_size(
      camal::serve::Service::CheckpointFile(dir), ec));
  out.write_seconds = Median(writes);
  auto fresh = StartService(&d->appliances);
  if (fresh.ok()) {
    ScopedSpan span(tracer, "serve.checkpoint.restore");
    Stopwatch t;
    report->tally.Record(fresh.value()->RestoreSessions(dir).status());
    out.restore_seconds = t.ElapsedSeconds();
    fresh.value()->Shutdown();
  }
  return out;
}

}  // namespace

double MemberFlopsPerWindow(int64_t kernel, int64_t base_filters,
                            int64_t length) {
  const auto conv = [&](int64_t cin, int64_t cout, int64_t k) {
    return 2.0 * static_cast<double>(cin * cout * k * length);
  };
  const auto unit = [&](int64_t cin, int64_t cout) {
    return conv(cin, cout, kernel) + conv(cout, cout, 5) +
           conv(cout, cout, 3) + (cin != cout ? conv(cin, cout, 1) : 0.0);
  };
  const int64_t f = base_filters;
  return unit(1, f) + unit(f, 2 * f) + unit(2 * f, 2 * f);
}

void MeasureLayers(Deployment* d, const ServiceObservations& run,
                   Tracer* tracer, RunReport* report) {
  // Run every layer as a Service worker runs it: nested GEMMs inline.
  camal::ParallelBudgetScope budget(1);
  // data.column_store: re-open every household store of the set-up.
  std::vector<double> opens;
  for (size_t h = 0; h < d->stores.size(); ++h) {
    const std::string path =
        d->dir + "/stores/house_" + std::to_string(h) + ".cstore";
    ScopedSpan span(tracer, "data.column_store.open");
    Stopwatch t;
    auto store = camal::data::ColumnStore::Open(path);
    opens.push_back(t.ElapsedSeconds());
    report->tally.Record(store.status());
  }
  AddMetric(report, "data.column_store.open_ms", Median(opens) * 1e3, "ms");

  // Scan breakdown: per appliance and replay household, the real
  // BatchRunner::Scan and a replay of its feed and localize phases. The
  // stitch (vote accumulation and finalization, private to the runner) is
  // the scan's remainder.
  ScanParts sum;
  double scan_seconds = 0.0;
  std::vector<double> localizer_samples;
  for (TrainedAppliance& a : d->appliances) {
    camal::serve::BatchRunner runner(a.ensemble.get(), a.runner);
    const camal::data::SeriesView whole = d->stores[0].aggregate();
    const camal::data::SeriesView series = whole.subview(
        0, std::min(whole.size(), (kReplayWindows - 1) * kStride + kWindow));
    (void)runner.Scan(series);  // warm caches and scratch
    std::vector<double> scans, fills, members;
    ScanParts parts;
    for (int r = 0; r < kScanReps; ++r) {
      const auto real_scan = [&] {
        ScopedSpan span(tracer, "serve.batch_runner.scan");
        Stopwatch t;
        (void)runner.Scan(series);
        scans.push_back(t.ElapsedSeconds());
      };
      if (r % 2 == 0) real_scan();
      {
        ScopedSpan replay(tracer, "replay.scan");
        parts = ReplayScan(a.ensemble.get(), a.runner, series, tracer,
                           replay.id());
      }
      if (r % 2 == 1) real_scan();
      fills.push_back(parts.fill);
      members.push_back(parts.members);
      localizer_samples.insert(localizer_samples.end(),
                               parts.localizer_self_per_window.begin(),
                               parts.localizer_self_per_window.end());
    }
    scan_seconds += Median(scans);
    sum.fill += Median(fills);
    sum.members += Median(members);
    sum.windows += parts.windows;
    sum.batches += parts.batches;
    sum.spans += parts.spans;
    AddMetric(report, "core.localizer.detected_fraction." + a.spec.name,
              static_cast<double>(parts.detected) /
                  static_cast<double>(std::max<int64_t>(1, parts.windows)),
              "fraction");
  }
  const double w = static_cast<double>(std::max<int64_t>(1, sum.windows));
  const double localizer_self = Median(localizer_samples) * w;
  const double stitch =
      scan_seconds - sum.fill - sum.members - localizer_self;
  // Self times of the scan's layers: fill, member forwards, localizer
  // (everything in Localize but the forwards) and stitch. The stitch is
  // the remainder, so the sum leaves the scan only when the separately
  // timed layers overrun it.
  const double self_sum =
      sum.fill + sum.members + localizer_self + std::max(0.0, stitch);
  AddMetric(report, "serve.batch_runner.scan_us_per_window",
            scan_seconds / w * 1e6, "us");
  AddMetric(report, "serve.window_stream.fill_us_per_window",
            sum.fill / w * 1e6, "us");
  AddMetric(report, "core.localizer.self_us_per_window",
            localizer_self / w * 1e6, "us");
  AddMetric(report, "serve.batch_runner.stitch_us_per_window",
            stitch / w * 1e6, "us");
  AddMetric(report, "serve.batch_runner.batch_occupancy",
            w / static_cast<double>(std::max<int64_t>(1, sum.batches) * kBatch),
            "fraction");
  AddMetric(report, "trace.scan_self_sum_ratio", self_sum / scan_seconds,
            "ratio");
  // Tracing overhead against an untraced replay: what the replay's spans
  // cost, as a share of the replay's traced layer time.
  const double span_cost = SpanCostSeconds(true) - SpanCostSeconds(false);
  AddMetric(report, "trace.overhead_frac",
            static_cast<double>(sum.spans) * span_cost /
                (sum.fill + sum.members + localizer_self),
            "fraction");
  char line[256];
  std::snprintf(line, sizeof(line),
                "scan self times (ms): fill %.3f, member forwards %.3f, "
                "localizer %.3f, stitch (remainder) %.3f; scan %.3f over "
                "%lld windows",
                sum.fill * 1e3, sum.members * 1e3, localizer_self * 1e3,
                stitch * 1e3, scan_seconds * 1e3,
                static_cast<long long>(sum.windows));
  report->notes.emplace_back(line);

  // Ensemble forward at batch 32 and 1, and each member at batch 32.
  std::vector<double> b32, b1, ensemble_self;
  std::map<int64_t, std::vector<double>> member_ms;
  double member_flops = 0.0, member_seconds = 0.0;
  {
    camal::serve::MultiWindowStream stream({d->stores[0].aggregate()},
                                           d->appliances[0].runner.stream);
    camal::nn::Tensor batch32, batch1({1, 1, kWindow});
    std::vector<camal::serve::WindowRef> refs;
    (void)stream.NextBatch(&batch32, &refs);
    std::copy(batch32.data(), batch32.data() + kWindow, batch1.data());
    for (TrainedAppliance& a : d->appliances) {
      camal::core::CamalEnsemble* e = a.ensemble.get();
      (void)e->DetectProbabilityBatched(batch32);
      b32.push_back(MedianSeconds(15,
                                  [&] {
                                    ScopedSpan span(
                                        tracer, "core.ensemble.forward.b32");
                                    (void)e->DetectProbabilityBatched(batch32);
                                  }) /
                    kBatch);
      b1.push_back(MedianSeconds(200, [&] {
        ScopedSpan span(tracer, "core.ensemble.forward.b1");
        (void)e->DetectProbabilityBatched(batch1);
      }));
      double members_seconds = 0.0;
      for (auto& m : e->members()) {
        const double s = MedianSeconds(15, [&] {
          (void)m.model->ForwardInference(batch32);
        });
        members_seconds += s;
        member_ms[m.kernel_size].push_back(s * 1e3);
        member_flops += MemberFlopsPerWindow(m.kernel_size,
                                             m.model->base_filters(), kWindow) *
                        kBatch;
        member_seconds += s;
      }
      ensemble_self.push_back(b32.back() - members_seconds / kBatch);
    }
  }
  AddMetric(report, "core.ensemble.forward_us_per_window.b32",
            Median(b32) * 1e6, "us");
  AddMetric(report, "core.ensemble.forward_us_per_window.b1", Median(b1) * 1e6,
            "us");
  AddMetric(report, "core.ensemble.self_us_per_window",
            Median(ensemble_self) * 1e6, "us");
  for (int64_t k : {5, 9, 15}) {
    AddMetric(report, "nn.member.forward_ms.k" + std::to_string(k),
              Median(member_ms[k]), "ms");
  }
  AddMetric(report, "nn.forward_gflops", member_flops / member_seconds / 1e9,
            "GFLOP/s");
  AddMetric(report, "nn.gemm_ceiling_gflops", GemmCeilingGflops(), "GFLOP/s");

  // serve.session: AppendScan of one stride onto a week of history, and
  // empty appends (finalization only) onto 1, 4 and 7 days: the fed
  // windows stay constant while finalization grows with the history.
  {
    TrainedAppliance& a = d->appliances[0];
    camal::serve::BatchRunner runner(a.ensemble.get(), a.runner);
    const camal::data::SeriesView series = d->stores[0].aggregate();
    std::vector<double> xs, ys;
    double fed_ratio = 0.0, append_ms = 0.0;
    for (int64_t history : kHistories) {
      camal::serve::SessionScanState state;
      (void)runner.AppendScan(&state, series.subview(0, history));
      std::vector<double> finalize;
      for (int i = 0; i < kProbeAppends; ++i) {
        ScopedSpan span(tracer, "serve.session.finalize");
        Stopwatch t;
        (void)runner.AppendScan(&state, camal::data::SeriesView());
        finalize.push_back(t.ElapsedSeconds());
      }
      xs.push_back(static_cast<double>(history));
      ys.push_back(Median(finalize));
      if (history != kHistories[2]) continue;
      std::vector<double> appends;
      int64_t fed = 0, full = 0;
      for (int i = 0; i < kProbeAppends; ++i) {
        const camal::data::SeriesView delta =
            series.subview(history + i * kStride, kStride);
        ScopedSpan span(tracer, "serve.session.append_scan");
        Stopwatch t;
        camal::serve::ScanResult r = runner.AppendScan(&state, delta);
        appends.push_back(t.ElapsedSeconds());
        fed += r.windows;
        full += r.windows_full;
      }
      append_ms = Median(appends) * 1e3;
      fed_ratio = static_cast<double>(fed) / static_cast<double>(full);
    }
    // Least-squares slope of finalization time against history length.
    double mx = 0.0, my = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      mx += xs[i] / static_cast<double>(xs.size());
      my += ys[i] / static_cast<double>(ys.size());
    }
    double sxy = 0.0, sxx = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      sxy += (xs[i] - mx) * (ys[i] - my);
      sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    AddMetric(report, "serve.session.append_scan_ms", append_ms, "ms");
    AddMetric(report, "serve.session.windows_fed_ratio", fed_ratio,
              "fraction");
    AddMetric(report, "serve.session.finalize_us_per_kreading",
              sxy / sxx * 1e9, "us");
  }

  // serve.checkpoint: the run's own snapshots when it took any.
  CheckpointTimes ckpt;
  if (!run.checkpoint_write_seconds.empty()) {
    ckpt.write_seconds = Median(run.checkpoint_write_seconds);
    ckpt.bytes = run.checkpoint_bytes;
    ckpt.restore_seconds = run.restore_seconds;
  } else {
    ckpt = ProbeCheckpoint(d, tracer, report);
  }
  AddMetric(report, "serve.checkpoint.write_ms", ckpt.write_seconds * 1e3,
            "ms");
  AddMetric(report, "serve.checkpoint.bytes", ckpt.bytes, "B");
  AddMetric(report, "serve.checkpoint.restore_ms",
            ckpt.restore_seconds * 1e3, "ms");

  // serve.service: what the measured phase saw.
  const camal::serve::ServiceStats& s0 = run.before;
  const camal::serve::ServiceStats& s1 = run.after;
  AddMetric(report, "serve.service.queue_wait_p50_ms",
            PercentileOf(run.queue_wait_seconds, 50).value * 1e3, "ms");
  AddMetric(report, "serve.service.queue_wait_p99_ms",
            PercentileOf(run.queue_wait_seconds, 99).value * 1e3, "ms");
  const int64_t groups = s1.coalesced_groups - s0.coalesced_groups;
  AddMetric(report, "serve.service.coalesced_occupancy",
            groups > 0 ? static_cast<double>(s1.coalesced_requests -
                                             s0.coalesced_requests) /
                             static_cast<double>(groups)
                       : 1.0,
            "requests");
  AddMetric(report, "serve.service.shed_count",
            static_cast<double>(s1.shed_deadline - s0.shed_deadline), "count");
  AddMetric(report, "serve.service.backpressure_count",
            static_cast<double>(s1.rejected_backpressure -
                                s0.rejected_backpressure),
            "count");
  AddMetric(report, "serve.service.retry_count",
            static_cast<double>(s1.retries_attempted - s0.retries_attempted),
            "count");
  AddMetric(report, "loadgen.max_submit_lag_ms",
            run.max_submit_lag_seconds * 1e3, "ms");
}

}  // namespace perfbench
