#include "serve/batch_runner.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/power_estimation.h"
#include "data/time_series.h"
#include "data/window.h"

namespace camal::serve {

BatchRunner::BatchRunner(core::CamalEnsemble* ensemble,
                         BatchRunnerOptions options)
    : ensemble_(ensemble),
      localizer_(ensemble, options.localizer),
      options_(options) {
  CAMAL_CHECK(ensemble != nullptr);
  CAMAL_CHECK_GE(options_.appliance_avg_power_w, 0.0f);
}

Status BatchRunner::ValidateOptions(const BatchRunnerOptions& options) {
  if (options.stream.window_length <= 0) {
    return Status::InvalidArgument("window_length must be positive");
  }
  if (options.stream.stride <= 0) {
    return Status::InvalidArgument("stride must be positive");
  }
  if (options.stream.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (!(options.stream.input_scale > 0.0f)) {
    return Status::InvalidArgument("input_scale must be positive");
  }
  if (options.appliance_avg_power_w < 0.0f) {
    return Status::InvalidArgument(
        "appliance_avg_power_w must be non-negative");
  }
  return Status::OK();
}

void BatchRunner::RunScan(const std::vector<data::SeriesView>& series,
                          const std::vector<ScanVotes*>& votes,
                          const ScanDelivery& on_result) {
  Stopwatch pass;
  const size_t n = series.size();
  const int64_t l = options_.stream.window_length;
  const int64_t stride = options_.stream.stride;
  std::vector<ScanResult> results(n);
  // resize keeps existing elements, so overlay buffers' capacity is
  // reused across scans; overlays_ must not grow again below — pad feed
  // entries point at overlay members.
  overlays_.resize(std::max(overlays_.size(), n));

  // Plan: extend each series' votes (zero-extending preserves committed
  // ones) and ref exactly the windows they lack. Series i feeds the
  // shared stream as two entries: 2i, its readings, carrying the grid
  // windows not yet voted in ascending offset like a from-scratch stitch;
  // 2i + 1, the end-dependent overlay window — the end-aligned tail over
  // the same readings, or a short series' zero-padded copy.
  std::vector<data::SeriesView> feed(2 * n);
  std::vector<WindowRef> refs;
  for (size_t i = 0; i < n; ++i) {
    const data::SeriesView s = series[i];
    const int64_t len = s.size();
    ScanVotes& v = *votes[i];
    ScanResult& result = results[i];
    result.detection = nn::Tensor({len});
    result.status = nn::Tensor({len});
    result.power = nn::Tensor({len});
    v.prob_sum.resize(static_cast<size_t>(len), 0.0f);
    v.cover.resize(static_cast<size_t>(len), 0);
    v.on_votes.resize(static_cast<size_t>(len), 0);
    OverlayState& overlay = overlays_[i];
    overlay.active = false;
    if (len == 0) continue;  // nothing to scan: all-zero result

    const int64_t grid = data::GridWindowCount(len, l, stride);
    const bool tail = data::GridLeavesTail(len, l, stride);
    result.windows_full = len < l ? 1 : grid + (tail ? 1 : 0);
    const int32_t entry = static_cast<int32_t>(2 * i);
    feed[2 * i] = s;
    for (int64_t k = v.grid_windows; k < grid; ++k) {
      refs.push_back(WindowRef{entry, k * stride});
    }
    v.grid_windows = grid;

    if (len < l) {
      // A series shorter than one window is left-padded with zeros (the
      // stream's missing-reading fill) to a single window, so short
      // households still get real model predictions.
      overlay.padded.assign(static_cast<size_t>(l), 0.0f);
      std::copy(s.begin(), s.end(),
                overlay.padded.begin() + static_cast<size_t>(l - len));
      feed[2 * i + 1] = data::SeriesView(overlay.padded);
      refs.push_back(WindowRef{entry + 1, 0});
    } else if (tail) {
      feed[2 * i + 1] = s;
      refs.push_back(WindowRef{entry + 1, len - l});
    } else {
      continue;
    }
    overlay.active = true;
    overlay.offset = len - l;  // a pad occupies series coords [offset, 0)
    overlay.prob_sum.assign(static_cast<size_t>(l), 0.0f);
    overlay.cover.assign(static_cast<size_t>(l), 0);
    overlay.on_votes.assign(static_cast<size_t>(l), 0);
  }

  // Feed phase: every series' windows through shared GEMM batches —
  // batches fill across series boundaries, so the last windows of one
  // household (or a handful of tail-sized appends) share a forward pass
  // with the next instead of running nearly empty. Each series finalizes
  // on its own and is delivered right after the batch holding its last
  // window: it never waits for the windows of the series planned after it.
  //
  // The series one batch completes are all finalized before any of them
  // is delivered: delivering an append can hand its session's next
  // append to an idle worker, and handoffs trickling out between
  // finalizes let that worker start a pass for one append instead of
  // draining them together.
  MultiWindowStream stream(std::move(feed), options_.stream, std::move(refs));
  std::vector<int64_t> planned(n);
  std::vector<size_t> done;
  const auto deliver_done = [&] {
    for (size_t i : done) {
      Finalize(series[i], *votes[i], overlays_[i], &results[i]);
    }
    for (size_t i : done) {
      results[i].seconds = pass.ElapsedSeconds();
      on_result(i, std::move(results[i]));
    }
    done.clear();
  };
  for (size_t i = 0; i < n; ++i) {
    const int32_t entry = static_cast<int32_t>(2 * i);
    planned[i] = stream.NumWindowsOf(entry) + stream.NumWindowsOf(entry + 1);
    if (planned[i] == 0) done.push_back(i);  // nothing to feed: final
  }
  deliver_done();
  // Windows are planned series by series, so series complete in order and
  // one cursor finds every series the last batch finished.
  size_t next = 0;
  int64_t b = 0;
  while ((b = stream.NextBatch(&batch_, &batch_refs_)) > 0) {
    core::LocalizationResult loc = localizer_.Localize(batch_);
    StitchBatch(loc, batch_refs_, b, votes, &results);
    for (; next < n && results[next].windows == planned[next]; ++next) {
      if (planned[next] > 0) done.push_back(next);
    }
    deliver_done();
  }
}

void BatchRunner::StitchBatch(const core::LocalizationResult& loc,
                              const std::vector<WindowRef>& refs,
                              int64_t batch,
                              const std::vector<ScanVotes*>& votes,
                              std::vector<ScanResult>* results) {
  const int64_t l = options_.stream.window_length;
  for (int64_t i = 0; i < batch; ++i) {
    const WindowRef ref = refs[static_cast<size_t>(i)];
    const size_t owner = static_cast<size_t>(ref.series / 2);
    float* prob_sum;
    int32_t* cover;
    int32_t* on_votes;
    if (ref.series % 2 == 0) {
      ScanVotes& v = *votes[owner];
      prob_sum = v.prob_sum.data() + ref.offset;
      cover = v.cover.data() + ref.offset;
      on_votes = v.on_votes.data() + ref.offset;
    } else {
      OverlayState& overlay = overlays_[owner];
      prob_sum = overlay.prob_sum.data();
      cover = overlay.cover.data();
      on_votes = overlay.on_votes.data();
    }
    const float p = loc.probabilities.at(i);
    for (int64_t t = 0; t < l; ++t) {
      prob_sum[t] += p;
      ++cover[t];
      if (loc.status.at2(i, t) > 0.5f) ++on_votes[t];
    }
    ++(*results)[owner].windows;
  }
}

void BatchRunner::Finalize(data::SeriesView aggregate_watts,
                           const ScanVotes& votes, const OverlayState& overlay,
                           ScanResult* result) {
  const int64_t len = aggregate_watts.size();
  if (len == 0) return;
  const int64_t l = options_.stream.window_length;
  // Grid votes first, overlay last — the order a from-scratch stitch
  // visits the same windows, so the float sums are bit-identical however
  // the grid votes were accumulated.
  for (int64_t t = 0; t < len; ++t) {
    float p = votes.prob_sum[static_cast<size_t>(t)];
    int32_t c = votes.cover[static_cast<size_t>(t)];
    int32_t on = votes.on_votes[static_cast<size_t>(t)];
    if (overlay.active) {
      const int64_t j = t - overlay.offset;
      if (j >= 0 && j < l) {
        p += overlay.prob_sum[static_cast<size_t>(j)];
        c += overlay.cover[static_cast<size_t>(j)];
        on += overlay.on_votes[static_cast<size_t>(j)];
      }
    }
    if (c == 0) continue;
    result->detection.at(t) = p / static_cast<float>(c);
    result->status.at(t) = 2 * on > c ? 1.0f : 0.0f;
  }

  // §IV-C power estimation over the stitched status. Missing readings
  // carry no observed aggregate: they enter EstimatePower zero-filled and
  // the estimate is forced to 0 afterwards, so a voted-ON status at a NaN
  // timestamp can never report P_a-scale phantom power, whatever clamp
  // the estimator applies.
  nn::Tensor watts({1, len});
  for (int64_t t = 0; t < len; ++t) {
    const float v = aggregate_watts[t];
    watts.at(t) = data::IsMissing(v) ? 0.0f : v;
  }
  result->power =
      core::EstimatePower(result->status.Reshape({1, len}), watts,
                          options_.appliance_avg_power_w)
          .Reshape({len});
  for (int64_t t = 0; t < len; ++t) {
    if (data::IsMissing(aggregate_watts[t])) {
      result->power.at(t) = 0.0f;
    }
  }
}

void BatchRunner::ScanGroup(const std::vector<ScanJob>& jobs,
                            const ScanDelivery& on_result) {
  // A one-shot job is an append of the whole series to empty votes. Its
  // votes are runner scratch (cleared, capacity kept) and its view goes
  // straight to the stream, so no caller series is copied. An append job
  // commits its delta into the session's series and extends the
  // session's persisted votes.
  scratch_votes_.resize(std::max(scratch_votes_.size(), jobs.size()));
  std::vector<data::SeriesView> series(jobs.size());
  std::vector<ScanVotes*> votes(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    SessionScanState* state = jobs[i].session;
    if (state == nullptr) {
      ScanVotes& v = scratch_votes_[i];
      v.grid_windows = 0;
      v.prob_sum.clear();
      v.cover.clear();
      v.on_votes.clear();
      series[i] = jobs[i].readings;
      votes[i] = &v;
    } else {
      state->series.insert(state->series.end(), jobs[i].readings.begin(),
                           jobs[i].readings.end());
      series[i] = data::SeriesView(state->series);
      votes[i] = &state->votes;
    }
  }
  RunScan(series, votes, on_result);
}

ScanResult BatchRunner::ScanOne(ScanJob job) {
  ScanResult result;
  ScanGroup({job},
            [&result](size_t, ScanResult&& r) { result = std::move(r); });
  return result;
}

ScanResult BatchRunner::Scan(data::SeriesView aggregate_watts) {
  return ScanOne(ScanJob{aggregate_watts, nullptr});
}

ScanResult BatchRunner::AppendScan(SessionScanState* state,
                                   data::SeriesView delta) {
  CAMAL_CHECK(state != nullptr);
  return ScanOne(ScanJob{delta, state});
}

}  // namespace camal::serve
