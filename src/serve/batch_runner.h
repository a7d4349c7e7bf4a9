#ifndef CAMAL_SERVE_BATCH_RUNNER_H_
#define CAMAL_SERVE_BATCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/localizer.h"
#include "data/series_view.h"
#include "serve/window_stream.h"

namespace camal::serve {

/// Configuration of a BatchRunner scan.
struct BatchRunnerOptions {
  WindowStreamOptions stream;
  core::LocalizerOptions localizer;
  /// Appliance average power P_a (Watts) for §IV-C power estimation.
  float appliance_avg_power_w = 0.0f;
};

/// Per-timestamp result of scanning one household series.
struct ScanResult {
  nn::Tensor detection;  ///< (T) mean detection prob of covering windows.
  nn::Tensor status;     ///< (T) 0/1 activation by majority vote of windows.
  nn::Tensor power;      ///< (T) estimated appliance Watts (§IV-C).
  int64_t windows = 0;   ///< windows processed.
  /// Windows a from-scratch scan of the full series would process. Equal
  /// to `windows` for one-shot scans; for incremental session appends the
  /// gap windows_full - windows is the feed work the persisted stitch
  /// state saved.
  int64_t windows_full = 0;
  /// Wall-clock time from the start of the scan pass to this job's
  /// delivery: planning, the feed batches up to the one holding the
  /// job's last window, and its finalize. For a lone scan that is the
  /// whole scan; inside a coalesced ScanGroup it is the pass time the job
  /// waited for, so earlier jobs of a group report less than later ones.
  double seconds = 0.0;
  /// End-to-end request latency when served through serve::Service:
  /// admission to delivery. latency_seconds - seconds is the time spent
  /// before the pass started (the queue wait). 0 for direct BatchRunner
  /// calls, which never queue.
  double latency_seconds = 0.0;

  /// Windows per second of the scan (0 when timing was too fast to resolve).
  double WindowsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(windows) / seconds : 0.0;
  }
};

/// Stride-grid window votes of one series: the per-timestamp stitch
/// accumulators every scan folds its grid windows into. Grid windows never
/// move once committed (growing a series only appends offsets), so votes
/// can persist across appends; BatchRunner only reads and extends them,
/// and votes extended by one runner can be extended by another — the
/// per-window forward results they cache are replica- and
/// batch-composition-invariant.
///
/// The end-aligned tail window — and the zero-padded window of a series
/// still shorter than one window — depends on the current series end, so
/// it never enters the votes: every scan recomputes it into a transient
/// overlay summed after the grid votes. That is a from-scratch stitch's
/// accumulation order (grid windows ascending, tail last) bit for bit,
/// which is what makes incremental results bitwise-identical to a full
/// rescan of the concatenated series.
struct ScanVotes {
  int64_t grid_windows = 0;       ///< grid windows already accumulated.
  std::vector<float> prob_sum;    ///< per-timestamp grid probability sum.
  std::vector<int32_t> cover;     ///< grid windows covering each timestamp.
  std::vector<int32_t> on_votes;  ///< grid ON votes per timestamp.
};

/// Persisted stitch state of one streaming household: its committed
/// readings plus their grid votes — everything an incremental rescan
/// needs to extend the household's result without re-feeding committed
/// windows. Owned by serve::Session (or any caller driving AppendScan
/// directly).
struct SessionScanState {
  std::vector<float> series;  ///< committed aggregate readings (owned).
  ScanVotes votes;            ///< grid votes over `series`.

  /// Readings committed so far.
  int64_t readings() const { return static_cast<int64_t>(series.size()); }
};

/// One job of a coalesced BatchRunner::ScanGroup: a one-shot scan of
/// `readings` when `session` is null, otherwise an incremental append of
/// `readings` (the delta) to that session's persisted state.
struct ScanJob {
  data::SeriesView readings;
  SessionScanState* session = nullptr;
};

/// Receives one finished job of a BatchRunner::ScanGroup: its index in
/// the group and its final result.
using ScanDelivery = std::function<void(size_t job, ScanResult&& result)>;

/// End-to-end batched serving for one appliance: slices a household
/// aggregate into overlapping windows (MultiWindowStream), pushes them
/// through the CamAL localization pipeline batch by batch via the
/// inference-only forward path, and stitches per-window detections and
/// activation masks back into per-timestamp series. Overlapping windows
/// vote: detection is the mean window probability covering a timestamp,
/// status the majority of window masks, and power the §IV-C estimate over
/// the voted status (forced to 0 at missing readings, which have no
/// observed aggregate).
///
/// There is one stitch engine and one coalesced entry point, ScanGroup;
/// Scan and AppendScan are one-job groups. A one-shot scan is an append
/// of the whole series to empty votes: a one-shot job passes its borrowed
/// view plus reused scratch votes, an append job its session's committed
/// series plus the session's persisted votes. Either way the windows not
/// yet voted — grid windows into the votes, the tail or pad window into a
/// transient overlay — stream through shared GEMM batches, and each
/// series finalizes on its own once its last window is stitched. Because
/// per-window forward results do not depend on which other windows share
/// a batch, every job of a coalesced group gets results bitwise-identical
/// to a lone scan of it.
class BatchRunner {
 public:
  /// \p ensemble is borrowed and must outlive the runner.
  BatchRunner(core::CamalEnsemble* ensemble, BatchRunnerOptions options);

  /// Scans \p aggregate_watts (unscaled Watts; NaN = missing reading).
  /// The view is borrowed for the duration of the call only — it can sit
  /// over a vector or straight over a mapped ColumnStore channel; nothing
  /// is copied either way. Series shorter than one window are left-padded
  /// with zeros (the stream's missing-value fill) to a single window and
  /// scanned, so even short households get real predictions; empty series
  /// return all-zero results. Not thread-safe: a runner owns reusable scan
  /// scratch, so concurrent scans need one runner each (serve::Service
  /// gives every worker its own).
  ScanResult Scan(data::SeriesView aggregate_watts);

  /// Incremental rescan: appends \p delta to \p state's committed series
  /// and feeds ONLY the windows the new tail touches — grid windows not
  /// yet committed plus the end-aligned tail (or short-series pad) window
  /// — reusing the persisted votes for everything else. Returns the
  /// full-series result, bitwise-identical to Scan(state->series) after
  /// the append; its `windows` counts only the windows actually fed.
  /// Empty deltas are fine (they re-finalize without feeding anything).
  /// \p delta must not view \p state's own committed series (it is copied
  /// into it). Not thread-safe, like Scan; concurrent appends to one
  /// state are the caller's bug (serve::Service serializes per session).
  ScanResult AppendScan(SessionScanState* state, data::SeriesView delta);

  /// Coalesced scan of a group of jobs — one-shot scans and session
  /// appends alike — through shared GEMM batches: one feed phase carries
  /// every job's windows in job order (batches fill across job
  /// boundaries, so small households and tail-sized appends no longer
  /// mean underfilled batches), and each job stitches and finalizes on
  /// its own. Every job is handed to \p on_result exactly once, as soon
  /// as the batch holding its last window is stitched, so a job never
  /// waits for the windows of the jobs after it. Delivery order: jobs
  /// with nothing to feed (an empty one-shot or an empty append to a
  /// still-empty session) before the feed starts, then the rest in job
  /// order. The result for job i is bitwise-identical to a lone
  /// Scan(jobs[i].readings) or AppendScan(jobs[i].session,
  /// jobs[i].readings): the batches, and therefore every output bit, do
  /// not depend on when results are handed out.
  ///
  /// Once job i is delivered the pass never touches its readings, its
  /// session state or its votes again, so \p on_result may hand the
  /// session (or the readings' storage) to another thread while the pass
  /// goes on. One-shot jobs may repeat or be empty; append jobs must name
  /// distinct sessions, and no job's readings may view a session series
  /// the group appends to (it may reallocate). If the scan throws, the
  /// jobs already delivered are final and the rest get no result. Not
  /// thread-safe, like Scan.
  void ScanGroup(const std::vector<ScanJob>& jobs,
                 const ScanDelivery& on_result);

  /// Validates scan options without constructing a runner — the Status
  /// mirror of the constructor's programmer-error CHECKs, for callers
  /// (serve::Service::RegisterAppliance) that take options from
  /// configuration and must reject bad ones instead of aborting.
  static Status ValidateOptions(const BatchRunnerOptions& options);

  const BatchRunnerOptions& options() const { return options_; }

 private:
  /// Transient accumulators for the end-dependent window of one scan (the
  /// tail or short-series pad window), kept out of the votes because the
  /// series end moves on every append.
  struct OverlayState {
    bool active = false;  ///< this scan has a tail or pad window.
    /// Series coordinate of overlay index 0; negative for a pad window
    /// (the synthetic zeros occupy [offset, 0)).
    int64_t offset = 0;
    std::vector<float> padded;    ///< padded feed copy when len < window.
    std::vector<float> prob_sum;  ///< window-length vote buffers.
    std::vector<int32_t> cover;
    std::vector<int32_t> on_votes;
  };

  /// The scan engine behind every public entry point: extends votes[i]
  /// to series[i], feeds exactly the windows it lacks — grid windows from
  /// votes[i]->grid_windows upward plus the tail or pad window — through
  /// shared batches, and finalizes each series (grid votes first, overlay
  /// last), handing it to \p on_result right after the batch holding its
  /// last window is stitched (see ScanGroup for the order).
  ///
  /// Session invariant: after series i is delivered, RunScan never reads
  /// series[i] nor touches votes[i] or its overlay again. The stream reads
  /// an entry only while emitting its windows, and every window of series
  /// i was emitted before its delivery. A view (and a session's votes) is
  /// therefore only required to stay valid until its own delivery.
  void RunScan(const std::vector<data::SeriesView>& series,
               const std::vector<ScanVotes*>& votes,
               const ScanDelivery& on_result);

  /// A one-job ScanGroup: Scan and AppendScan.
  ScanResult ScanOne(ScanJob job);

  /// Folds one localized batch into its owners' votes or overlays and
  /// counts each owner's stitched windows. Stream entry 2i feeds series
  /// i's grid windows, 2i + 1 its overlay window.
  void StitchBatch(const core::LocalizationResult& loc,
                   const std::vector<WindowRef>& refs, int64_t batch,
                   const std::vector<ScanVotes*>& votes,
                   std::vector<ScanResult>* results);

  /// Sums \p votes and \p overlay into \p result's detection/status
  /// series, then estimates power (§IV-C) over \p aggregate_watts.
  void Finalize(data::SeriesView aggregate_watts, const ScanVotes& votes,
                const OverlayState& overlay, ScanResult* result);

  core::CamalEnsemble* ensemble_;
  core::CamalLocalizer localizer_;
  BatchRunnerOptions options_;
  // Scan scratch reused across calls (one scan stitches hundreds of
  // batches; per-batch allocation churn showed up in serving profiles).
  std::vector<ScanVotes> scratch_votes_;  ///< one-shot scans' votes.
  std::vector<OverlayState> overlays_;
  std::vector<WindowRef> batch_refs_;
  nn::Tensor batch_;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_BATCH_RUNNER_H_
