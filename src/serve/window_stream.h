#ifndef CAMAL_SERVE_WINDOW_STREAM_H_
#define CAMAL_SERVE_WINDOW_STREAM_H_

#include <cstdint>
#include <vector>

#include "data/series_view.h"
#include "nn/tensor.h"

namespace camal::serve {

/// Slicing/batching policy of a household scan.
struct WindowStreamOptions {
  /// Model input length L (must match the ensemble's training window).
  int64_t window_length = 128;
  /// Hop between consecutive windows; stride < window_length overlaps them
  /// so every timestamp is voted on by several windows.
  int64_t stride = 64;
  /// Windows per emitted batch.
  int64_t batch_size = 32;
  /// Aggregate Watts are divided by this before entering the model; must
  /// match data::BuildOptions::input_scale used at training time.
  float input_scale = 1000.0f;
};

/// Window start offsets for a series of \p len samples under \p options:
/// the stride grid, plus a tail window aligned to the series end when the
/// grid would leave trailing samples uncovered (and only then — a grid
/// whose last window already touches the end gets no duplicate). Series
/// shorter than one window yield no offsets.
std::vector<int64_t> ComputeWindowOffsets(int64_t len,
                                          const WindowStreamOptions& options);

/// Identifies one window inside a coalesced multi-series batch: which
/// series it was cut from and where it starts there.
struct WindowRef {
  int32_t series = 0;  ///< index into the stream's series list.
  int64_t offset = 0;  ///< window start offset within that series.
};

/// Streams the aggregate series of one or more households as batches of
/// overlapping, scaled windows — the feeder of the batched inference
/// runtime. A single forward pass can carry windows cut from different
/// households: batches keep filling across series boundaries instead of
/// flushing short. Missing readings (NaN) are zero-filled — serving cannot
/// drop windows the way training does. Every window fills through the
/// same row path, so its model input is bit-for-bit independent of which
/// series share its batch.
class MultiWindowStream {
 public:
  /// Every window of every series: each series windowed at
  /// ComputeWindowOffsets, series 0's windows first, then series 1's, ...
  /// Series shorter than one window contribute nothing. \p series entries
  /// are non-owning views (over a vector, a mapped ColumnStore channel,
  /// ...) whose backing storage must outlive the stream. All series share
  /// one slicing policy.
  MultiWindowStream(std::vector<data::SeriesView> series,
                    WindowStreamOptions options);

  /// Explicit-window variant, the feeder of BatchRunner scans: emits
  /// exactly \p refs, in the given order, instead of every window of
  /// every series. Each ref must address a series in \p series and fit
  /// inside it (offset >= 0, offset + window_length <= size). Rows fill
  /// through the same path as the full stream, so a window's model input
  /// is bit-for-bit independent of which variant cut it.
  MultiWindowStream(std::vector<data::SeriesView> series,
                    WindowStreamOptions options, std::vector<WindowRef> refs);

  /// Total windows across every series.
  int64_t NumWindows() const { return static_cast<int64_t>(refs_.size()); }

  /// Windows contributed by series \p s.
  int64_t NumWindowsOf(int32_t s) const {
    return windows_per_series_[static_cast<size_t>(s)];
  }

  /// Fills \p inputs with the next (B, 1, L) batch (B <= batch_size) and
  /// \p refs with the B (series, offset) pairs. Returns B; 0 when
  /// exhausted. \p inputs is reused in place when it already has the
  /// batch's shape (only the final short batch reallocates), so callers
  /// should pass the same tensor every iteration. A series' storage is
  /// read only while one of its windows is emitted: once its last window
  /// is out, the stream never reads it again (until Reset), so the caller
  /// may release or hand it off mid-stream — BatchRunner delivers each
  /// job at that point.
  int64_t NextBatch(nn::Tensor* inputs, std::vector<WindowRef>* refs);

  /// Rewinds to the first window.
  void Reset() { next_ = 0; }

  const WindowStreamOptions& options() const { return options_; }

 private:
  std::vector<data::SeriesView> series_;
  WindowStreamOptions options_;
  std::vector<WindowRef> refs_;  ///< all windows, series-major order.
  std::vector<int64_t> windows_per_series_;
  size_t next_ = 0;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_WINDOW_STREAM_H_
