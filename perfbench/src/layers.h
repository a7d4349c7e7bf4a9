// The traced run's per-layer breakdown: direct, span-wrapped calls into
// each layer's public functions over the workload's own inputs, plus the
// service-level numbers the workload's measured phase collected.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "serve/service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Layer numbers only the workload's measured phase can see.
struct ServiceObservations {
  std::vector<double> queue_wait_seconds;  ///< latency_seconds - seconds.
  camal::serve::ServiceStats before;
  camal::serve::ServiceStats after;
  double max_submit_lag_seconds = 0.0;
  /// Checkpoint timings of the run itself (session_stream); when empty
  /// the breakdown measures checkpoints on a small probe service.
  std::vector<double> checkpoint_write_seconds;
  double checkpoint_bytes = 0.0;
  double restore_seconds = 0.0;
};

/// FLOPs of one ResNet member forward on one window: 2 x multiply-adds of
/// every convolution (three residual units of {k, 5, 3} kernels with
/// {f, 2f, 2f} filters, plus the 1x1 shortcut convolutions), computed from
/// the layer shapes. BatchNorm, ReLU, pooling and the head are excluded.
double MemberFlopsPerWindow(int64_t kernel, int64_t base_filters,
                            int64_t length);

/// Runs the breakdown on \p deployment, whose service must be shut down
/// (the breakdown drives the ensembles directly). Appends per_layer
/// metrics and notes to \p report; spans go to \p tracer.
void MeasureLayers(Deployment* deployment, const ServiceObservations& run,
                   Tracer* tracer, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
