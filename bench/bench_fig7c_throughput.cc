// Reproduces Fig. 7(c): inference throughput (windows/second) as a
// function of the input window length, for CamAL's ensemble and every
// baseline — and measures the batched inference runtime directly against
// the single-window loop it replaces (same ensemble, same windows,
// outputs checked to agree within 1e-4).

#include <cmath>
#include <limits>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/resnet.h"
#include "nn/loss.h"

namespace camal {
namespace {

// Times `iters` calls of `forward` (each covering `windows_per_call`
// windows) and returns windows/second.
template <typename Fn>
double Throughput(Fn&& forward, int iters, int64_t windows_per_call) {
  Stopwatch watch;
  for (int i = 0; i < iters; ++i) forward();
  const double elapsed = watch.ElapsedSeconds();
  return elapsed > 0.0 ? static_cast<double>(iters) * windows_per_call /
                             elapsed
                       : 0.0;
}

void Run() {
  bench::PrintHeader("Fig. 7(c) — inference throughput vs input length",
                     "Fig. 7(c) (windows/second per method)");
  const eval::BenchParams params = eval::CurrentBenchParams();

  std::vector<int64_t> lengths = {128, 256, 512};
  int iters = 20;
  if (params.mode == eval::BenchMode::kSmoke) {
    lengths = {64, 128};
    iters = 8;
  } else if (params.mode == eval::BenchMode::kFull) {
    lengths = {128, 256, 512, 1024, 2048};
    iters = 50;
  }
  constexpr int64_t kBatch = 32;

  baselines::BaselineScale scale;
  scale.width = params.baseline_width;
  const int ensemble_n = params.ensemble.ensemble_size;

  TablePrinter table({"Method", "Input length", "Windows/sec"});
  std::vector<std::vector<std::string>> csv_rows{
      {"method", "length", "windows_per_sec"}};
  // Machine-readable mirror of the CamAL rows (BENCH_fig7c.json) so CI
  // can track the serving-throughput trajectory across PRs.
  std::string json_rows;
  auto add_json_row = [&json_rows](const std::string& method, int64_t length,
                                   double windows_per_sec) {
    if (!json_rows.empty()) json_rows += ",";
    json_rows += "\n    {\"method\": \"" + method +
                 "\", \"length\": " + FmtInt(length) +
                 ", \"windows_per_sec\": " + Fmt(windows_per_sec, 2) + "}";
  };

  bool agreement_ok = true;
  double worst_ratio = std::numeric_limits<double>::infinity();
  for (int64_t len : lengths) {
    Rng rng(3);
    // A batch of windows, plus per-window (1, 1, len) views of it.
    nn::Tensor batch({kBatch, 1, len});
    for (int64_t i = 0; i < batch.numel(); ++i) {
      batch.at(i) = static_cast<float>(rng.Uniform(0.0, 1.0));
    }
    std::vector<nn::Tensor> windows;
    windows.reserve(kBatch);
    for (int64_t i = 0; i < kBatch; ++i) {
      nn::Tensor w({1, 1, len});
      for (int64_t t = 0; t < len; ++t) w.at3(0, 0, t) = batch.at3(i, 0, t);
      windows.push_back(std::move(w));
    }

    core::CamalEnsemble ensemble = bench::MakeBenchEnsemble(
        std::vector<int64_t>(static_cast<size_t>(ensemble_n), 7),
        params.base_filters, &rng);

    // Warm both paths before timing: first calls pay page faults, scratch
    // growth, and glibc's mmap-threshold adaptation for batch-sized
    // allocations — steady-state serving never sees any of that.
    for (int warm = 0; warm < 3; ++warm) {
      ensemble.DetectProbability(windows.front());
      ensemble.DetectProbabilityBatched(batch);
    }

    // Single-window loop (the pre-runtime serving path): one forward pass
    // per window per ensemble member.
    const double single_tput = Throughput(
        [&] {
          for (const nn::Tensor& w : windows) ensemble.DetectProbability(w);
        },
        iters, kBatch);
    // Batched runtime: all windows through every member in one pass.
    const double batched_tput = Throughput(
        [&] { ensemble.DetectProbabilityBatched(batch); }, iters, kBatch);

    // Correctness gate: both paths must produce the same probabilities.
    nn::Tensor batched_prob = ensemble.DetectProbabilityBatched(batch);
    for (int64_t i = 0; i < kBatch; ++i) {
      const float single_prob = ensemble.DetectProbability(windows[i]).at(0);
      if (std::abs(single_prob - batched_prob.at(i)) > 1e-4f) {
        agreement_ok = false;
      }
    }
    const double ratio =
        single_tput > 0.0 ? batched_tput / single_tput : 0.0;
    worst_ratio = std::min(worst_ratio, ratio);

    table.AddRow({"CamAL (single-window loop)", FmtInt(len),
                  Fmt(single_tput, 1)});
    table.AddRow({"CamAL (batched runtime)", FmtInt(len),
                  Fmt(batched_tput, 1)});
    csv_rows.push_back({"CamAL-single", FmtInt(len), Fmt(single_tput, 2)});
    csv_rows.push_back({"CamAL-batched", FmtInt(len), Fmt(batched_tput, 2)});
    csv_rows.push_back({"CamAL-batched-speedup", FmtInt(len), Fmt(ratio, 2)});
    add_json_row("CamAL-single", len, single_tput);
    add_json_row("CamAL-batched", len, batched_tput);

    for (baselines::BaselineKind kind : baselines::AllBaselines()) {
      if (kind == baselines::BaselineKind::kCrnnStrong) continue;  // same net
      if ((len % 4) != 0 || len < 32) continue;
      auto model = baselines::MakeBaseline(kind, scale, &rng);
      model->SetTraining(false);
      const double tput = Throughput(
          [&] { model->Forward(windows.front()); }, iters, 1);
      table.AddRow({baselines::BaselineName(kind), FmtInt(len),
                    Fmt(tput, 1)});
      csv_rows.push_back({baselines::BaselineName(kind), FmtInt(len),
                          Fmt(tput, 2)});
    }
  }
  table.Print(stdout);
  bench::WriteCsv("fig7c_throughput", csv_rows);
  bench::WriteTextFile(
      "BENCH_fig7c.json",
      std::string("{\n  \"bench\": \"fig7c_throughput\",\n") +
          "  \"mode\": \"" + eval::BenchModeName(params.mode) + "\",\n" +
          "  \"batch_size\": " + FmtInt(kBatch) + ",\n" +
          "  \"worst_batched_speedup\": " + Fmt(worst_ratio, 3) + ",\n" +
          "  \"agreement_ok\": " + (agreement_ok ? "true" : "false") +
          ",\n  \"rows\": [" + json_rows + "\n  ]\n}\n");
  // The speedup is informational: training Forward and ForwardInference
  // run the same conv GEMM, so the ratio is fused epilogues and timing
  // noise. The 1e-4 agreement below is the gate.
  std::printf("\nBatched runtime vs single-window loop at batch %lld: "
              "worst speedup %.2fx, outputs %s (1e-4).\n",
              static_cast<long long>(kBatch), worst_ratio,
              agreement_ok ? "AGREE" : "DISAGREE");
  // Correctness gate: a disagreement between the two paths must fail the
  // CI smoke-bench step, not just print.
  CAMAL_CHECK_MSG(agreement_ok,
                  "batched and single-window outputs disagree beyond 1e-4");
  std::printf("\nShape check vs paper: CamAL's throughput sits between the\n"
              "light convolutional baselines (TPNILM, Unet-NILM — faster)\n"
              "and the recurrent/transformer baselines (CRNN Weak,\n"
              "TransNILM — much slower, serial or quadratic).\n");
}

}  // namespace
}  // namespace camal

int main() {
  camal::Run();
  return 0;
}
