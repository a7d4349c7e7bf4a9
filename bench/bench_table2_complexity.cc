// Reproduces Table II: theoretical complexity and trainable-parameter
// counts of CamAL and every baseline, instantiated at paper-scale widths —
// and measures each model's inference throughput on the training-kernel
// Forward (the pre-batched-runtime serving path, "before") against the
// batched ForwardInference path ("after"), writing the machine-readable
// BENCH_table2.json so CI tracks the per-baseline speedups per commit.

#include <cmath>
#include <map>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/resnet.h"
#include "nn/gemm.h"

namespace camal {
namespace {

// Times `iters` calls of `forward` (each covering `windows_per_call`
// windows) and returns windows/second.
template <typename Fn>
double Throughput(Fn&& forward, int iters, int64_t windows_per_call) {
  Stopwatch watch;
  for (int i = 0; i < iters; ++i) forward();
  const double elapsed = watch.ElapsedSeconds();
  return elapsed > 0.0
             ? static_cast<double>(iters) * windows_per_call / elapsed
             : 0.0;
}

double MaxAbsDiff(const nn::Tensor& a, const nn::Tensor& b) {
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff =
        std::max(max_diff, std::abs(static_cast<double>(a.at(i)) - b.at(i)));
  }
  return max_diff;
}

int Run() {
  bench::PrintHeader("Table II — model complexity and trainable parameters",
                     "Table II (complexity analysis, §V-C)");
  const eval::BenchParams params = eval::CurrentBenchParams();

  Rng rng(1);
  TablePrinter table({"Model", "Theoretical complexity", "#Params (ours)",
                      "#Params (paper)"});
  std::vector<std::vector<std::string>> csv_rows{
      {"model", "complexity", "params_ours", "params_paper"}};

  // CamAL: n ResNets at 64 base filters (paper: n x 570K).
  core::ResNetConfig rc;
  rc.base_filters = 64;
  rc.kernel_size = 7;
  core::ResNetClassifier resnet(rc, &rng);
  const int64_t per_resnet = resnet.NumParameters();
  table.AddRow({"CamAL (n ResNets)", "O(n * L * C^2 * K)",
                "n x " + FmtInt(per_resnet), "n x 570K"});
  csv_rows.push_back({"CamAL", "O(n*L*C^2*K)",
                      std::to_string(per_resnet), "570000"});

  const std::vector<std::pair<baselines::BaselineKind, std::string>> rows = {
      {baselines::BaselineKind::kCrnnStrong,
       "O(L * C^2 * K * (I*H + H^2))"},
      {baselines::BaselineKind::kBiGru, "O(L * C^2 * K * (I*H + H^2))"},
      {baselines::BaselineKind::kUnetNilm, "O(L * C^2 * K)"},
      {baselines::BaselineKind::kTpnilm, "O(L * C^2 * K)"},
      {baselines::BaselineKind::kTransNilm,
       "O(L^2 * D + L * C^2 * K)"},
  };
  const std::map<baselines::BaselineKind, std::string> paper_counts = {
      {baselines::BaselineKind::kCrnnStrong, "1049K"},
      {baselines::BaselineKind::kBiGru, "244K"},
      {baselines::BaselineKind::kUnetNilm, "3197K"},
      {baselines::BaselineKind::kTpnilm, "328K"},
      {baselines::BaselineKind::kTransNilm, "12418K"},
  };
  baselines::BaselineScale full;  // width = 1.0
  for (const auto& [kind, complexity] : rows) {
    auto model = baselines::MakeBaseline(kind, full, &rng);
    table.AddRow({baselines::BaselineName(kind), complexity,
                  FmtInt(model->NumParameters()),
                  paper_counts.at(kind)});
    csv_rows.push_back({baselines::BaselineName(kind), complexity,
                        std::to_string(model->NumParameters()),
                        paper_counts.at(kind)});
  }
  table.Print(stdout);
  bench::WriteCsv("table2_complexity", csv_rows);

  // ----------------------------------------------------------------------
  // Empirical inference cost behind the complexity column: every model on
  // the training-kernel Forward (eval mode — what the comparison benches
  // used to time) vs the batched ForwardInference path they now run.
  // ----------------------------------------------------------------------
  std::printf("\nInference throughput — training Forward (before) vs "
              "batched ForwardInference (after)\n");
  // The GEMM tier dispatch picked on this host, so the throughput numbers
  // (and the CI artifact) say which kernel they measured.
  const std::string gemm_tier = nn::GemmTierName();
  std::printf("GEMM/conv kernel tier: %s\n", gemm_tier.c_str());

  // Batch 32 in every mode: serving batches are what the runtime is
  // sized for, and smaller batches under-amortize per-batch costs on the
  // tiny smoke models.
  const int64_t batch = 32;
  int64_t len = params.window_length;
  int iters = 5;
  if (params.mode == eval::BenchMode::kSmoke) {
    len = 64;
    iters = 10;  // tiny models: calls are microseconds, noise needs reps
  } else if (params.mode == eval::BenchMode::kFull) {
    iters = 20;
  }

  Rng data_rng(3);
  nn::Tensor inputs({batch, 1, len});
  for (int64_t i = 0; i < inputs.numel(); ++i) {
    inputs.at(i) = static_cast<float>(data_rng.Uniform(0.0, 1.0));
  }

  baselines::BaselineScale bench_scale;
  bench_scale.width = params.baseline_width;

  TablePrinter tput_table({"Model", "Fwd w/s (before)", "Inf w/s (after)",
                           "Speedup", "Max |diff|"});
  std::string json_rows;
  bool parity_ok = true;
  auto measure = [&](const std::string& name, nn::Module* model) {
    model->SetTraining(false);
    // Warm both paths: first calls pay page faults and scratch growth.
    model->Forward(inputs);
    model->ForwardInference(inputs);
    const double before =
        Throughput([&] { model->Forward(inputs); }, iters, batch);
    const double after =
        Throughput([&] { model->ForwardInference(inputs); }, iters, batch);
    // Parity gate: the fast path must agree with the training kernels.
    const double diff =
        MaxAbsDiff(model->Forward(inputs), model->ForwardInference(inputs));
    const double speedup = before > 0.0 ? after / before : 0.0;
    tput_table.AddRow({name, Fmt(before, 1), Fmt(after, 1),
                       Fmt(speedup, 2) + "x", Fmt(diff, 6)});
    if (!json_rows.empty()) json_rows += ",";
    json_rows += "\n    {\"model\": \"" + name +
                 "\", \"forward_windows_per_sec\": " + Fmt(before, 2) +
                 ", \"inference_windows_per_sec\": " + Fmt(after, 2) +
                 ", \"speedup\": " + Fmt(speedup, 3) +
                 ", \"max_abs_diff\": " + Fmt(diff, 6) + "}";
    if (diff > 1e-4) {
      parity_ok = false;
      std::printf("FAIL: %s Forward/ForwardInference disagree (%g > 1e-4)\n",
                  name.c_str(), diff);
    }
  };

  for (const auto& [kind, complexity] : rows) {
    (void)complexity;
    Rng model_rng(7);
    auto model = baselines::MakeBaseline(kind, bench_scale, &model_rng);
    measure(baselines::BaselineName(kind), model.get());
  }
  {
    Rng model_rng(7);
    core::ResNetConfig bench_rc;
    bench_rc.base_filters = params.base_filters;
    bench_rc.kernel_size = 7;
    core::ResNetClassifier bench_resnet(bench_rc, &model_rng);
    measure("CamAL-ResNet", &bench_resnet);
  }
  tput_table.Print(stdout);

  bench::WriteTextFile(
      "BENCH_table2.json",
      std::string("{\n  \"bench\": \"table2_complexity\",\n") +
          "  \"mode\": \"" + eval::BenchModeName(params.mode) + "\"," +
          "\n  \"gemm_tier\": \"" + gemm_tier + "\"," +
          "\n  \"batch\": " + FmtInt(batch) +
          ",\n  \"window_length\": " + FmtInt(len) +
          ",\n  \"rows\": [" + json_rows + "\n  ]\n}\n");
  std::printf("\nWrote bench_results/BENCH_table2.json (per-model "
              "before/after inference throughput).\n");

  std::printf(
      "\nNote: our widths follow the published architectures; parameter\n"
      "counts are the same order of magnitude but not identical to the\n"
      "authors' exact configurations.\n");
  if (!parity_ok) {
    std::printf("\nFAIL: at least one model's batched inference diverged "
                "from its training forward (see lines above).\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace camal

int main() { return camal::Run(); }
