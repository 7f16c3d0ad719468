#pragma once

/// \file probes.hpp
/// Per-layer probes: direct calls from the benchmark into each layer's
/// public functions on the workload's exact shapes, timed with
/// std::chrono::steady_clock over a fixed number of repetitions.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct LayerProbes {
  double gemm_gflops = 0;      ///< tensor::matmul on the dominant GEMM shape
  double fwd_ms = 0;           ///< one micro-batch forward, summed over stages
  double bwd_ms = 0;           ///< one micro-batch backward, summed over stages
  double stage_imbalance = 0;  ///< max/mean of per-stage fwd+bwd
  double optim_step_ms = 0;    ///< Optimizer::step() over one replica
  double train_batch_ms = 0;   ///< standalone PipelineRuntime::train_batch
  std::size_t peak_stash = 0;  ///< max over stages of that runtime
  double codec_ms = 0;         ///< SyncCodec::transmit on one replica (0: off)
  /// Exact byte counts of that transmit (wire == raw when the codec is off).
  std::uint64_t codec_wire_bytes = 0;
  std::uint64_t codec_raw_bytes = 0;
};

/// Run every probe with the calling thread's kernel share set to
/// `stage_workers`, the share each stage thread of the system gets.
LayerProbes run_probes(const Workload& w, const Inputs& in,
                       std::uint64_t model_seed, std::size_t stage_workers);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
/// Quantile q in [0, 1] by linear interpolation (0 for an empty sample).
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
