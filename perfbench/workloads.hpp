#pragma once

/// \file workloads.hpp
/// The benchmark's fixed training workloads: model, optimizer, data, stage
/// boundaries and sync settings of each, plus the seeded input generation.
///
/// Everything a workload feeds the system is generated from the workload
/// seed before any timing starts; the timed loop only indexes into the
/// pre-built batch pools.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "tensor/quantize.hpp"

namespace perfbench {

using namespace avgpipe;

/// Every workload runs N = 2 pipelines of K = 2 stages: 4 busy stage
/// threads, one per core of a 4-core host.
constexpr std::size_t kPipelines = 2;

/// One fixed workload. Every field is a constant of the benchmark; only the
/// seed varies between runs.
struct Workload {
  std::string name;
  /// Builds a replica from its initial-weight seed.
  std::function<nn::Sequential(std::uint64_t seed)> model;
  runtime::OptimizerFactory optimizer;
  /// The learning task. It is fixed: the run seed picks which samples are
  /// drawn from it, not the task itself, so eval_loss measures training
  /// rather than how hard one seed's task is.
  std::function<std::unique_ptr<data::Dataset>()> dataset;

  std::size_t batch_size = 0;     ///< samples per pipeline per iteration
  std::size_t micro_batches = 0;  ///< M
  /// First layer of stage 1 (K = 2). A constant, checked at start-up against
  /// the FLOP-balanced split computed from the layer shapes.
  std::vector<std::size_t> boundaries;
  std::size_t sync_lag = 0;       ///< async elastic sync, max applies in flight
  tensor::Codec codec = tensor::Codec::kNone;
  /// save_checkpoint period in iterations (0 = never); warm-ups never save.
  std::size_t checkpoint_every = 0;

  std::size_t warmup_iters = 0;  ///< untimed iterations closing each set-up
  /// Timed iterations per second of --seconds. A constant sized to this
  /// workload's speed on a 4-core host, so the iteration count never depends
  /// on a timing taken during the run.
  double iters_per_second = 0;
  /// samples_per_s is the median over windows of this many timed iterations
  /// (a multiple of checkpoint_every, so every window saves equally often).
  std::size_t window_iters = 0;
  /// eval_loss is taken after this many iterations (warm-ups included). The
  /// training pool holds exactly this many rounds, so the evaluation sees a
  /// model trained on each sample once.
  std::size_t eval_after = 0;

  /// The dominant GEMM of one stage on one micro-batch, [m,k] x [k,n].
  std::size_t gemm_m = 0, gemm_k = 0, gemm_n = 0;
  /// Fixed repetition count of the per-layer probes.
  std::size_t probe_reps = 0;
};

/// Held-out batches (of the workload's batch size) behind eval_loss.
constexpr std::size_t kHeldoutBatches = 128;

/// The workload table, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Pre-generated inputs of one run.
struct Inputs {
  /// eval_after rounds of kPipelines batches; iteration i trains on
  /// rounds[i mod rounds.size()], so the pool is cycled epoch by epoch.
  std::vector<std::vector<data::Batch>> rounds;
  std::vector<data::Batch> heldout;  ///< kHeldoutBatches batches

  const std::vector<data::Batch>& round(std::size_t iter) const {
    return rounds[iter % rounds.size()];
  }
};
Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Forward GEMM FLOPs of each layer for one micro-batch, counted through
/// tensor::thread_flops() (a count of 2·m·n·k per GEMM, not a timing).
std::vector<std::uint64_t> layer_flops(const Workload& w, const Inputs& in);

/// The boundary that minimises the larger stage's FLOPs (K = 2).
std::size_t flop_balanced_boundary(const std::vector<std::uint64_t>& flops);

/// Mean softmax cross-entropy of `model` over the held-out batches.
double heldout_loss(nn::Sequential& model, const Inputs& in);

}  // namespace perfbench
