#include "workloads.hpp"

#include <algorithm>
#include <limits>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "optim/optimizer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

/// Dataset size for tasks whose samples are drawn by index (no DataLoader).
constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

std::vector<Workload> build_table() {
  std::vector<Workload> table;

  // GEMM-bound: hidden-256 MLP, two stages of ~equal FLOPs, lag-0 sync so
  // the loss trajectory is a pure function of the seed.
  {
    Workload w;
    w.name = "mlp-compute";
    w.model = [](std::uint64_t seed) {
      return nn::make_mlp(/*in=*/64, /*hidden=*/256, /*depth=*/5,
                          /*classes=*/10, seed);
    };
    w.optimizer = [](std::vector<tensor::Variable> params) {
      return std::make_unique<optim::Sgd>(std::move(params), /*lr=*/0.02,
                                          /*momentum=*/0.9);
    };
    w.dataset = [] {
      return std::make_unique<data::SyntheticFeatures>(
          kUnbounded, /*dim=*/64, /*classes=*/10, /*seed=*/101,
          /*noise=*/6.0);
    };
    w.batch_size = 128;
    w.micro_batches = 4;
    w.boundaries = {6};
    w.sync_lag = 0;
    w.warmup_iters = 10;
    w.iters_per_second = 50;
    w.window_iters = 50;
    w.eval_after = 300;
    w.gemm_m = 32;  // micro-batch rows
    w.gemm_k = 256;
    w.gemm_n = 256;
    w.probe_reps = 200;
    table.push_back(std::move(w));
  }

  // Hand-off-bound: a one-hidden-layer MLP cut into 16 micro-batches of 2
  // samples, async sync with one apply in flight.
  {
    Workload w;
    w.name = "mlp-chatty";
    w.model = [](std::uint64_t seed) {
      return nn::make_mlp(/*in=*/16, /*hidden=*/16, /*depth=*/1,
                          /*classes=*/4, seed);
    };
    w.optimizer = [](std::vector<tensor::Variable> params) {
      return std::make_unique<optim::Sgd>(std::move(params), /*lr=*/0.05,
                                          /*momentum=*/0.9);
    };
    w.dataset = [] {
      return std::make_unique<data::SyntheticFeatures>(
          kUnbounded, /*dim=*/16, /*classes=*/4, /*seed=*/102,
          /*noise=*/4.0);
    };
    w.batch_size = 32;
    w.micro_batches = 16;
    w.boundaries = {2};
    w.sync_lag = 1;
    w.warmup_iters = 200;
    w.iters_per_second = 2400;
    w.window_iters = 1000;
    w.eval_after = 1000;
    w.gemm_m = 2;
    w.gemm_k = 16;
    w.gemm_n = 16;
    w.probe_reps = 2000;
    table.push_back(std::move(w));
  }

  // Attention/layernorm kernels, Adam's two slots, the fp16 sync codec and
  // periodic durable checkpoints.
  {
    Workload w;
    w.name = "bert-async-ckpt";
    w.model = [](std::uint64_t seed) {
      return nn::make_bert_like(/*vocab=*/64, /*d_model=*/32, /*heads=*/4,
                                /*d_ff=*/64, /*encoder_layers=*/4,
                                /*classes=*/4, seed, /*dropout_p=*/0.0);
    };
    w.optimizer = [](std::vector<tensor::Variable> params) {
      return std::make_unique<optim::Adam>(std::move(params), /*lr=*/2e-3);
    };
    w.dataset = [] {
      return std::make_unique<data::SyntheticSeqClassification>(
          kUnbounded, /*vocab=*/64, /*seq_len=*/16, /*classes=*/4,
          /*seed=*/103, /*signal=*/0.3);
    };
    w.batch_size = 32;
    w.micro_batches = 4;
    w.boundaries = {3};
    w.sync_lag = 1;
    w.codec = tensor::Codec::kFp16;
    w.checkpoint_every = 25;
    w.warmup_iters = 5;
    w.iters_per_second = 40;
    w.window_iters = 50;
    w.eval_after = 800;
    w.gemm_m = 8 * 16;  // micro-batch rows x tokens, FFN up-projection
    w.gemm_k = 32;
    w.gemm_n = 64;
    w.probe_reps = 100;
    table.push_back(std::move(w));
  }
  return table;
}

std::vector<std::size_t> sample_range(std::size_t begin, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = begin + i;
  return idx;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = build_table();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  const auto dataset = w.dataset();
  Inputs in;
  // The held-out set is the task's fixed test split (indices from 0); each
  // seed draws its own disjoint run of training indices above it. A sample's
  // class is its index mod the class count, and the offsets are multiples of
  // every class count, so each seed sees the same class sequence.
  std::size_t next = 0;
  for (std::size_t i = 0; i < kHeldoutBatches; ++i) {
    in.heldout.push_back(dataset->make_batch(sample_range(next, w.batch_size)));
    next += w.batch_size;
  }
  next = (static_cast<std::size_t>(seed) + 1) * 1'000'000'000;
  for (std::size_t i = 0; i < w.eval_after; ++i) {
    std::vector<data::Batch> round;
    for (std::size_t p = 0; p < kPipelines; ++p) {
      round.push_back(dataset->make_batch(sample_range(next, w.batch_size)));
      next += w.batch_size;
    }
    in.rounds.push_back(std::move(round));
  }
  return in;
}

std::vector<std::uint64_t> layer_flops(const Workload& w, const Inputs& in) {
  nn::Sequential model = w.model(0);
  const auto micro =
      data::slice_micro_batches(in.round(0).at(0), w.micro_batches);
  tensor::Variable h(micro.at(0).inputs);
  std::vector<std::uint64_t> flops;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const std::uint64_t f0 = tensor::thread_flops();
    h = model.layer(i)->forward(h);
    flops.push_back(tensor::thread_flops() - f0);
  }
  return flops;
}

std::size_t flop_balanced_boundary(const std::vector<std::uint64_t>& flops) {
  std::uint64_t total = 0;
  for (const auto f : flops) total += f;
  std::size_t best = 1;
  std::uint64_t best_max = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t prefix = 0;
  for (std::size_t b = 1; b < flops.size(); ++b) {
    prefix += flops[b - 1];
    const std::uint64_t worst = std::max(prefix, total - prefix);
    if (worst <= best_max) {  // ties: keep an activation with its Linear
      best_max = worst;
      best = b;
    }
  }
  return best;
}

double heldout_loss(nn::Sequential& model, const Inputs& in) {
  model.set_training(false);
  double sum = 0;
  for (const auto& batch : in.heldout) {
    const tensor::Variable logits =
        model.forward(tensor::Variable(batch.inputs));
    sum += tensor::softmax_cross_entropy(logits, batch.targets).value()[0];
  }
  model.set_training(true);
  return sum / static_cast<double>(in.heldout.size());
}

}  // namespace perfbench
