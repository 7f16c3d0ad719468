#include "probes.hpp"

#include <algorithm>
#include <chrono>

#include "common/thread_pool.hpp"
#include "core/sync_compression.hpp"
#include "fault/fault_plan.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median time of `reps` calls of `fn`, in ms.
template <typename Fn>
double time_median_ms(std::size_t reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(std::move(ms));
}

double gemm_gflops(const Workload& w) {
  Rng rng(7);
  const tensor::Variable a(tensor::Tensor::randn({w.gemm_m, w.gemm_k}, rng));
  const tensor::Variable b(tensor::Tensor::randn({w.gemm_k, w.gemm_n}, rng));
  const double ms = time_median_ms(w.probe_reps, [&] {
    const tensor::Variable c = tensor::matmul(a, b);
    (void)c;
  });
  const double flops =
      2.0 * static_cast<double>(w.gemm_m * w.gemm_k * w.gemm_n);
  return flops / (ms * 1e-3) / 1e9;
}

/// Forward and backward of one micro-batch through each stage view; leaves
/// the accumulated gradients on `model` for the optimizer probe.
void stage_probe(const Workload& w, const Inputs& in, nn::Sequential& model,
                 LayerProbes* out) {
  auto stages = model.partition(w.boundaries);
  const auto micro =
      data::slice_micro_batches(in.round(0).at(0), w.micro_batches);
  const data::Batch& mb = micro.at(0);
  const runtime::LossFn loss_fn = runtime::cross_entropy_loss();
  const std::size_t k = stages.size();
  std::vector<std::vector<double>> fwd(k), bwd(k);
  for (std::size_t r = 0; r < w.probe_reps; ++r) {
    std::vector<tensor::Variable> inputs(k), outputs(k);
    for (std::size_t s = 0; s < k; ++s) {
      const auto t0 = Clock::now();
      inputs[s] = s == 0 ? tensor::Variable(mb.inputs)
                         : tensor::Variable(outputs[s - 1].value(),
                                            /*requires_grad=*/true);
      tensor::Variable out = stages[s].forward(inputs[s]);
      if (s + 1 == k) out = loss_fn(out, mb.targets);
      outputs[s] = out;
      fwd[s].push_back(ms_since(t0));
    }
    for (std::size_t s = k; s-- > 0;) {
      const auto t0 = Clock::now();
      if (s + 1 == k) {
        outputs[s].backward();
      } else {
        outputs[s].backward(inputs[s + 1].grad());
      }
      bwd[s].push_back(ms_since(t0));
    }
  }
  double slowest = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const double f = median(fwd[s]);
    const double b = median(bwd[s]);
    out->fwd_ms += f;
    out->bwd_ms += b;
    slowest = std::max(slowest, f + b);
  }
  const double mean = (out->fwd_ms + out->bwd_ms) / static_cast<double>(k);
  out->stage_imbalance = mean > 0 ? slowest / mean : 0;
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

LayerProbes run_probes(const Workload& w, const Inputs& in,
                       std::uint64_t model_seed, std::size_t stage_workers) {
  PartitionGuard share(stage_workers);
  LayerProbes out;
  out.gemm_gflops = gemm_gflops(w);

  nn::Sequential model = w.model(model_seed);
  stage_probe(w, in, model, &out);
  auto optimizer = w.optimizer(model.parameters());
  out.optim_step_ms = time_median_ms(w.probe_reps, [&] { optimizer->step(); });

  {
    static const fault::FaultPlan kNoFaults;
    runtime::PipelineRuntime rt(w.model(model_seed), w.boundaries, w.optimizer,
                                runtime::cross_entropy_loss(),
                                schedule::Kind::kAdvanceForward);
    rt.set_faults(&kNoFaults);
    rt.set_stage_workers(stage_workers);
    const std::size_t reps = std::max<std::size_t>(20, w.probe_reps / 5);
    std::size_t i = 0;
    for (; i < 3; ++i) rt.train_batch(in.round(i).at(0), w.micro_batches);
    out.train_batch_ms = time_median_ms(reps, [&] {
      rt.train_batch(in.round(i++).at(0), w.micro_batches);
    });
    for (std::size_t s = 0; s < rt.num_stages(); ++s) {
      out.peak_stash = std::max(out.peak_stash, rt.peak_stash(s));
    }
  }

  core::SyncCodec codec(core::SyncCompression{w.codec, true});
  core::ParamSet params = core::clone_values(model.parameters());
  const auto stats = codec.transmit(params);
  out.codec_wire_bytes = stats.wire_bytes;
  out.codec_raw_bytes = stats.raw_bytes;
  if (codec.enabled()) {
    out.codec_ms =
        time_median_ms(w.probe_reps, [&] { codec.transmit(params); });
  }
  return out;
}

}  // namespace perfbench
