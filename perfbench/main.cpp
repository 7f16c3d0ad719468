/// \file main.cpp
/// The AvgPipe benchmark: trains core::AvgPipe on one fixed, seeded workload
/// in a closed loop (one driver thread calling train_iteration back to back)
/// and prints its metrics as one JSON line.
///
///   avgpipe_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                     --scratch DIR
///
/// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
/// makes an untraced run, a traced run over its first timed iterations and
/// direct per-layer probes, and reports the per-layer metrics. Either mode
/// checks the outputs; the process exits 1 when a check fails and 2 when it
/// refuses to run (bad arguments, a workload-changing environment variable,
/// or an unoptimised build).

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "core/avgpipe.hpp"
#include "fault/fault_plan.hpp"
#include "probes.hpp"
#include "tensor/arena.hpp"
#include "trace/analysis.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Environment variables that change what a workload computes or how the
/// runtime is provisioned. The benchmark pins these itself and refuses to
/// run when one is set, so every run measures the same configuration.
constexpr const char* kRefusedEnv[] = {
    "AVGPIPE_FAULT_PLAN",       "AVGPIPE_SYNC_COMPRESS",
    "AVGPIPE_CHANNEL_CAPACITY", "AVGPIPE_ARENA_MAX_MB",
    "AVGPIPE_STAGE_THREADS",
};

/// Initial weights are part of the workload, the same for every seed.
constexpr std::uint64_t kModelSeed = 1234;

/// Training must cut the held-out loss below this share of the untrained
/// model's.
constexpr double kMaxLossRatio = 0.8;

/// Set-ups per run; setup_s is their median. The first ones pay one-time
/// costs (the heap growing, thread stacks faulting in), so one sample alone
/// would swing with process history.
constexpr std::size_t kSetupReps = 9;

/// The traced run covers this many throughput windows. That bounds the
/// events held in memory: mlp-chatty records about 400 per iteration.
constexpr std::size_t kTracedWindows = 4;

/// Kernel-pool share of each stage thread: N*K = 4 stage threads, one core
/// each on a 4-core host, on every host.
constexpr std::size_t kStageWorkers = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;
};

[[noreturn]] void refuse(const std::string& why) {
  std::cerr << "perfbench: refusing to run: " << why << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) refuse("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--scratch") {
      a.scratch = val;
    } else {
      refuse("unknown argument " + key);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    std::string names;
    for (const auto& w : workloads()) names += " " + w.name;
    refuse("--workload must be one of:" + names);
  }
  if (!have_seed || !have_seconds || !have_trace || a.scratch.empty()) {
    refuse("need --seed N --seconds S --trace 0|1 --scratch DIR");
  }
  return a;
}

void check_environment() {
  for (const char* name : kRefusedEnv) {
    const char* v = common::env_raw(name);
    if (v != nullptr && *v != '\0') {
      refuse(std::string(name) + " is set; it changes the workload");
    }
  }
  const std::string build = AVGPIPE_BENCH_BUILD_TYPE;
#ifndef NDEBUG
  refuse("assertions are enabled (build type '" + build + "')");
#endif
  if (build == "Debug") refuse("Debug build");
  // Pin the stage-worker share before any runtime reads it (no thread has
  // been started yet, which env.hpp's read-before-threads contract needs).
  setenv("AVGPIPE_STAGE_THREADS", std::to_string(kStageWorkers).c_str(), 1);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// -- the closed-loop training run ---------------------------------------------

struct RunOptions {
  trace::Tracer* tracer = nullptr;
  std::size_t setup_reps = 1;
  std::size_t timed_iters = 0;
  std::string scratch;
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> warmup_losses;  ///< one list per set-up
  std::vector<double> losses;                      ///< timed iterations
  std::vector<double> iter_ms;
  /// Wall time of each window of w.window_iters timed iterations,
  /// checkpoints included, held-out evaluation excluded.
  std::vector<double> window_s;
  double eval_s = 0;  ///< wall time of the held-out evaluation pause
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t final_alive = 0;
  double eval_loss = NAN;
  std::vector<double> save_ms;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t heap_allocs = 0;  ///< arena heap allocations, timed phase
  /// Traced runs: the timed phase's events and its wall time, less the
  /// evaluation pause.
  std::vector<trace::TraceEvent> events;
  Seconds traced_s = 0;
};

RunResult run_training(const Workload& w, const Inputs& in,
                       const RunOptions& opt) {
  static const fault::FaultPlan kNoFaults;
  const nn::ModelFactory factory = [&w](std::uint64_t) {
    return w.model(kModelSeed);
  };
  RunResult res;
  std::unique_ptr<ckpt::CheckpointDir> ckpt_dir;
  std::unique_ptr<core::AvgPipe> system;

  auto step = [&](std::size_t iter, std::vector<double>* losses) {
    ++res.attempted;
    double loss = NAN;
    try {
      loss = system->train_iteration(in.round(iter));
    } catch (const std::exception& e) {
      std::cerr << "perfbench: iteration " << iter << " threw: " << e.what()
                << "\n";
    }
    if (!std::isfinite(loss) || system->alive_pipelines() < kPipelines) {
      ++res.failed;
    }
    losses->push_back(loss);
  };

  core::AvgPipeConfig cfg;
  cfg.num_pipelines = kPipelines;
  cfg.micro_batches = w.micro_batches;
  cfg.boundaries = w.boundaries;
  cfg.kind = schedule::Kind::kAdvanceForward;
  cfg.async_sync = true;
  cfg.sync_lag = w.sync_lag;
  cfg.tracer = opt.tracer;
  cfg.faults = &kNoFaults;
  cfg.sync_compression = core::SyncCompression{w.codec, true};
  for (std::size_t rep = 0; rep < opt.setup_reps; ++rep) {
    system.reset();
    ckpt_dir.reset();
    if (w.checkpoint_every > 0) {
      // A fresh directory per set-up: checkpoint steps must increase.
      const std::string dir = opt.scratch + "/ckpt-" + std::to_string(rep);
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      ckpt_dir = std::make_unique<ckpt::CheckpointDir>(dir);
      cfg.checkpoints = ckpt_dir.get();
    }
    const auto t0 = Clock::now();
    system = std::make_unique<core::AvgPipe>(factory, w.optimizer, cfg);
    res.warmup_losses.emplace_back();
    for (std::size_t i = 0; i < w.warmup_iters; ++i) {
      step(i, &res.warmup_losses.back());
    }
    system->synchronize();
    res.setup_s.push_back(seconds_since(t0));
  }

  Seconds trace_begin = 0;
  if (opt.tracer != nullptr) {
    opt.tracer->clear();
    trace_begin = opt.tracer->wall_now();
  }
  const std::uint64_t allocs0 = tensor::arena::stats().heap_allocs;
  double paused_s = 0;
  auto window_start = Clock::now();
  for (std::size_t n = 0; n < opt.timed_iters; ++n) {
    const std::size_t iter = w.warmup_iters + n;
    if (n > 0 && n % w.window_iters == 0) {
      res.window_s.push_back(seconds_since(window_start) - paused_s);
      window_start = Clock::now();
      paused_s = 0;
    }
    const auto t0 = Clock::now();
    step(iter, &res.losses);
    res.iter_ms.push_back(seconds_since(t0) * 1e3);
    if (w.checkpoint_every > 0 && (iter + 1) % w.checkpoint_every == 0) {
      const auto s0 = Clock::now();
      const ckpt::ManifestEntry entry = system->save_checkpoint();
      res.save_ms.push_back(seconds_since(s0) * 1e3);
      res.ckpt_bytes = entry.bytes;
    }
    if (iter + 1 == w.eval_after) {
      const auto e0 = Clock::now();
      res.eval_loss = heldout_loss(system->eval_model(), in);
      res.eval_s = seconds_since(e0);
      paused_s += res.eval_s;
    }
  }
  res.window_s.push_back(seconds_since(window_start) - paused_s);
  res.heap_allocs = tensor::arena::stats().heap_allocs - allocs0;
  res.final_alive = system->alive_pipelines();
  if (opt.tracer != nullptr) {
    system->synchronize();
    const Seconds trace_end = opt.tracer->wall_now();
    system.reset();  // every emitting thread has stopped
    res.events = opt.tracer->collect();
    std::erase_if(res.events, [&](const trace::TraceEvent& ev) {
      return ev.t_begin < trace_begin || ev.t_begin > trace_end;
    });
    res.traced_s = trace_end - trace_begin - res.eval_s;
  }
  return res;
}

// -- metrics and checks ------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Checks {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
};

/// Median over the timed windows, so a burst of load from outside the
/// process moves the result only if it covers half the run.
double samples_per_s(const Workload& w, const RunResult& r) {
  const double samples =
      static_cast<double>(w.window_iters * kPipelines * w.batch_size);
  std::vector<double> rates;
  for (const double s : r.window_s) rates.push_back(samples / s);
  return median(std::move(rates));
}

void check_run(const RunResult& r, Checks* checks) {
  checks->expect(r.failed == 0, std::to_string(r.failed) + " of " +
                                    std::to_string(r.attempted) +
                                    " iterations failed");
  checks->expect(r.final_alive == kPipelines, "a pipeline was detached");
}

void check_eval(const RunResult& r, double untrained, Checks* checks) {
  checks->expect(std::isfinite(r.eval_loss) &&
                     r.eval_loss < kMaxLossRatio * untrained,
                 "eval_loss " + json_number(r.eval_loss) +
                     " not below " + json_number(kMaxLossRatio) +
                     " x untrained loss " + json_number(untrained));
}

/// Stage-thread time shares from the traced run, one TraceAnalysis per
/// pipeline so each (pipeline, stage) pair is one stage thread.
struct StageShares {
  double compute = 0, comm_wait = 0, bubble = 0, idle_max = 0;
  double attributed = 0, gflops = 0;
};

StageShares stage_shares(const std::vector<trace::TraceEvent>& events,
                         const Workload& w, Seconds wall) {
  StageShares s;
  const std::size_t k = w.boundaries.size() + 1;
  std::size_t threads = 0;
  for (std::size_t p = 0; p < kPipelines; ++p) {
    std::vector<trace::TraceEvent> own;
    for (const auto& ev : events) {
      const bool stage_event =
          trace::is_compute(ev.kind) || trace::is_wait(ev.kind) ||
          ev.counter == trace::CounterId::kFlops;
      if (ev.pipeline == p && stage_event) own.push_back(ev);
    }
    const trace::TraceAnalysis a(std::move(own));
    for (std::size_t st = 0; st < k; ++st) {
      const double busy = a.busy_time(st) / wall;
      const double cw = a.comm_wait_time(st) / wall;
      const double bub = a.bubble_time(st) / wall;
      s.compute += busy;
      s.comm_wait += cw;
      s.bubble += bub;
      s.attributed += busy + cw + bub;
      s.idle_max = std::max(s.idle_max, 1.0 - busy);
      s.gflops += a.achieved_gflops(st);
      ++threads;
    }
  }
  const double n = static_cast<double>(threads);
  s.compute /= n;
  s.comm_wait /= n;
  s.bubble /= n;
  s.attributed /= n;
  s.gflops /= n;
  return s;
}

Metrics per_layer_metrics(const Workload& w, const Inputs& in,
                          const RunResult& plain, const RunResult& traced,
                          Checks* checks) {
  const LayerProbes probes = run_probes(w, in, kModelSeed, kStageWorkers);
  const double iters = static_cast<double>(traced.iter_ms.size());
  const StageShares shares = stage_shares(traced.events, w, traced.traced_s);
  const trace::TraceAnalysis all(traced.events);

  double parks = 0, spins = 0, pull_s = 0, apply_s = 0;
  for (const auto& ev : traced.events) {
    if (ev.counter == trace::CounterId::kParkCount) parks += ev.value;
    if (ev.counter == trace::CounterId::kSpinCount) spins += ev.value;
    const double span_s = ev.t_end - ev.t_begin;
    if (ev.kind == trace::EventKind::kElasticPull) pull_s += span_s;
    if (ev.kind == trace::EventKind::kReferenceApply) apply_s += span_s;
  }
  const double wire = static_cast<double>(all.sync_bytes());
  const double raw = static_cast<double>(all.sync_bytes_raw());
  if (w.codec == tensor::Codec::kFp16) {
    checks->expect(raw > 0 && all.sync_bytes() * 4 == all.sync_bytes_raw(),
                   "fp16 sync wire bytes " + json_number(wire) +
                       " are not a quarter of raw bytes " + json_number(raw));
    checks->expect(probes.codec_wire_bytes * 4 == probes.codec_raw_bytes,
                   "fp16 transmit of one replica is not a quarter of raw");
  }

  std::vector<double> save_ms = plain.save_ms;
  save_ms.insert(save_ms.end(), traced.save_ms.begin(), traced.save_ms.end());
  const double plain_sps = samples_per_s(w, plain);

  Metrics m;
  m["tensor.gemm_gflops"] = {probes.gemm_gflops, "GFLOP/s"};
  m["tensor.heap_allocs_per_iter"] = {
      static_cast<double>(plain.heap_allocs) /
          static_cast<double>(plain.iter_ms.size()),
      "count"};
  m["nn.fwd_ms"] = {probes.fwd_ms, "ms"};
  m["nn.bwd_ms"] = {probes.bwd_ms, "ms"};
  m["nn.stage_imbalance"] = {probes.stage_imbalance, "ratio"};
  m["optim.step_ms"] = {probes.optim_step_ms, "ms"};
  m["runtime.train_batch_ms"] = {probes.train_batch_ms, "ms"};
  m["runtime.compute_frac"] = {shares.compute, "fraction"};
  m["runtime.comm_wait_frac"] = {shares.comm_wait, "fraction"};
  m["runtime.bubble_frac"] = {shares.bubble, "fraction"};
  m["runtime.idle_frac_max"] = {shares.idle_max, "fraction"};
  m["runtime.parks_per_iter"] = {parks / iters, "count"};
  m["runtime.spins_per_iter"] = {spins / iters, "count"};
  m["runtime.stage_gflops"] = {shares.gflops, "GFLOP/s"};
  m["runtime.peak_stash"] = {static_cast<double>(probes.peak_stash), "count"};
  m["core.iter_ms_p99"] = {quantile(plain.iter_ms, 0.99), "ms"};
  m["core.pull_ms"] = {pull_s * 1e3 / iters, "ms"};
  m["core.ref_apply_ms"] = {apply_s * 1e3 / iters, "ms"};
  m["core.sync_batch"] = {all.mean_sync_batch(), "count"};
  m["core.sync_wire_bytes"] = {wire / iters, "B"};
  m["core.sync_raw_bytes"] = {raw / iters, "B"};
  m["core.codec_ms"] = {probes.codec_ms, "ms"};
  m["ckpt.save_ms"] = {median(save_ms), "ms"};
  m["ckpt.bytes"] = {static_cast<double>(plain.ckpt_bytes), "B"};
  m["trace.overhead_frac"] = {1.0 - samples_per_s(w, traced) / plain_sps,
                              "fraction"};
  m["trace.attributed_frac"] = {shares.attributed, "fraction"};
  return m;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);

  std::cout << "# env {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(AVGPIPE_BENCH_BUILD_TYPE)
            << ", \"AVGPIPE_NUM_THREADS\": "
            << json_string(common::env_string("AVGPIPE_NUM_THREADS", "unset"))
            << ", \"AVGPIPE_PIN_THREADS\": "
            << json_string(common::env_string("AVGPIPE_PIN_THREADS", "unset"))
            << ", \"pool_threads\": " << configured_num_threads()
            << ", \"stage_workers\": " << kStageWorkers << "}" << std::endl;

  Checks checks;
  const Inputs in = make_inputs(w, args.seed);
  const std::size_t balanced = flop_balanced_boundary(layer_flops(w, in));
  checks.expect(w.boundaries.size() == 1 && w.boundaries[0] == balanced,
                "stage boundary is not the FLOP-balanced split " +
                    std::to_string(balanced));
  nn::Sequential untrained_model = w.model(kModelSeed);
  const double untrained = heldout_loss(untrained_model, in);

  const std::size_t wanted = std::max<std::size_t>(
      w.eval_after - w.warmup_iters,
      static_cast<std::size_t>(
          std::llround(args.seconds * w.iters_per_second)));
  const std::size_t timed =
      (wanted + w.window_iters - 1) / w.window_iters * w.window_iters;
  std::cout << "# workload {\"name\": " << json_string(w.name)
            << ", \"seed\": " << args.seed << ", \"boundary\": " << balanced
            << ", \"timed_iters\": " << timed
            << ", \"untrained_loss\": " << json_number(untrained) << "}"
            << std::endl;

  RunOptions opt;
  opt.timed_iters = timed;
  opt.scratch = args.scratch;
  Metrics metrics;
  std::size_t attempted = 0, failed = 0;

  if (!args.trace) {
    opt.setup_reps = kSetupReps;
    const RunResult r = run_training(w, in, opt);
    check_run(r, &checks);
    check_eval(r, untrained, &checks);
    if (w.sync_lag == 0) {
      // Lag-0 sync is deterministic: every set-up replays the same losses.
      for (const auto& l : r.warmup_losses) {
        checks.expect(l == r.warmup_losses.front(),
                      "lag-0 warm-up losses differ between set-ups");
      }
    }
    attempted = r.attempted;
    failed = r.failed;
    metrics["samples_per_s"] = {samples_per_s(w, r), "samples/s"};
    metrics["iter_ms_p50"] = {median(r.iter_ms), "ms"};
    metrics["eval_loss"] = {r.eval_loss, "nats"};
    metrics["setup_s"] = {median(r.setup_s), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    const RunResult plain = run_training(w, in, opt);
    opt.timed_iters = std::min(timed, kTracedWindows * w.window_iters);
    RunResult traced;
    {
      trace::Tracer tracer;  // freed before the analysis copies the events
      opt.tracer = &tracer;
      traced = run_training(w, in, opt);
    }
    check_run(plain, &checks);
    check_eval(plain, untrained, &checks);
    check_run(traced, &checks);
    if (w.sync_lag == 0) {
      // Lag-0 sync is deterministic, and tracing must not change the
      // arithmetic: the traced run replays a prefix of the untraced one.
      checks.expect(traced.warmup_losses == plain.warmup_losses &&
                        std::equal(traced.losses.begin(),
                                   traced.losses.end(), plain.losses.begin()),
                    "traced losses differ from untraced losses");
    }
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    metrics = per_layer_metrics(w, in, plain, traced, &checks);
  }
  std::filesystem::remove_all(args.scratch);
  for (const auto& [name, m] : metrics) {
    checks.expect(std::isfinite(m.value), name + " is not finite");
  }
  print_result(checks.ok, attempted, failed, metrics);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::check_environment();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
