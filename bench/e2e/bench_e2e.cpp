// bench_e2e.cpp — the repository's end-to-end benchmark.
//
//   bench_e2e --workload NAME --seed S --seconds N --trace 0|1
//             [--tmp-dir DIR] [--out FILE] [--trace-out FILE]
//
// One invocation measures one workload (workloads.hpp) as a closed loop
// with one client: back-to-back Trainer::run calls, rep r seeded S + r,
// until N seconds are spent (and at least the workload's quality reps
// have run).
//
//   --trace 0  end-to-end metrics from untraced Trainer::run calls:
//              rounds_per_s, setup_s, peak_rss_mb, final_accuracy,
//              final_loss.
//   --trace 1  per-layer metrics: each rep runs Trainer::run and then the
//              traced replica (replica.hpp) at the same seed, so the
//              replica's trajectory can be checked bit for bit and the
//              tracing overhead measured.
//
// Every run checks the program's outputs (θ finite, the lossy channel
// really dropped and retransmitted frames, the last checkpoint loads back
// as the final state, the mean accuracy stays in its band, steady-state
// rounds allocate nothing, the trace covers the wall-clock).  Metrics go
// to stdout one per line, then the last line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  --out writes the same
// plus host facts and per-rep values as a JSON file.  Checkpoint files go
// to a fresh directory under --tmp-dir, removed on exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/samplers.hpp"
#include "math/kernels.hpp"
#include "math/statistics.hpp"
#include "models/clipping.hpp"
#include "replica.hpp"
#include "trace.hpp"
#include "utils/flags.hpp"
#include "utils/stopwatch.hpp"
#include "workloads.hpp"

namespace {

using dpbyz::ExperimentConfig;
using dpbyz::RunResult;
using dpbyz::Stopwatch;
using dpbyz::Vector;
using e2e::Instance;
using e2e::Layer;
using e2e::Workload;

#ifndef DPBYZ_E2E_COMPILER
#define DPBYZ_E2E_COMPILER "unknown"
#endif
#ifndef DPBYZ_E2E_BUILD_TYPE
#define DPBYZ_E2E_BUILD_TYPE "unknown"
#endif

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one invocation reports.
struct Outcome {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> gate_failures;  ///< workload-level check failures
  std::vector<double> rep_wall_s;          ///< per timed rep

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// A fresh directory for this process's checkpoint files, removed with
/// everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/bench_e2e-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("cannot create a temporary directory under " + parent);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double median(const std::vector<double>& xs) { return dpbyz::stats::median(xs); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Per-rep output checks; returns the failed check's description or "".
std::string check_run(const ExperimentConfig& c, const RunResult& r) {
  for (double v : r.final_parameters)
    if (!std::isfinite(v)) return "final θ is not finite";
  if (c.channel == "lossy" &&
      (r.channel.frames_dropped == 0 || r.channel.retransmit_frames == 0))
    return "the lossy channel dropped or retransmitted no frame";
  if (!c.checkpoint_path.empty()) {
    const std::optional<dpbyz::TrainerCheckpoint> ckpt =
        dpbyz::load_checkpoint(c.checkpoint_path);
    if (!ckpt || ckpt->round != c.steps || ckpt->params != r.final_parameters)
      return "the last checkpoint does not load back as the final state";
  }
  return "";
}

RunResult train(const ExperimentConfig& c, const Instance& inst) {
  return dpbyz::Trainer(c, inst.model, inst.train, inst.test).run();
}

/// Runs `rep(r)` for r = 0, 1, ... until `seconds` are spent, stopping
/// early enough that the next rep would not overrun, but never before
/// `min_reps`.  A failed rep ends the loop once `min_reps` have run.
/// `rep` returns its wall-clock seconds, or a negative value on failure.
template <typename Rep>
void closed_loop(double seconds, size_t min_reps, Outcome& out, Rep&& rep) {
  const Stopwatch total;
  std::vector<double> walls;
  for (size_t r = 0;; ++r) {
    if (r >= min_reps &&
        (out.failed > 0 || walls.empty() || total.seconds() + median(walls) > seconds))
      break;
    const double wall = rep(r);
    if (wall >= 0.0) walls.push_back(wall);
  }
}

Outcome run_e2e(const Workload& wl, uint64_t seed, double seconds, const std::string& tmp_dir) {
  Outcome out;
  // Set-up: the median of seven constructions of the task and the trainer.
  std::vector<double> setup_s;
  std::optional<Instance> inst;
  for (int i = 0; i < 7; ++i) {
    inst.reset();
    const Stopwatch sw;
    inst.emplace(e2e::make_instance(wl, seed, tmp_dir));
    const dpbyz::Trainer trainer(inst->config, inst->model, inst->train, inst->test);
    setup_s.push_back(sw.seconds());
  }

  std::vector<double> accuracy, loss;
  closed_loop(seconds, std::max<size_t>(3, wl.quality_reps), out, [&](size_t r) {
    const ExperimentConfig c = e2e::rep_config(inst->config, seed, r);
    ++out.attempted;
    try {
      const Stopwatch sw;
      const RunResult res = train(c, *inst);
      const double wall = sw.seconds();
      if (const std::string why = check_run(c, res); !why.empty()) {
        std::fprintf(stderr, "rep %zu failed: %s\n", r, why.c_str());
        ++out.failed;
        return -1.0;
      }
      out.rep_wall_s.push_back(wall);
      if (r < wl.quality_reps) {
        accuracy.push_back(res.final_accuracy);
        loss.push_back(inst->model.full_loss(res.final_parameters, inst->test));
      }
      return wall;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rep %zu threw: %s\n", r, e.what());
      ++out.failed;
      return -1.0;
    }
  });
  if (out.rep_wall_s.empty() || accuracy.empty())
    throw std::runtime_error("no rep of the workload succeeded");

  const double mean_accuracy = dpbyz::stats::mean(accuracy);
  if (std::abs(mean_accuracy - wl.baseline_accuracy) > wl.accuracy_band)
    out.gate_failures.push_back("mean final accuracy " + std::to_string(mean_accuracy) +
                                " is outside " + std::to_string(wl.baseline_accuracy) +
                                " ± " + std::to_string(wl.accuracy_band));

  out.add("rounds_per_s", static_cast<double>(inst->config.steps) / median(out.rep_wall_s),
          "1/s");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("final_accuracy", mean_accuracy, "fraction");
  out.add("final_loss", dpbyz::stats::mean(loss), "mse");
  return out;
}

/// Microseconds per call of `fn(i)`, called for at least 50 ms.
template <typename Fn>
double us_per_call(Fn&& fn) {
  size_t calls = 0;
  const Stopwatch sw;
  do {
    for (int i = 0; i < 16; ++i) fn(calls++);
  } while (sw.seconds() < 0.05);
  return sw.seconds() * 1e6 / static_cast<double>(calls);
}

struct WorkerParts {
  double sample, loss, gradient, clip, noise;  // µs per call
};

/// The stages of HonestWorker::submit_into, timed one at a time at the
/// workload's shapes and parameters `w`.
WorkerParts time_worker_parts(const ExperimentConfig& c, const Instance& inst,
                              const Vector& w) {
  const dpbyz::Model& model = inst.model;
  dpbyz::IidSampler sampler(inst.train.size());
  dpbyz::Rng rng = dpbyz::Rng(c.seed).derive("worker-parts");
  // Loss and gradient cycle through random batches, as a worker's do.
  std::vector<std::vector<size_t>> batches(64);
  for (auto& b : batches) sampler.next_into(c.batch_size, rng, b);
  std::vector<size_t> batch;
  Vector grad(model.dim()), clipped(model.dim()), out(model.dim());
  model.batch_gradient_into(w, inst.train, batches[0], grad);
  const std::unique_ptr<dpbyz::NoiseMechanism> mechanism =
      dpbyz::make_mechanism(c, model.dim());

  WorkerParts p{};
  p.sample = us_per_call([&](size_t) { sampler.next_into(c.batch_size, rng, batch); });
  p.loss = us_per_call(
      [&](size_t i) { model.batch_loss(w, inst.train, batches[i % batches.size()]); });
  p.gradient = us_per_call([&](size_t i) {
    model.batch_gradient_into(w, inst.train, batches[i % batches.size()], grad);
  });
  // Clipping rescales its input in place, so each call restores the row
  // first; the figure includes that d-copy.
  p.clip = us_per_call([&](size_t) {
    dpbyz::vec::copy(grad, clipped);
    dpbyz::clip_l2_inplace(clipped, c.clip_norm);
  });
  p.noise = us_per_call([&](size_t) { mechanism->perturb_into(grad, rng, out); });
  return p;
}

Outcome run_traced(const Workload& wl, uint64_t seed, double seconds,
                   const std::string& tmp_dir, const std::string& trace_out) {
  Outcome out;
  const Instance inst = e2e::make_instance(wl, seed, tmp_dir);
  const ExperimentConfig& base = inst.config;
  const double steps = static_cast<double>(base.steps);

  e2e::Tracer tracer(e2e::span_capacity(base));
  e2e::LayerTotals totals;       // steady state: rounds >= 2
  e2e::LayerTotals first_rep;    // the first successful traced rep (latency)
  std::vector<double> untraced_wall, traced_wall;
  double round_s = 0.0, replica_s = 0.0;
  bool identical = true;
  dpbyz::net::ChannelStats channel;
  Vector last_theta;
  const double cpu0 = cpu_seconds();
  const Stopwatch wall;

  closed_loop(seconds, 1, out, [&](size_t r) {
    const ExperimentConfig c = e2e::rep_config(base, seed, r);
    out.attempted += 2;
    try {
      const Stopwatch sw;
      const RunResult ref = train(c, inst);
      const double ref_wall = sw.seconds();
      if (const std::string why = check_run(c, ref); !why.empty()) {
        std::fprintf(stderr, "rep %zu failed: %s\n", r, why.c_str());
        ++out.failed;
        return -1.0;
      }
      e2e::count_allocations(true);
      const Stopwatch tw;
      const RunResult rep = e2e::run_replica(c, inst.model, inst.train, inst.test, tracer);
      const double rep_wall = tw.seconds();
      e2e::count_allocations(false);
      if (const std::string why = check_run(c, rep); !why.empty()) {
        std::fprintf(stderr, "traced rep %zu failed: %s\n", r, why.c_str());
        ++out.failed;
        return -1.0;
      }
      identical = identical && rep.final_parameters == ref.final_parameters &&
                  rep.train_loss == ref.train_loss;
      e2e::accumulate(tracer.spans(), 2, totals);
      if (first_rep.rounds == 0) e2e::accumulate(tracer.spans(), 2, first_rep);
      round_s += e2e::traced_round_seconds(tracer.spans());
      replica_s += rep_wall;
      untraced_wall.push_back(ref_wall);
      traced_wall.push_back(rep_wall);
      channel.accumulate(ref.channel);
      last_theta = rep.final_parameters;
      return ref_wall + rep_wall;
    } catch (const std::exception& e) {
      e2e::count_allocations(false);
      std::fprintf(stderr, "rep %zu threw: %s\n", r, e.what());
      ++out.failed;
      return -1.0;
    }
  });
  const double cpu_util = (cpu_seconds() - cpu0) / wall.seconds();
  if (traced_wall.empty()) throw std::runtime_error("no traced rep of the workload succeeded");
  out.rep_wall_s = traced_wall;
  if (!trace_out.empty()) e2e::write_trace(tracer.spans(), trace_out);

  // Spans: self time, share of the round, calls and allocations per round.
  const double rounds = static_cast<double>(totals.rounds);
  double all_self_s = 0.0;
  uint64_t all_allocs = 0;
  for (size_t l = 0; l < e2e::kLayers; ++l) {
    all_self_s += totals.self_s[l];
    all_allocs += totals.self_allocs[l];
  }
  out.add("round.ms_per_round", all_self_s * 1e3 / rounds, "ms");
  out.add("round.allocs_per_round", static_cast<double>(all_allocs) / rounds, "count");
  for (size_t l = 0; l < e2e::kLayers; ++l) {
    const std::string name = e2e::layer_name(static_cast<Layer>(l));
    out.add(name + ".ms_per_round", totals.self_s[l] * 1e3 / rounds, "ms");
    out.add(name + ".share", totals.self_s[l] / all_self_s, "fraction");
    out.add(name + ".calls_per_round", static_cast<double>(totals.calls[l]) / rounds, "count");
    out.add(name + ".allocs_per_round", static_cast<double>(totals.self_allocs[l]) / rounds,
            "count");
  }
  // Membership epochs and checkpoint captures allocate by design; every
  // other steady-state round must not.
  if (base.churn == "off" && base.checkpoint_path.empty() && all_allocs != 0)
    out.gate_failures.push_back("steady-state rounds allocated " +
                                std::to_string(static_cast<double>(all_allocs) / rounds) +
                                " times per round");

  // Worker stages, timed from outside on the final θ.
  const WorkerParts parts = time_worker_parts(base, inst, last_theta);
  const size_t submit = static_cast<size_t>(Layer::kWorkerSubmit);
  const double submit_us = totals.calls[submit] == 0
                               ? 0.0
                               : totals.self_s[submit] * 1e6 /
                                     static_cast<double>(totals.calls[submit]);
  out.add("data.sample.us_per_call", parts.sample, "us");
  out.add("models.loss.us_per_call", parts.loss, "us");
  out.add("models.gradient.us_per_call", parts.gradient, "us");
  out.add("models.clip.us_per_call", parts.clip, "us");
  out.add("dp.noise.us_per_call", parts.noise, "us");
  out.add("worker.parts_coverage",
          submit_us == 0.0 ? 0.0
                           : (parts.sample + parts.loss + parts.gradient + parts.clip +
                              parts.noise) / submit_us,
          "fraction");

  // The read side of the checkpoint layer.
  double load_ms = 0.0, ckpt_bytes = 0.0;
  if (!base.checkpoint_path.empty()) {
    std::vector<double> loads;
    for (int i = 0; i < 5; ++i) {
      const Stopwatch sw;
      const auto ckpt = dpbyz::load_checkpoint(base.checkpoint_path);
      loads.push_back(sw.milliseconds());
    }
    load_ms = median(loads);
    ckpt_bytes = static_cast<double>(std::filesystem::file_size(base.checkpoint_path));
  }
  out.add("core.checkpoint_load.ms", load_ms, "ms");
  out.add("core.checkpoint_bytes", ckpt_bytes, "bytes");

  // Net counters, per round of the untraced runs.
  const double run_rounds = steps * static_cast<double>(untraced_wall.size());
  out.add("net.bytes_per_round", static_cast<double>(channel.bytes_sent) / run_rounds, "bytes");
  out.add("net.frames_per_round", static_cast<double>(channel.frames_sent) / run_rounds,
          "count");
  out.add("net.retransmit_frames_per_round",
          static_cast<double>(channel.retransmit_frames) / run_rounds, "count");
  out.add("net.frames_dropped_per_round",
          static_cast<double>(channel.frames_dropped) / run_rounds, "count");
  out.add("net.rows_substituted",
          static_cast<double>(channel.rows_substituted) /
              static_cast<double>(untraced_wall.size()),
          "count");

  // Round latency over the first traced rep's steady-state rounds: the
  // median and the highest percentile with ten rounds beyond it.
  const std::vector<double>& lat = first_rep.round_ms;
  const double tail_p = std::max(0.0, 1.0 - 10.0 / static_cast<double>(lat.size()));
  out.add("round.p50_ms", median(lat), "ms");
  out.add("round.tail_ms", dpbyz::stats::quantile(lat, tail_p), "ms");
  out.add("round.tail_pct", tail_p * 100.0, "%");

  const double coverage = round_s / replica_s;
  if (coverage < 0.95)
    out.gate_failures.push_back("trace coverage " + std::to_string(coverage) + " < 0.95");
  out.add("trace.coverage", coverage, "fraction");
  out.add("trace.overhead", 1.0 - median(untraced_wall) / median(traced_wall), "fraction");
  out.add("trace.identical", identical ? 1.0 : 0.0, "bool");
  out.add("host.cpu_util", cpu_util, "cores");
  return out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string o = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) o += ", ";
    o += '"';
    o += json_escape(metrics[i].name);
    o += "\": {\"value\": ";
    o += number(metrics[i].value);
    o += ", \"unit\": \"";
    o += json_escape(metrics[i].unit);
    o += "\"}";
  }
  return o + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dpbyz::flags::Parser flags(
        argc, argv, {"workload", "seed", "seconds", "trace", "tmp-dir", "out", "trace-out"});
    if (!flags.has("workload"))
      throw std::invalid_argument("--workload is required");
    const Workload& wl = e2e::find_workload(flags.get_string("workload", ""));
    const int64_t seed = flags.get_int("seed", 1);
    const double seconds = flags.get_double("seconds", 10.0);
    const int64_t trace = flags.get_int("trace", 0);
    if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
      throw std::invalid_argument("need --seed >= 0, --seconds > 0 and --trace 0|1");

    const TempDir tmp_dir(flags.get_string("tmp-dir", "."));
    const Outcome out =
        trace == 1 ? run_traced(wl, static_cast<uint64_t>(seed), seconds, tmp_dir.path(),
                                flags.get_string("trace-out", ""))
                   : run_e2e(wl, static_cast<uint64_t>(seed), seconds, tmp_dir.path());
    const bool correct = out.failed == 0 && out.gate_failures.empty();

    const std::string host =
        "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"fast_backend\": \"" +
        dpbyz::kernels::fast_backend() + "\", \"compiler\": \"" DPBYZ_E2E_COMPILER
        "\", \"build_type\": \"" DPBYZ_E2E_BUILD_TYPE "\"}";
    std::printf("bench_e2e %s seed=%lld seconds=%g trace=%lld reps=%zu host=%s\n",
                wl.name.c_str(), static_cast<long long>(seed), seconds,
                static_cast<long long>(trace), out.rep_wall_s.size(), host.c_str());
    for (const Metric& m : out.metrics)
      std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string& g : out.gate_failures)
      std::printf("  CHECK FAILED: %s\n", g.c_str());

    const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(out.attempted) +
                               ", \"failed\": " + std::to_string(out.failed) +
                               ", \"metrics\": " + metrics_json(out.metrics) + "}";
    if (flags.has("out")) {
      std::string walls = "[";
      for (size_t i = 0; i < out.rep_wall_s.size(); ++i)
        walls += (i ? ", " : "") + number(out.rep_wall_s[i]);
      walls += "]";
      std::string gates = "[";
      for (size_t i = 0; i < out.gate_failures.size(); ++i)
        gates += (i ? ", \"" : "\"") + json_escape(out.gate_failures[i]) + "\"";
      gates += "]";
      std::ofstream file(flags.get_string("out", ""));
      file << "{\"workload\": \"" << wl.name << "\", \"seed\": " << seed
           << ", \"seconds\": " << number(seconds) << ", \"trace\": " << trace
           << ", \"host\": " << host << ", \"reps\": " << out.rep_wall_s.size()
           << ", \"rep_wall_s\": " << walls << ", \"gate_failures\": " << gates
           << ", \"result\": " << result << "}\n";
      if (!file) throw std::runtime_error("cannot write " + flags.get_string("out", ""));
    }
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
