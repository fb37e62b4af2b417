// Shared plumbing of the benchmark driver: options, clocks, statistics, the
// run report, and the span tally that turns trace events (the program's own
// spans plus the benchmark-side `bench.*` spans) into per-layer numbers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "profiler/interp.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for state shared between runs of one checkout (the serve
  /// checkpoint).
  std::string state_dir;
};

/// Steady-clock seconds (CLOCK_MONOTONIC).
[[nodiscard]] double now_s();
/// User + system CPU seconds of this process, all threads.
[[nodiscard]] double cpu_s();
/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();
/// Online CPUs; the benchmark's thread and connection budget.
[[nodiscard]] unsigned cpus();
/// Current value of one of the program's own counters.
[[nodiscard]] std::uint64_t counter(const std::string& name);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Everything one run prints. End-to-end metrics are emitted by an untraced
/// run, per-layer metrics by a traced one; `line` output (human-readable
/// figures and context) goes to stdout before the final JSON line.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// Declares a per-layer metric at 0 without printing it.
  void preset_layer(const std::string& name, const std::string& unit) {
    if (trace_) metrics_[name] = {0.0, unit};
  }
  /// A named figure printed for people (not part of the JSON metrics).
  void figure(const std::string& name, double value, const std::string& unit);
  /// Quantiles of the per-round values behind a figure, printed for people.
  void series(const std::string& name, const std::vector<double>& values,
              const std::string& unit);
  /// Records a failed output check; the run reports correct=false.
  void check(bool ok, const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }
  [[nodiscard]] bool correct() const { return correct_; }

  /// Prints the final JSON line.
  void print_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  bool trace_;
  bool correct_ = true;
  std::size_t check_failures_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

/// Time at the start of main(): set-up time is measured from here.
extern double g_process_start_s;

/// A benchmark-side span around one call into a layer: adds the call's wall
/// time to `acc` and, when tracing is on, records a `bench.*` span in the
/// program's trace recorder. `name` must be a string literal.
class Timed {
 public:
  Timed(const char* name, double& acc) : span_(name), acc_(acc) {}
  ~Timed() { acc_ += now_s() - t0_; }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  mvgnn::obs::ScopedSpan span_;
  double& acc_;
  double t0_ = now_s();
};

/// Wall time of the layer calls of one pass over a program set, made by the
/// traced run from the benchmark's own code.
struct LayerPass {
  double compile_s = 0.0;
  double profile_s = 0.0;
  double peg_s = 0.0;
  double walks_s = 0.0;
  double skipgram_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t peg_nodes = 0;
};

/// One program to take through the layer pass.
struct PassInput {
  const std::string* source;
  const std::vector<mvgnn::profiler::ArgInit>* args;
};

/// compile -> profile -> build_peg -> anonymous walks for every program,
/// then skip-gram over all their tokens: the per-item calls
/// data::build_dataset and the serve featurize path make.
[[nodiscard]] LayerPass layer_pass(const std::vector<PassInput>& programs);

/// Reports the layer-pass figures; `rounds` scales them to one round.
void report_layer_pass(Report& r, const LayerPass& p, double rounds);

/// Aggregated spans by name.
struct SpanStat {
  double total_s = 0.0;
  /// Self time: duration minus the part covered by direct children on the
  /// same thread.
  double self_s = 0.0;
  std::vector<double> durations_s;
};

/// Drains the global trace recorder into per-name totals. Call only while
/// no span is open (between rounds, or after every worker has stopped).
class SpanTally {
 public:
  void absorb();
  [[nodiscard]] const SpanStat& get(const std::string& name) const;

 private:
  std::map<std::string, SpanStat> stats_;
};

}  // namespace perfbench
