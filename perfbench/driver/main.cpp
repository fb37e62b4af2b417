// perfbench_driver — runs one benchmark workload in this process and prints
// its figures, then one JSON line with the run's metrics (the last line of
// stdout). perfbench/run.py builds this binary and wraps it; see README.md.
//
//   perfbench_driver --workload offline|serve|parallelize --seed <n>
//                    --seconds <s> --trace 0|1 --state-dir <dir>
//   perfbench_driver --prepare-serve --state-dir <dir>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "tensor/backend/backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric with its unit. A traced run reports all of them;
/// each workload overwrites the ones it measures, and a layer the workload
/// never calls keeps 0 (no work done there).
constexpr const char* kLayerMetrics[][2] = {
    {"frontend.compile_s", "s"},
    {"profiler.profile_s", "s"},
    {"profiler.observed_steps_per_s", "steps/s"},
    {"profiler.steps", "count"},
    {"profiler.seq_steps_per_s", "steps/s"},
    {"profiler.par_steps_per_s", "steps/s"},
    {"profiler.par_cpu_per_wall", "CPU-s/s"},
    {"profiler.par_run_s", "s"},
    {"analysis.suggest_s", "s"},
    {"transform.plan_s", "s"},
    {"transform.planned_loops", "count"},
    {"graph.peg_s", "s"},
    {"graph.walks_s", "s"},
    {"graph.peg_nodes", "count"},
    {"embedding.skipgram_s", "s"},
    {"data.build_s", "s"},
    {"data.build_cpu_per_wall", "CPU-s/s"},
    {"parallel.helped_share", "ratio"},
    {"parallel.task_p50_us", "us"},
    {"tensor.gemm_s", "s"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.spmm_s", "s"},
    {"core.epoch_s", "s"},
    {"core.step_serial_s", "s"},
    {"core.train_cpu_per_wall", "CPU-s/s"},
    {"core.forward_ms_per_sample", "ms"},
    {"core.heldout_accuracy", "fraction"},
    {"serve.context_s", "s"},
    {"serve.load_model_s", "s"},
    {"serve.featurize_ms", "ms"},
    {"serve.flush_ms", "ms"},
    {"serve.samples_per_flush", "samples"},
    {"serve.hot_hit_share", "ratio"},
    {"serve.server_p50_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.client_p99_ms", "ms"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <offline|serve|"
               "parallelize> --seed <n> --seconds <s> --trace <0|1> "
               "--state-dir <dir>\n"
               "       perfbench_driver --prepare-serve --state-dir <dir>\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  g_process_start_s = now_s();
  Options o;
  bool prepare = false;
  for (int a = 1; a < argc; ++a) {
    const std::string k = argv[a];
    const bool has = a + 1 < argc;
    if (k == "--prepare-serve") {
      prepare = true;
    } else if (k == "--workload" && has) {
      o.workload = argv[++a];
    } else if (k == "--seed" && has) {
      o.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (k == "--seconds" && has) {
      o.seconds = std::atof(argv[++a]);
    } else if (k == "--trace" && has) {
      o.trace = std::strcmp(argv[++a], "0") != 0;
    } else if (k == "--state-dir" && has) {
      o.state_dir = argv[++a];
    } else {
      return usage();
    }
  }
  if (o.state_dir.empty()) return usage();
  mvgnn::obs::Logger::global().set_level(mvgnn::obs::LogLevel::Warn);
  try {
    if (prepare) return prepare_serve(o);
    Report r(o.trace);
    if (o.trace) {
      for (const auto& m : kLayerMetrics) r.preset_layer(m[0], m[1]);
      mvgnn::obs::TraceRecorder::global().enable();
    }
    std::printf("context: cpus_online=%u tensor_backend=%s\n", cpus(),
                mvgnn::tensor::backend::active().name());
    if (o.workload == "offline") {
      run_offline(o, r);
    } else if (o.workload == "serve") {
      run_serve(o, r);
    } else if (o.workload == "parallelize") {
      run_parallelize(o, r);
    } else {
      return usage();
    }
    r.print_json();
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
