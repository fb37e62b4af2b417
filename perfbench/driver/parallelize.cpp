// `parallelize`: the flow of `mvgnn parallelize` over a fixed kernel set —
// compile -> profile -> suggest -> plan, then one sequential reference run
// (profiler::run_capture) and one parallel run (profiler::run_parallel with
// one worker per CPU). The kernels are the seven shapes of
// bench/abl_parallelize.cpp plus a loop-carried recurrence the planner must
// refuse. Every output is checked against the kernel computed in plain C++
// on the same inputs.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/suggest.hpp"
#include "frontend/lower.hpp"
#include "parallel/thread_pool.hpp"
#include "profiler/par_exec.hpp"
#include "profiler/profile.hpp"
#include "transform/parallelize.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mv = mvgnn;
using mv::profiler::ArgInit;
using mv::profiler::MemCell;

constexpr int kN = 1 << 13;  // 1-D kernels
constexpr int kMat = 24;     // matmul side
/// Rounds are ~0.2 s; at least ten of them lie beyond the p90 round.
constexpr int kMinRounds = 100;
/// Relative tolerance for float +-reductions, whose parallel merge order
/// differs from the sequential one (the program's own equivalence check
/// uses 1e-9 as well).
constexpr double kReduceTol = 1e-9;

/// The interpreter's array fill (profiler::run): int cells get h % n, float
/// cells 0.5 + (h mod 2^20) / 2^20, with h = splitmix64(seed * 0x9E37 + k).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
std::vector<double> fill_f(const ArgInit& a) {
  std::vector<double> v(a.array_size);
  for (std::uint64_t k = 0; k < a.array_size; ++k) {
    const std::uint64_t h = splitmix64(a.fill_seed * 0x9E37 + k);
    v[k] = 0.5 + static_cast<double>(h % (1u << 20)) / (1u << 20);
  }
  return v;
}
std::vector<std::int64_t> fill_i(const ArgInit& a) {
  std::vector<std::int64_t> v(a.array_size);
  for (std::uint64_t k = 0; k < a.array_size; ++k) {
    const std::uint64_t h = splitmix64(a.fill_seed * 0x9E37 + k);
    v[k] = static_cast<std::int64_t>(h % a.array_size);
  }
  return v;
}

/// Expected final contents of one array argument.
struct ArrayRef {
  bool is_int = false;
  std::vector<double> f;
  std::vector<std::int64_t> i;
  /// Cells written by a float +-reduction: compared within kReduceTol.
  bool reduced = false;
};

struct Expected {
  std::vector<ArrayRef> arrays;  // one per argument, in order
  bool ret_is_int = false;
  double ret_f = 0.0;
  std::int64_t ret_i = 0;
  bool ret_reduced = false;
};

struct Kernel {
  std::string name;
  std::string source;
  std::vector<ArgInit> args;
  bool parallel_safe = true;
  std::function<Expected(const std::vector<ArgInit>&)> reference;
};

std::string with_n(const char* body, int n) {
  return "const int N = " + std::to_string(n) + ";\n" + body;
}

ArrayRef fa(std::vector<double> v, bool reduced = false) {
  ArrayRef a;
  a.f = std::move(v);
  a.reduced = reduced;
  return a;
}
ArrayRef ia(std::vector<std::int64_t> v) {
  ArrayRef a;
  a.is_int = true;
  a.i = std::move(v);
  return a;
}

std::vector<Kernel> make_kernels(std::uint64_t seed) {
  const auto n = static_cast<std::uint64_t>(kN);
  const auto mm = static_cast<std::uint64_t>(kMat) * kMat;
  // Fill seeds come from the run's seed: the same seed, the same inputs.
  const auto arr = [&](std::uint64_t size, std::uint64_t slot) {
    return ArgInit::of_array(size, seed * 16 + slot);
  };
  std::vector<Kernel> ks;
  ks.push_back({"saxpy", with_n(R"(float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    a[i] = 2.5 * a[i] + b[i];
  }
  return a[0];
})", kN),
                {arr(n, 1), arr(n, 2)}, true, [](const auto& args) {
                  auto a = fill_f(args[0]);
                  const auto b = fill_f(args[1]);
                  for (std::size_t i = 0; i < a.size(); ++i) {
                    a[i] = 2.5 * a[i] + b[i];
                  }
                  Expected e;
                  e.ret_f = a[0];
                  e.arrays = {fa(a), fa(b)};
                  return e;
                }});
  ks.push_back({"vec_map", with_n(R"(int kernel(int[] a, int[] b, int[] c) {
  for (int i = 0; i < N; i += 1) {
    c[i] = a[i] * 3 + b[i];
  }
  return c[0];
})", kN),
                {arr(n, 3), arr(n, 4), arr(n, 5)}, true, [](const auto& args) {
                  const auto a = fill_i(args[0]);
                  const auto b = fill_i(args[1]);
                  auto c = fill_i(args[2]);
                  for (std::size_t i = 0; i < c.size(); ++i) {
                    c[i] = a[i] * 3 + b[i];
                  }
                  Expected e;
                  e.ret_is_int = true;
                  e.ret_i = c[0];
                  e.arrays = {ia(a), ia(b), ia(c)};
                  return e;
                }});
  ks.push_back({"stencil", with_n(R"(float kernel(float[] a, float[] b) {
  for (int i = 1; i < N - 1; i += 1) {
    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
  }
  return b[1];
})", kN),
                {arr(n, 6), arr(n, 7)}, true, [](const auto& args) {
                  const auto a = fill_f(args[0]);
                  auto b = fill_f(args[1]);
                  for (std::size_t i = 1; i + 1 < a.size(); ++i) {
                    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                  }
                  Expected e;
                  e.ret_f = b[1];
                  e.arrays = {fa(a), fa(b)};
                  return e;
                }});
  ks.push_back({"dot_product", with_n(R"(float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i] * b[i];
  }
  return s;
})", kN),
                {arr(n, 8), arr(n, 9)}, true, [](const auto& args) {
                  const auto a = fill_f(args[0]);
                  const auto b = fill_f(args[1]);
                  double s = 0.0;
                  for (std::size_t i = 0; i < a.size(); ++i) s = s + a[i] * b[i];
                  Expected e;
                  e.ret_f = s;
                  e.ret_reduced = true;
                  e.arrays = {fa(a), fa(b)};
                  return e;
                }});
  ks.push_back({"reduce_max", with_n(R"(float kernel(float[] a) {
  float m = 0.0;
  for (int i = 0; i < N; i += 1) {
    m = fmax(m, a[i]);
  }
  return m;
})", kN),
                {arr(n, 10)}, true, [](const auto& args) {
                  const auto a = fill_f(args[0]);
                  double m = 0.0;
                  for (const double x : a) m = std::fmax(m, x);
                  Expected e;
                  e.ret_f = m;
                  e.arrays = {fa(a)};
                  return e;
                }});
  ks.push_back({"histogram", with_n(R"(float kernel(int[] bucket, float[] hist) {
  for (int i = 0; i < N; i += 1) {
    hist[bucket[i]] += 1.0;
  }
  return hist[0];
})", kN),
                {arr(n, 11), arr(n, 12)}, true, [](const auto& args) {
                  const auto bucket = fill_i(args[0]);
                  auto hist = fill_f(args[1]);
                  for (const std::int64_t b : bucket) {
                    hist[static_cast<std::size_t>(b)] += 1.0;
                  }
                  Expected e;
                  e.ret_f = hist[0];
                  e.ret_reduced = true;
                  e.arrays = {ia(bucket), fa(hist, true)};
                  return e;
                }});
  ks.push_back({"matmul", with_n(R"(float kernel(float[] A, float[] B, float[] C) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      float acc = 0.0;
      for (int k = 0; k < N; k += 1) {
        acc = acc + A[i * N + k] * B[k * N + j];
      }
      C[i * N + j] = acc;
    }
  }
  return C[0];
})", kMat),
                {arr(mm, 13), arr(mm, 14), arr(mm, 15)}, true,
                [](const auto& args) {
                  const auto A = fill_f(args[0]);
                  const auto B = fill_f(args[1]);
                  auto C = fill_f(args[2]);
                  const std::size_t N = kMat;
                  for (std::size_t i = 0; i < N; ++i) {
                    for (std::size_t j = 0; j < N; ++j) {
                      double acc = 0.0;
                      for (std::size_t k = 0; k < N; ++k) {
                        acc = acc + A[i * N + k] * B[k * N + j];
                      }
                      C[i * N + j] = acc;
                    }
                  }
                  Expected e;
                  e.ret_f = C[0];
                  e.arrays = {fa(A), fa(B), fa(C)};
                  return e;
                }});
  ks.push_back({"recurrence", with_n(R"(float kernel(float[] a, float[] b) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i - 1] * 0.5 + b[i];
  }
  return a[N - 1];
})", kN),
                {arr(n, 16), arr(n, 17)}, false, [](const auto& args) {
                  auto a = fill_f(args[0]);
                  const auto b = fill_f(args[1]);
                  for (std::size_t i = 1; i < a.size(); ++i) {
                    a[i] = a[i - 1] * 0.5 + b[i];
                  }
                  Expected e;
                  e.ret_f = a.back();
                  e.arrays = {fa(a), fa(b)};
                  return e;
                }});
  return ks;
}

bool close(double got, double want, bool reduced) {
  if (!reduced) return got == want;
  return std::fabs(got - want) <= kReduceTol * std::fabs(want);
}

/// Compares one run's outputs with the plain C++ computation; returns the
/// first mismatch, or "" when everything matches.
std::string compare(const Expected& e, const mv::profiler::RtVal& ret,
                    const std::vector<std::vector<MemCell>>& arrays) {
  if (e.ret_is_int ? ret.i != e.ret_i
                   : !close(ret.f, e.ret_f, e.ret_reduced)) {
    return "return value";
  }
  if (arrays.size() != e.arrays.size()) return "argument count";
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const ArrayRef& want = e.arrays[a];
    const std::size_t n = want.is_int ? want.i.size() : want.f.size();
    if (arrays[a].size() != n) return "array " + std::to_string(a) + " size";
    for (std::size_t k = 0; k < n; ++k) {
      const bool ok = want.is_int
                          ? arrays[a][k].i == want.i[k]
                          : close(arrays[a][k].f, want.f[k], want.reduced);
      if (!ok) {
        return "array " + std::to_string(a) + " cell " + std::to_string(k);
      }
    }
  }
  return "";
}

struct Round {
  std::vector<double> kernel_flow_s;  // whole flow, per kernel
  std::vector<double> kernel_seq_s;   // sequential run, per kernel
  std::vector<double> kernel_par_s;   // parallel run, per kernel
  double compile_s = 0.0, profile_s = 0.0, suggest_s = 0.0, plan_s = 0.0;
  double seq_s = 0.0, par_s = 0.0, par_cpu_s = 0.0;
  std::uint64_t profile_steps = 0, seq_steps = 0, par_steps = 0;
  std::size_t planned = 0;
};

}  // namespace

void run_parallelize(const Options& o, Report& r) {
  // Set-up: the kernel set, its inputs and their plain C++ outputs.
  const std::vector<Kernel> kernels = make_kernels(o.seed);
  (void)mv::par::ThreadPool::global();
  std::vector<Expected> expected;
  for (const Kernel& k : kernels) expected.push_back(k.reference(k.args));
  const double setup_s = now_s() - g_process_start_s;
  mv::profiler::ParRunOptions par_opts;
  par_opts.threads = cpus();

  const auto one_round = [&](bool measured) {
    Round rd;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const Kernel& k = kernels[ki];
      if (measured) r.add_attempted(1);
      const double k0 = now_s();
      const double seq0 = rd.seq_s, par0 = rd.par_s;
      try {
        mv::ir::Module m;
        {
          Timed t("bench.frontend.compile", rd.compile_s);
          m = mv::frontend::compile(k.source, k.name);
        }
        mv::profiler::ProfileResult prof;
        {
          Timed t("bench.profiler.profile", rd.profile_s);
          prof = mv::profiler::profile(m, "kernel", k.args);
        }
        rd.profile_steps += prof.run.steps;
        std::vector<mv::analysis::Suggestion> sugg;
        {
          Timed t("bench.analysis.suggest_openmp", rd.suggest_s);
          sugg = mv::analysis::suggest_openmp(m, prof);
        }
        mv::transform::ParallelPlanResult plan;
        {
          Timed t("bench.transform.plan_parallel", rd.plan_s);
          plan = mv::transform::plan_parallel(m, "kernel", sugg, prof);
        }
        rd.planned += plan.planned_loops();
        r.check(k.parallel_safe == (plan.planned_loops() > 0),
                "parallelize: " + k.name + " planned " +
                    std::to_string(plan.planned_loops()) + " loops");
        mv::profiler::CapturedRun seq;
        {
          Timed t("bench.profiler.run_capture", rd.seq_s);
          seq = mv::profiler::run_capture(m, "kernel", k.args);
        }
        rd.seq_steps += seq.run.steps;
        const double c0 = cpu_s();
        mv::profiler::ParOutput par;
        {
          Timed t("bench.profiler.run_parallel", rd.par_s);
          par = mv::profiler::run_parallel(m, "kernel", k.args, plan.plan,
                                           par_opts);
        }
        rd.par_cpu_s += cpu_s() - c0;
        rd.par_steps += par.run.steps;
        const std::string seq_diff =
            compare(expected[ki], seq.run.return_value, seq.arg_arrays);
        const std::string par_diff =
            compare(expected[ki], par.run.return_value, par.arg_arrays);
        r.check(seq_diff.empty(), "parallelize: " + k.name +
                                      " sequential run differs in " +
                                      seq_diff);
        r.check(par_diff.empty(), "parallelize: " + k.name +
                                      " parallel run differs in " + par_diff);
      } catch (const std::exception& e) {
        if (measured) r.add_failed(1);
        r.check(false, "parallelize: " + k.name + " threw: " + e.what());
      }
      rd.kernel_flow_s.push_back(now_s() - k0);
      rd.kernel_seq_s.push_back(rd.seq_s - seq0);
      rd.kernel_par_s.push_back(rd.par_s - par0);
    }
    return rd;
  };

  (void)one_round(false);  // warm-up
  ::malloc_trim(0);  // as in offline: the peak RSS of one round
  std::vector<Round> rounds;
  const double window0 = now_s();
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         now_s() - window0 < o.seconds) {
    rounds.push_back(one_round(true));
    ::malloc_trim(0);
  }
  const double peak = peak_rss_mib();

  const auto med = [&](const std::function<double(const Round&)>& f) {
    std::vector<double> v;
    for (const Round& rd : rounds) v.push_back(f(rd));
    return median(v);
  };
  const auto nk = static_cast<double>(kernels.size());
  // Each kernel's median over the rounds, summed over the kernel set: a
  // host stall spoils one kernel's sample, not the round's figure.
  double flow_s = 0.0, seq_s = 0.0, par_s = 0.0;
  for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
    flow_s += med([&](const Round& rd) { return rd.kernel_flow_s[ki]; });
    seq_s += med([&](const Round& rd) { return rd.kernel_seq_s[ki]; });
    par_s += med([&](const Round& rd) { return rd.kernel_par_s[ki]; });
  }
  std::printf("parallelize: %zu kernels (N=%d, matmul %dx%d), %zu measured "
              "rounds, %u workers\n",
              kernels.size(), kN, kMat, kMat, rounds.size(), par_opts.threads);
  // Kernel flows per second of each round. The bounded figure is the
  // 90th-percentile round, as for serve: a host stall only slows a round.
  std::vector<double> round_rate, round_seq_s;
  for (const Round& rd : rounds) {
    round_rate.push_back(nk / std::accumulate(rd.kernel_flow_s.begin(),
                                              rd.kernel_flow_s.end(), 0.0));
    round_seq_s.push_back(rd.seq_s);
  }
  r.series("kernel_flows_per_s", round_rate, "1/s");
  r.series("seq_run_s", round_seq_s, "s");
  r.figure("parallelize_s", flow_s, "s");
  r.figure("par_run_s", par_s, "s");
  r.figure("seq_run_s", seq_s, "s");
  r.e2e("setup_s", setup_s, "s");
  r.e2e("peak_rss_mib", peak, "MiB");
  r.e2e("work_per_s", quantile(round_rate, 0.9), "1/s");
  // The parallel runs carry no bound: their fan-out flexes with host
  // contention (profiler.par_cpu_per_wall), so they are reported per layer.
  r.e2e("step_p50_ms", seq_s * 1e3, "ms");

  r.layer("frontend.compile_s",
          med([](const Round& rd) { return rd.compile_s; }), "s");
  r.layer("profiler.profile_s",
          med([](const Round& rd) { return rd.profile_s; }), "s");
  r.layer("profiler.steps",
          med([](const Round& rd) {
            return static_cast<double>(rd.profile_steps);
          }),
          "count");
  r.layer("profiler.observed_steps_per_s", med([](const Round& rd) {
            return static_cast<double>(rd.profile_steps) / rd.profile_s;
          }),
          "steps/s");
  r.layer("profiler.seq_steps_per_s", med([](const Round& rd) {
            return static_cast<double>(rd.seq_steps) / rd.seq_s;
          }),
          "steps/s");
  r.layer("profiler.par_steps_per_s", med([](const Round& rd) {
            return static_cast<double>(rd.par_steps) / rd.par_s;
          }),
          "steps/s");
  r.layer("profiler.par_cpu_per_wall",
          med([](const Round& rd) { return rd.par_cpu_s / rd.par_s; }),
          "CPU-s/s");
  r.layer("profiler.par_run_s", par_s, "s");
  r.layer("analysis.suggest_s",
          med([](const Round& rd) { return rd.suggest_s; }), "s");
  r.layer("transform.plan_s", med([](const Round& rd) { return rd.plan_s; }),
          "s");
  r.layer("transform.planned_loops",
          med([](const Round& rd) { return static_cast<double>(rd.planned); }),
          "count");
}

}  // namespace perfbench
