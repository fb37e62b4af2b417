#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "embedding/normalizer.hpp"
#include "embedding/skipgram.hpp"
#include "frontend/lower.hpp"
#include "graph/anon_walk.hpp"
#include "graph/peg.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/rng.hpp"
#include "profiler/profile.hpp"

namespace perfbench {

double g_process_start_s = 0.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::uint64_t counter(const std::string& name) {
  return mvgnn::obs::Registry::global().counter(name).value();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  if (!trace_) metrics_[name] = {value, unit};
  figure(name, value, unit);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  if (trace_) metrics_[name] = {value, unit};
  figure(name, value, unit);
}

void Report::figure(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::series(const std::string& name,
                    const std::vector<double>& values,
                    const std::string& unit) {
  std::printf("  %s per round (%s): p10 %.4g p25 %.4g p50 %.4g p75 %.4g "
              "p90 %.4g over %zu rounds\n",
              name.c_str(), unit.c_str(), quantile(values, 0.1),
              quantile(values, 0.25), quantile(values, 0.5),
              quantile(values, 0.75), quantile(values, 0.9), values.size());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  // Cap the noise: the first few failures say what broke.
  if (++check_failures_ <= 20) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

LayerPass layer_pass(const std::vector<PassInput>& programs) {
  namespace mv = mvgnn;
  LayerPass p;
  mv::embedding::Vocab vocab;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  mv::par::Rng walk_rng(0xA110C8);
  const mv::graph::AwParams walk;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    mv::ir::Module m;
    {
      Timed t("bench.frontend.compile", p.compile_s);
      m = mv::frontend::compile(*programs[i].source,
                                "p" + std::to_string(i));
    }
    mv::profiler::ProfileResult prof;
    {
      Timed t("bench.profiler.profile", p.profile_s);
      prof = mv::profiler::profile(m, "kernel", *programs[i].args);
    }
    p.steps += prof.run.steps;
    mv::graph::Peg peg;
    {
      Timed t("bench.graph.build_peg", p.peg_s);
      peg = mv::graph::build_peg(m, prof);
    }
    p.peg_nodes += peg.num_nodes();
    {
      Timed t("bench.graph.walks", p.walks_s);
      for (const auto& ls : prof.loops) {
        const mv::graph::SubPeg sub =
            mv::graph::extract_sub_peg(peg, ls.fn, ls.loop);
        mv::graph::WalkGraph wg(sub.num_nodes());
        for (const auto& e : sub.edges) wg.add_edge(e.src, e.dst);
        for (std::uint32_t k = 0; k < sub.num_nodes(); ++k) {
          (void)mv::graph::sample_anon_walks(wg, k, walk, walk_rng);
        }
      }
    }
    for (const auto& fn : m.functions) {
      const auto more = mv::embedding::context_pairs(*fn, vocab, true);
      pairs.insert(pairs.end(), more.begin(), more.end());
    }
  }
  {
    Timed t("bench.embedding.skipgram", p.skipgram_s);
    mv::par::Rng sg_rng(0x5EED);
    mv::embedding::SkipGramParams sg;
    sg.epochs = 2;  // DatasetOptions::skipgram_epochs
    (void)mv::embedding::train_skipgram(vocab.size(), pairs, sg, sg_rng);
  }
  return p;
}

void report_layer_pass(Report& r, const LayerPass& p, double rounds) {
  r.layer("frontend.compile_s", p.compile_s * rounds, "s");
  r.layer("profiler.profile_s", p.profile_s * rounds, "s");
  r.layer("profiler.steps", static_cast<double>(p.steps) * rounds, "count");
  r.layer("profiler.observed_steps_per_s",
          p.profile_s > 0 ? static_cast<double>(p.steps) / p.profile_s : 0.0,
          "steps/s");
  r.layer("graph.peg_s", p.peg_s * rounds, "s");
  r.layer("graph.walks_s", p.walks_s * rounds, "s");
  r.layer("graph.peg_nodes", static_cast<double>(p.peg_nodes) * rounds,
          "count");
}

void SpanTally::absorb() {
  mvgnn::obs::TraceRecorder& rec = mvgnn::obs::TraceRecorder::global();
  const std::vector<mvgnn::obs::SpanEvent> events = rec.events();
  rec.clear();
  // events() lists each thread's spans in begin order, so a parent index
  // refers into the same thread's run of the vector.
  std::size_t run_start = 0;
  std::vector<double> child_s(events.size(), 0.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0 && events[i].tid != events[i - 1].tid) run_start = i;
    const auto& e = events[i];
    const double dur = static_cast<double>(e.end_ns - e.start_ns) * 1e-9;
    if (e.parent >= 0) {
      child_s[run_start + static_cast<std::size_t>(e.parent)] += dur;
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const double dur = static_cast<double>(e.end_ns - e.start_ns) * 1e-9;
    SpanStat& s = stats_[e.name];
    s.total_s += dur;
    s.self_s += std::max(0.0, dur - child_s[i]);
    s.durations_s.push_back(dur);
  }
}

const SpanStat& SpanTally::get(const std::string& name) const {
  static const SpanStat kEmpty;
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

}  // namespace perfbench
