// `offline`: the path of `mvgnn dataset` + `mvgnn train` — build a dataset
// from a seeded generated corpus (stage cache off), train MV-GNN for a fixed
// number of epochs on the sharded data-parallel trainer, classify the
// held-out split. One round is all three; the corpus is the same every round.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mv = mvgnn;

constexpr int kCorpusLoops = 5000;
constexpr std::size_t kEpochs = 3;
constexpr std::size_t kBatch = 16;
constexpr int kMinRounds = 3;

/// Patterns whose parallelizability src/data/kernels.hpp documents without
/// condition, each emitting exactly one loop.
const std::map<mv::data::Pattern, int>& unconditional_labels() {
  using P = mv::data::Pattern;
  static const std::map<P, int> m = {
      {P::VecMap, 1},      {P::VecScaleInPlace, 1}, {P::Saxpy, 1},
      {P::ReduceSum, 1},   {P::DotProduct, 1},      {P::Recurrence, 0},
      {P::ScalarCarried, 0},
  };
  return m;
}

struct Round {
  double build_s = 0.0;
  double build_cpu_s = 0.0;
  double train_s = 0.0;
  double train_cpu_s = 0.0;
  /// Wall time of each held-out prediction.
  std::vector<double> predict_ms;
  std::size_t loops = 0;
  std::size_t train_samples = 0;
  std::size_t heldout = 0;
  double accuracy = 0.0;
};

}  // namespace

void run_offline(const Options& o, Report& r) {
  mv::data::DatasetOptions opts;
  opts.seed = 5;
  // ---- set-up: the seeded corpus, built once. The cold build pays the
  // first-touch costs (pool start, allocator, interpreter tables) that a
  // one-shot `mvgnn dataset` pays; its output is discarded. ---------------
  const std::vector<mv::data::ProgramSpec> corpus =
      mv::data::build_generated_corpus(kCorpusLoops, 1000 + o.seed);
  (void)mv::data::build_dataset(corpus, opts, nullptr);
  const double setup_s = now_s() - g_process_start_s;

  std::size_t declared_loops = 0;
  std::map<std::string, const mv::data::ProgramSpec*> by_name;
  for (const auto& p : corpus) {
    declared_loops += static_cast<std::size_t>(p.kernel.for_loops);
    by_name[p.kernel.name] = &p;
  }
  const std::size_t workers = cpus();

  SpanTally tally;
  const auto one_round = [&](bool measured) {
    Round rd;
    std::size_t skipped = 0;
    double c0 = cpu_s();
    mv::data::Dataset ds;
    {
      Timed t("bench.data.build_dataset", rd.build_s);
      ds = mv::data::build_dataset(corpus, opts, &skipped);
    }
    rd.build_cpu_s = cpu_s() - c0;
    rd.loops = ds.samples.size();

    if (measured) {
      r.add_attempted(corpus.size());
      r.add_failed(skipped);
    }
    r.check(skipped == 0, "offline: " + std::to_string(skipped) +
                              " corpus programs quarantined");
    r.check(ds.samples.size() == declared_loops,
            "offline: dataset has " + std::to_string(ds.samples.size()) +
                " samples, the generator declared " +
                std::to_string(declared_loops) + " for-loops");
    std::size_t label_mismatch = 0;
    for (const auto& s : ds.samples) {
      const auto it = by_name.find(s.kernel);
      if (it == by_name.end()) {
        ++label_mismatch;
        continue;
      }
      const auto lab = unconditional_labels().find(it->second->pattern);
      if (lab != unconditional_labels().end() && s.label != lab->second) {
        ++label_mismatch;
      }
    }
    r.check(label_mismatch == 0,
            "offline: " + std::to_string(label_mismatch) +
                " samples with a label other than their pattern's class");

    auto [train_raw, heldout] = mv::data::split_by_kernel(ds, 0.85, 5);
    const std::vector<std::size_t> train =
        mv::data::oversample_balance(ds, train_raw, 5);
    const mv::core::Normalizer norm = mv::core::Normalizer::fit(ds, train);
    const mv::core::Featurizer feats(ds, norm);
    mv::core::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.batch_size = kBatch;
    tc.threads = workers;
    tc.seed = 1;
    mv::core::MvGnnTrainer trainer(feats, mv::core::default_config(feats), tc);
    rd.train_samples = train.size();
    // Featurize the training split up front, so fit() times the epochs
    // alone (the trainer would otherwise featurize during the first one).
    feats.prefetch(train);
    c0 = cpu_s();
    {
      Timed t("bench.core.fit", rd.train_s);
      trainer.fit(train, {});
    }
    rd.train_cpu_s = cpu_s() - c0;

    // Classify the held-out split one sample at a time through the
    // trainer's prediction call; accuracy is recomputed here from the
    // per-sample predictions.
    feats.prefetch(heldout);
    std::size_t correct = 0, positives = 0;
    for (const std::size_t i : heldout) {
      double predict_s = 0.0;
      int pred = 0;
      {
        Timed t("bench.core.predict", predict_s);
        pred = trainer.predict(i).fused;
      }
      rd.predict_ms.push_back(predict_s * 1e3);
      const int label = ds.samples[i].label;
      correct += (pred == label);
      positives += (label == 1);
    }
    rd.heldout = heldout.size();
    rd.accuracy = heldout.empty()
                      ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(heldout.size());
    const double majority =
        heldout.empty() ? 1.0
                        : static_cast<double>(std::max(
                              positives, heldout.size() - positives)) /
                              static_cast<double>(heldout.size());
    r.check(rd.accuracy > majority,
            "offline: held-out accuracy " + std::to_string(rd.accuracy) +
                " does not beat the majority-class share " +
                std::to_string(majority));
    return rd;
  };

  const bool tracing = mv::obs::TraceRecorder::global().enabled();
  (void)one_round(false);  // warm-up
  // Freed heap goes back to the system after every round, so the peak RSS
  // is that of one round (one `mvgnn dataset` + `train` process) and does
  // not grow with the number of rounds the run happens to fit.
  ::malloc_trim(0);
  if (tracing) tally.absorb();
  const std::uint64_t helped0 = counter("pool.helped_tasks_total");
  const std::uint64_t executed0 = counter("thread_pool.tasks_executed_total");
  const std::uint64_t flops0 = counter("gemm.flops_total");
  std::vector<Round> rounds;
  std::vector<double> rss_after{peak_rss_mib()};
  const double window0 = now_s();
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         now_s() - window0 < o.seconds) {
    rounds.push_back(one_round(true));
    ::malloc_trim(0);
    rss_after.push_back(peak_rss_mib());
    if (tracing) tally.absorb();
  }
  const double peak = peak_rss_mib();
  const auto n = static_cast<double>(rounds.size());

  std::vector<double> build_rate, train_rate, epoch_ms, build_s, epoch_s,
      build_cpw, train_cpw, fwd_ms, acc, predict_ms, predict_round_ms;
  for (const Round& rd : rounds) {
    build_rate.push_back(static_cast<double>(rd.loops) / rd.build_s);
    train_rate.push_back(static_cast<double>(rd.train_samples * kEpochs) /
                         rd.train_s);
    epoch_ms.push_back(rd.train_s / kEpochs * 1e3);
    build_s.push_back(rd.build_s);
    epoch_s.push_back(rd.train_s / kEpochs);
    build_cpw.push_back(rd.build_cpu_s / rd.build_s);
    train_cpw.push_back(rd.train_cpu_s / rd.train_s);
    fwd_ms.push_back(std::accumulate(rd.predict_ms.begin(),
                                     rd.predict_ms.end(), 0.0) /
                     static_cast<double>(rd.heldout));
    acc.push_back(rd.accuracy);
    predict_ms.insert(predict_ms.end(), rd.predict_ms.begin(),
                      rd.predict_ms.end());
    predict_round_ms.push_back(median(rd.predict_ms));
  }

  std::printf("offline: %zu programs, %zu loops, %zu measured rounds of "
              "build + %zu epochs (batch %zu, %zu workers) + classify\n",
              corpus.size(), declared_loops, rounds.size(), kEpochs, kBatch,
              workers);
  r.series("build_loops_per_s", build_rate, "loops/s");
  r.series("data.build_cpu_per_wall", build_cpw, "CPU-s/s");
  r.series("epoch_ms", epoch_ms, "ms");
  r.series("predict_ms", predict_round_ms, "ms");
  r.series("peak_rss_mib", rss_after, "MiB");
  r.figure("build_loops_per_s", median(build_rate), "loops/s");
  r.figure("train_samples_per_s", median(train_rate), "samples/s");
  r.figure("predict_p50_ms", median(predict_ms), "ms");
  r.figure("predictions", static_cast<double>(predict_ms.size()), "count");
  r.e2e("setup_s", setup_s, "s");
  r.e2e("peak_rss_mib", peak, "MiB");
  r.e2e("work_per_s", median(build_rate), "1/s");
  // The median held-out prediction, not the epoch: on a shared host an
  // epoch's wall time swings several-fold with the host's steal time (see
  // README.md), so training speed is reported by name and per layer only.
  r.e2e("step_p50_ms", median(predict_ms), "ms");

  if (!tracing) return;
  const SpanStat& gemm = tally.get("gemm");
  const double flops = static_cast<double>(counter("gemm.flops_total") - flops0);
  const std::uint64_t executed =
      counter("thread_pool.tasks_executed_total") - executed0;
  r.layer("data.build_s", median(build_s), "s");
  r.layer("data.build_cpu_per_wall", median(build_cpw), "CPU-s/s");
  r.layer("core.epoch_s", median(epoch_s), "s");
  r.layer("core.train_cpu_per_wall", median(train_cpw), "CPU-s/s");
  r.layer("core.step_serial_s", tally.get("trainer.dp_step").self_s / n, "s");
  r.layer("core.forward_ms_per_sample", median(fwd_ms), "ms");
  r.layer("core.heldout_accuracy", median(acc), "fraction");
  r.layer("tensor.gemm_s", gemm.total_s / n, "s");
  r.layer("tensor.gemm_gflops",
          gemm.total_s > 0 ? flops / gemm.total_s * 1e-9 : 0.0, "GFLOP/s");
  r.layer("tensor.spmm_s", tally.get("tensor.spmm").total_s / n, "s");
  r.layer("parallel.helped_share",
          executed ? static_cast<double>(counter("pool.helped_tasks_total") -
                                         helped0) /
                         static_cast<double>(executed)
                   : 0.0,
          "ratio");
  r.layer("parallel.task_p50_us",
          mv::obs::Registry::global()
              .histogram("thread_pool.task_latency_us", {})
              .percentile(0.5),
          "us");

  // Layer pass over the same corpus, from the benchmark's own code.
  std::vector<PassInput> inputs;
  for (const auto& p : corpus) inputs.push_back({&p.kernel.source, &p.kernel.args});
  const LayerPass pass = layer_pass(inputs);
  report_layer_pass(r, pass, 1.0);
  r.layer("embedding.skipgram_s", pass.skipgram_s, "s");
}

}  // namespace perfbench
