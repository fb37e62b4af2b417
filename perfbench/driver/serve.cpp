// `serve`: an in-process serve::Server on a checkpoint trained beforehand
// (prepare_serve), driven closed-loop from one connection per CPU. The
// request stream is a seeded draw: half the requests repeat a small hot set
// that stays in the daemon's hot-program cache, the rest are generated
// programs the daemon has never seen. A miss pays compile -> profile -> PEG
// -> walks -> featurize; a hit goes straight to the batched forward.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/corpus.hpp"
#include "frontend/lower.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mv = mvgnn;
namespace fs = std::filesystem;

/// Serving-context corpus (`mvgnn serve --corpus`), in loops.
constexpr int kContextLoops = 1600;
constexpr std::size_t kCheckpointEpochs = 3;
constexpr std::size_t kHot = 8;
constexpr std::size_t kRound = 100;           // requests per round
constexpr std::size_t kWarmupRounds = 2;
constexpr std::size_t kMinTimedRounds = 100;  // >= 10 rounds beyond p90
constexpr std::size_t kMaxRequests = 40000;   // stream length
/// ServerConfig::batch_max_samples, the flush size the forward timing uses.
constexpr std::size_t kFlushSamples = 32;

std::string checkpoint_path(const Options& o) {
  return (fs::path(o.state_dir) / "serve.mvck").string();
}

/// Blocking line client over loopback TCP.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client: socket failed");
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("client: connect failed");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one line and returns the response line ("" on EOF or error).
  std::string call(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return "";
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char tmp[8192];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return "";
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One program the stream can send.
struct Program {
  std::string source;
  int declared_loops = 0;
  bool hot = false;
};

struct Record {
  double sent_s = 0.0;
  double done_s = 0.0;
  std::string response;
};

/// The entry-argument recipe of the daemon (and the CLI): arrays of 4096
/// elements, ints 8, floats 1.0.
std::vector<mv::profiler::ArgInit> synth_args(const mv::ir::Function& k) {
  std::vector<mv::profiler::ArgInit> args;
  for (const auto& p : k.params) {
    if (mv::ir::is_array(p.type)) {
      args.push_back(mv::profiler::ArgInit::of_array(4096, args.size() + 1));
    } else if (p.type == mv::ir::TypeKind::Int) {
      args.push_back(mv::profiler::ArgInit::of_int(8));
    } else {
      args.push_back(mv::profiler::ArgInit::of_float(1.0));
    }
  }
  return args;
}

struct Verdict {
  int line = 0, fused = 0, node = 0, strct = 0;
  bool operator==(const Verdict&) const = default;
};

struct Parsed {
  bool ok = false;
  double latency_us = 0.0;
  std::vector<Verdict> loops;
};

Parsed parse_response(const std::string& line) {
  Parsed p;
  if (line.empty()) return p;
  try {
    const mv::obs::json::Value v = mv::obs::json::parse(line);
    const mv::obs::json::Value* ok = v.find("ok");
    p.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (!p.ok) return p;
    p.latency_us = v.num_or("latency_us", -1.0);
    const mv::obs::json::Value* loops = v.find("loops");
    if (loops == nullptr || !loops->is_array()) {
      p.ok = false;
      return p;
    }
    for (const auto& l : loops->as_array()) {
      Verdict d;
      d.line = static_cast<int>(l.num_or("line", -1));
      d.fused = l.str_or("verdict", "") == "parallelizable";
      d.node = l.str_or("node_view", "") == "par";
      d.strct = l.str_or("struct_view", "") == "par";
      p.loops.push_back(d);
    }
  } catch (const std::exception&) {
    p.ok = false;
  }
  return p;
}

int argmax(const mv::ag::Tensor& t) { return t.at(0, 1) > t.at(0, 0) ? 1 : 0; }

/// Builds the hot set and the never-seen pool, then the seeded stream of
/// program indices. Sources are distinct across both sets.
void make_stream(std::uint64_t seed, std::vector<Program>& programs,
                 std::vector<std::uint32_t>& stream) {
  std::set<std::string> seen;
  const auto take = [&](const std::vector<mv::data::ProgramSpec>& specs,
                        bool hot, std::size_t want) {
    for (const auto& s : specs) {
      if (want == 0) break;
      if (!seen.insert(s.kernel.source).second) continue;
      programs.push_back({s.kernel.source, s.kernel.for_loops, hot});
      --want;
    }
  };
  // Corpus seeds differ from the serving context's (2024).
  take(mv::data::build_generated_corpus(64, 3000 + seed), true, kHot);
  const std::size_t hot = programs.size();
  std::size_t fresh_wanted = kMaxRequests / 2 + kMaxRequests / 10;
  for (std::uint64_t chunk = 0; fresh_wanted > 0 && chunk < 64; ++chunk) {
    const std::size_t before = programs.size();
    take(mv::data::build_generated_corpus(8000, 4000 + seed * 64 + chunk),
         false, fresh_wanted);
    fresh_wanted -= programs.size() - before;
  }
  mv::par::Rng rng(seed ^ 0x5E57E);
  std::size_t next_fresh = hot;
  while (stream.size() < kMaxRequests) {
    if (rng.bernoulli(0.5)) {
      stream.push_back(static_cast<std::uint32_t>(rng.uniform_u64(hot)));
    } else if (next_fresh < programs.size()) {
      stream.push_back(static_cast<std::uint32_t>(next_fresh++));
    } else {
      break;
    }
  }
}

}  // namespace

int prepare_serve(const Options& o) {
  fs::create_directories(o.state_dir);
  const fs::path tmp = fs::path(o.state_dir) / "serve-ckpt";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  // The cmd_train recipe on the serving context: same split, balance and
  // normalizer, so the checkpoint's shapes match the daemon's context.
  mv::serve::ServingContext ctx =
      mv::serve::build_serving_context(kContextLoops, nullptr);
  auto [train_raw, val] = mv::data::split_by_kernel(ctx.ds, 0.85, 5);
  const std::vector<std::size_t> train =
      mv::data::oversample_balance(ctx.ds, train_raw, 5);
  const mv::core::Featurizer feats(ctx.ds, ctx.norm);
  mv::core::TrainConfig tc;
  tc.epochs = kCheckpointEpochs;
  tc.batch_size = 16;
  tc.threads = cpus();
  tc.seed = 1;
  tc.checkpoint_dir = tmp.string();
  tc.checkpoint_every = kCheckpointEpochs;  // one file, after the last epoch
  mv::core::MvGnnTrainer trainer(feats, ctx.model_cfg, tc);
  trainer.fit(train, {});
  const std::string latest = mv::core::latest_checkpoint(tmp.string());
  if (latest.empty()) {
    std::fprintf(stderr, "prepare-serve: training wrote no checkpoint\n");
    return 1;
  }
  fs::rename(latest, checkpoint_path(o));
  fs::remove_all(tmp);
  std::printf("prepare-serve: wrote %s (%zu epochs on %zu samples)\n",
              checkpoint_path(o).c_str(), kCheckpointEpochs, train.size());
  return 0;
}

void run_serve(const Options& o, Report& r) {
  // ---- set-up: context rebuild + checkpoint load, until the daemon has
  // answered its first request ------------------------------------------
  double context_s = 0.0, load_s = 0.0;
  mv::serve::ServingContext ctx;
  {
    Timed t("bench.serve.build_serving_context", context_s);
    ctx = mv::serve::build_serving_context(kContextLoops, nullptr);
  }
  mv::serve::ServerConfig cfg;
  cfg.checkpoint = checkpoint_path(o);
  std::unique_ptr<mv::serve::Server> server;
  {
    Timed t("bench.serve.server_ctor", load_s);
    server = std::make_unique<mv::serve::Server>(std::move(ctx), cfg);
  }
  server->start();
  const int port = server->port();
  {
    Client c(port);
    const std::string pong = c.call("{\"cmd\": \"ping\"}\n");
    r.check(pong.find("\"pong\": true") != std::string::npos,
            "serve: first request not accepted: " + pong);
  }
  const double setup_s = now_s() - g_process_start_s;

  // ---- the request stream ----------------------------------------------
  std::vector<Program> programs;
  std::vector<std::uint32_t> stream;
  make_stream(o.seed, programs, stream);
  std::vector<std::string> lines;
  lines.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    lines.push_back("{\"id\": \"r" + std::to_string(i) + "\", \"source\": \"" +
                    mv::serve::json_escape(programs[stream[i]].source) +
                    "\", \"deadline_ms\": 0}\n");
  }
  std::vector<Record> recs(stream.size());
  const unsigned conns = cpus();

  // Runs requests from `begin` on `conns` closed-loop connections until
  // `count` requests are done or, with a deadline, until the round in
  // flight when it passes is complete. Returns one past the last index.
  const auto run_phase = [&](std::size_t begin, std::size_t count,
                             double deadline) {
    std::mutex mu;
    std::size_t next = begin;
    std::size_t limit = std::min(stream.size(), begin + count);
    bool closing = deadline <= 0.0;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c) {
      threads.emplace_back([&] {
        Client cl(port);
        for (;;) {
          std::size_t idx;
          {
            std::lock_guard<std::mutex> lk(mu);
            if (next >= limit) break;
            idx = next++;
            if (!closing && now_s() >= deadline) {
              closing = true;
              const std::size_t done = idx + 1 - begin;
              limit = std::min(limit,
                               begin + (done + kRound - 1) / kRound * kRound);
            }
          }
          Record& rec = recs[idx];
          rec.sent_s = now_s();
          rec.response = cl.call(lines[idx]);
          rec.done_s = now_s();
        }
      });
    }
    for (auto& t : threads) t.join();
    return limit;
  };

  const std::size_t warm_end = run_phase(0, kWarmupRounds * kRound, 0.0);
  const std::uint64_t req0 = counter("serve.requests_total");
  const std::uint64_t hits0 = counter("serve.program_cache_hits_total");
  auto& batch_hist = mv::obs::Registry::global().histogram("serve.batch_size", {});
  const std::uint64_t batches0 = batch_hist.count();
  const double batch_sum0 = batch_hist.sum();
  const bool tracing = mv::obs::TraceRecorder::global().enabled();
  if (tracing) mv::obs::TraceRecorder::global().clear();

  const double window0 = now_s();
  std::size_t end = run_phase(warm_end, kMinTimedRounds * kRound, 0.0);
  const double remaining = o.seconds - (now_s() - window0);
  if (remaining > 0.0) end = run_phase(end, stream.size(), now_s() + remaining);
  const double window_s = now_s() - window0;
  const double peak = peak_rss_mib();
  const std::uint64_t requests = counter("serve.requests_total") - req0;
  const std::uint64_t hits = counter("serve.program_cache_hits_total") - hits0;
  const std::uint64_t batches = batch_hist.count() - batches0;
  const double batch_samples = batch_hist.sum() - batch_sum0;
  server->stop();
  server.reset();
  SpanTally tally;
  if (tracing) tally.absorb();

  // ---- checks on every response ------------------------------------------
  const std::size_t timed = end - warm_end;
  r.add_attempted(timed);
  std::vector<Parsed> parsed(end);
  std::vector<double> client_ms, server_ms;
  std::size_t failed = 0, shape_errors = 0, repeat_mismatch = 0;
  std::map<std::uint32_t, std::size_t> first_answer;  // program -> request
  for (std::size_t i = 0; i < end; ++i) {
    parsed[i] = parse_response(recs[i].response);
    const Parsed& p = parsed[i];
    if (!p.ok) {
      if (i >= warm_end) ++failed;
      r.check(false, "serve: request " + std::to_string(i) +
                         " not answered ok: " + recs[i].response.substr(0, 200));
      continue;
    }
    if (i >= warm_end) {
      client_ms.push_back((recs[i].done_s - recs[i].sent_s) * 1e3);
      server_ms.push_back(p.latency_us * 1e-3);
    }
    const Program& prog = programs[stream[i]];
    // Every loop the generator declared, each at a line holding a `for`.
    std::vector<std::string> src_lines;
    {
      std::istringstream in(prog.source);
      for (std::string l; std::getline(in, l);) src_lines.push_back(l);
    }
    bool shape_ok = static_cast<int>(p.loops.size()) == prog.declared_loops;
    for (const Verdict& v : p.loops) {
      shape_ok = shape_ok && v.line >= 1 &&
                 v.line <= static_cast<int>(src_lines.size()) &&
                 src_lines[static_cast<std::size_t>(v.line - 1)].find("for") !=
                     std::string::npos;
    }
    if (!shape_ok) ++shape_errors;
    // A repeated program: hot-cache answers equal the first (miss) answer.
    const auto [it, fresh] = first_answer.emplace(stream[i], i);
    if (!fresh && parsed[it->second].loops != p.loops) ++repeat_mismatch;
  }
  r.add_failed(failed);
  r.check(shape_errors == 0, "serve: " + std::to_string(shape_errors) +
                                 " responses with loops other than the "
                                 "program's for-loops");
  r.check(repeat_mismatch == 0,
          "serve: " + std::to_string(repeat_mismatch) +
              " repeated programs answered differently from their first answer");

  // ---- every distinct program against an in-process batch-of-one
  // prediction with the same checkpoint and a rebuilt serving context ------
  const mv::serve::ServingContext vctx =
      mv::serve::build_serving_context(kContextLoops, nullptr);
  const std::shared_ptr<const mv::serve::Model> model =
      mv::serve::load_model(vctx, checkpoint_path(o), 1);
  std::vector<std::pair<std::uint32_t, std::size_t>> distinct(
      first_answer.begin(), first_answer.end());
  std::vector<std::vector<mv::profiler::ArgInit>> args(distinct.size());
  std::vector<std::vector<mv::core::SampleInput>> inputs(distinct.size());
  std::vector<std::vector<int>> loop_lines(distinct.size());
  std::vector<char> featurized(distinct.size(), 0);
  // Featurization fans out (the daemon's connection threads do the same);
  // the forwards run on this thread, as the daemon's single batcher does.
  std::atomic<std::size_t> next_job{0};
  {
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < conns; ++w) {
      workers.emplace_back([&] {
        for (std::size_t j; (j = next_job.fetch_add(1)) < distinct.size();) {
          const Program& prog = programs[distinct[j].first];
          mv::data::ProgramSpec spec;
          spec.suite = "Serve";
          spec.app = "request";
          spec.kernel.name = "request";
          spec.kernel.source = prog.source;
          try {
            const mv::ir::Module probe =
                mv::frontend::compile(prog.source, "request");
            spec.kernel.args = synth_args(*probe.find("kernel"));
            args[j] = spec.kernel.args;
            mv::data::DatasetOptions fopts = vctx.feat_opts;
            fopts.interp = mv::serve::ServerConfig{}.interp;
            for (const auto& s :
                 mv::data::featurize_program(spec, vctx.ds, fopts)) {
              inputs[j].push_back(
                  mv::core::build_input(s, vctx.ds, vctx.norm));
              loop_lines[j].push_back(s.loop_line);
            }
            featurized[j] = 1;
          } catch (const std::exception&) {
          }
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  std::size_t verdict_mismatch = 0;
  mv::par::Rng fwd_rng(7);
  for (std::size_t j = 0; j < distinct.size(); ++j) {
    std::vector<Verdict> want;
    for (std::size_t l = 0; featurized[j] && l < inputs[j].size(); ++l) {
      const auto out = model->net->forward(inputs[j][l], false, fwd_rng);
      want.push_back({loop_lines[j][l], argmax(out.logits),
                      argmax(out.node_logits), argmax(out.struct_logits)});
    }
    if (!featurized[j] || want != parsed[distinct[j].second].loops) {
      ++verdict_mismatch;
    }
  }
  r.check(verdict_mismatch == 0,
          "serve: " + std::to_string(verdict_mismatch) + " of " +
              std::to_string(distinct.size()) +
              " programs answered differently from an in-process batch-of-one "
              "prediction");

  std::size_t hot_requests = 0;
  for (std::size_t i = warm_end; i < end; ++i) {
    hot_requests += programs[stream[i]].hot;
  }
  // Throughput of each timed round of kRound requests, first send to last
  // answer. The bounded figure is the 90th-percentile round: a host stall
  // only ever slows a round, so the median round moves with the share of
  // stalled rounds (on a shared host, 0.25 of its value between runs),
  // while the upper rounds keep the daemon's own rate.
  std::vector<double> round_rps;
  for (std::size_t b = warm_end; b + kRound <= end; b += kRound) {
    double t0 = recs[b].sent_s, t1 = recs[b].done_s;
    std::size_t ok = 0;
    for (std::size_t i = b; i < b + kRound; ++i) {
      t0 = std::min(t0, recs[i].sent_s);
      t1 = std::max(t1, recs[i].done_s);
      ok += parsed[i].ok;
    }
    round_rps.push_back(static_cast<double>(ok) / (t1 - t0));
  }
  const double rps = quantile(round_rps, 0.9);
  r.series("serve_rps", round_rps, "req/s");
  const double client_p50 = median(client_ms);
  const double server_p50 = median(server_ms);
  std::printf("serve: %u connections, hot set %zu (%.0f%% of requests), "
              "%zu timed requests in %.2f s, %zu distinct programs checked\n",
              conns, kHot,
              100.0 * static_cast<double>(hot_requests) /
                  static_cast<double>(std::max<std::size_t>(1, timed)),
              timed, window_s, distinct.size());
  r.figure("serve_rps", static_cast<double>(timed - failed) / window_s,
           "req/s");
  r.figure("serve_rps_p90_round", rps, "req/s");
  r.figure("serve_p50_ms", client_p50, "ms");
  r.figure("serve_p99_ms", quantile(client_ms, 0.99), "ms");
  r.e2e("setup_s", setup_s, "s");
  r.e2e("peak_rss_mib", peak, "MiB");
  r.e2e("work_per_s", rps, "1/s");
  r.e2e("step_p50_ms", client_p50, "ms");

  if (!tracing) return;
  const double rounds = static_cast<double>(timed) / kRound;
  r.layer("serve.context_s", context_s, "s");
  r.layer("serve.load_model_s", load_s, "s");
  r.layer("serve.featurize_ms",
          median(tally.get("serve.featurize").durations_s) * 1e3, "ms");
  r.layer("serve.flush_ms", median(tally.get("serve.batch").durations_s) * 1e3,
          "ms");
  r.layer("serve.samples_per_flush",
          batches ? batch_samples / static_cast<double>(batches) : 0.0,
          "samples");
  r.layer("serve.hot_hit_share",
          requests ? static_cast<double>(hits) / static_cast<double>(requests)
                   : 0.0,
          "ratio");
  r.layer("serve.server_p50_ms", server_p50, "ms");
  r.layer("serve.wire_ms", client_p50 - server_p50, "ms");
  r.layer("serve.client_p99_ms", quantile(client_ms, 0.99), "ms");
  const SpanStat& gemm = tally.get("gemm");
  r.layer("tensor.gemm_s", gemm.total_s / rounds, "s");
  r.layer("tensor.spmm_s", tally.get("tensor.spmm").total_s / rounds, "s");

  // Forward time at the flush size, from the benchmark's side.
  std::vector<const mv::core::SampleInput*> batch;
  for (const auto& in : inputs) {
    for (const auto& s : in) {
      if (batch.size() < kFlushSamples) batch.push_back(&s);
    }
  }
  if (!batch.empty()) {
    const mv::core::GraphBatch gb = mv::core::make_graph_batch(batch);
    mv::par::Rng rng(7);
    const std::uint64_t flops0 = counter("gemm.flops_total");
    mv::obs::TraceRecorder::global().clear();
    double fwd_s = 0.0;
    constexpr int kReps = 20;
    for (int rep = 0; rep < kReps; ++rep) {
      Timed t("bench.core.forward_batch", fwd_s);
      (void)model->net->forward_batch(gb, false, rng);
    }
    SpanTally fwd;
    fwd.absorb();
    r.layer("core.forward_ms_per_sample",
            fwd_s * 1e3 / (kReps * static_cast<double>(batch.size())), "ms");
    const double gemm_s = fwd.get("gemm").total_s;
    r.layer("tensor.gemm_gflops",
            gemm_s > 0 ? static_cast<double>(counter("gemm.flops_total") -
                                             flops0) /
                             gemm_s * 1e-9
                       : 0.0,
            "GFLOP/s");
  }

  // Layer pass over the never-seen programs of one round.
  std::vector<PassInput> pass_in;
  for (std::size_t j = 0; j < distinct.size() && pass_in.size() < kRound / 2;
       ++j) {
    if (!programs[distinct[j].first].hot && !args[j].empty()) {
      pass_in.push_back({&programs[distinct[j].first].source, &args[j]});
    }
  }
  const LayerPass pass = layer_pass(pass_in);
  report_layer_pass(r, pass, 1.0);
  // Skip-gram at the serving context's size: it is part of the set-up.
  std::vector<PassInput> ctx_in;
  const auto ctx_corpus = mv::data::build_generated_corpus(kContextLoops, 2024);
  for (const auto& p : ctx_corpus) {
    ctx_in.push_back({&p.kernel.source, &p.kernel.args});
  }
  r.layer("embedding.skipgram_s", layer_pass(ctx_in).skipgram_s, "s");
}

}  // namespace perfbench
