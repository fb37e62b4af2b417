// The three workloads (README.md says what each runs and why). Each one
// times its own set-up from process start, runs a warm-up round and then
// whole measured rounds until Options::seconds have passed, checks every
// output against a computation made apart from the program, and fills the
// report with end-to-end metrics (untraced) or per-layer metrics (traced).
#pragma once

#include "common.hpp"

namespace perfbench {

void run_offline(const Options& o, Report& r);
void run_serve(const Options& o, Report& r);
void run_parallelize(const Options& o, Report& r);

/// Trains the checkpoint the serve workload loads; writes it under
/// Options::state_dir. Deterministic and independent of the seed.
int prepare_serve(const Options& o);

}  // namespace perfbench
