#ifndef PSJ_BENCH_BENCH_COMMON_H_
#define PSJ_BENCH_BENCH_COMMON_H_

#include <vector>

#include "core/experiment.h"
#include "util/json_writer.h"

namespace psj::bench {

/// The streaming JSON emitter behind the BENCH_*.json files now lives in
/// src/util (it also serves `psj_cli join --json` and the Chrome trace
/// exporter); the alias keeps the bench harnesses unchanged.
using JsonWriter = ::psj::JsonWriter;

/// Workload scale factor from the environment variable PSJ_BENCH_SCALE
/// (default 1.0 = the paper's 131,443 / 127,312 objects). Use e.g.
/// PSJ_BENCH_SCALE=0.1 for a quick smoke run of every harness.
double BenchScale();

/// The shared experiment input at BenchScale(), built on first use.
const PaperWorkload& GetWorkload();

/// Runs `configs` over GetWorkload() concurrently on the parallel
/// experiment driver (pool width: PSJ_EXPERIMENT_THREADS, default hardware
/// concurrency) and returns the results in input order — bit-identical to
/// running each config sequentially. Aborts the bench on a failed run.
std::vector<JoinResult> RunJoinBatch(
    const std::vector<ParallelJoinConfig>& configs);

/// Prints the standard harness header: which paper artifact this
/// reproduces and what qualitative shape to expect.
void PrintHeader(const char* artifact, const char* expectation);

/// \brief The whole main() of a figure harness: looks up `figure` in the
/// shared experiment registry (src/report), runs its sweep over
/// GetWorkload() at BenchScale(), prints the standard header plus the
/// figure's value tables, and honors a `--out=FILE.json` flag by writing
/// the schema-versioned figure document. Returns the process exit code.
///
/// Every fig*/table* harness is a one-line wrapper over this, so the bench
/// binaries, `psj_cli report`, and the golden baselines all run the exact
/// same registry code.
int RunFigureHarness(const char* figure, int argc, char** argv);

}  // namespace psj::bench

#endif  // PSJ_BENCH_BENCH_COMMON_H_
