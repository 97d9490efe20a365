// Determinism suite (ctest label: sim_determinism).
//
// The simulation must produce bit-identical JoinResults — stats and the
// full candidate/answer pair lists — across (a) repeated runs, (b) the
// pinned trace export of a probe run, and (c) sequential versus parallel
// execution of a sweep on the experiment driver. This is the contract that
// lets the wall-clock optimizations (user-mode fibers, O(log P) dispatch,
// concurrent sweeps) claim they change no virtual-time result.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "trace/chrome_trace.h"
#include "trace/trace_sink.h"

namespace psj {
namespace {

const PaperWorkload& TinyWorkload() {
  static const PaperWorkload* workload = [] {
    PaperWorkloadSpec spec;
    spec = spec.Scaled(0.02);  // ~2.6k + 2.5k objects: fast.
    return new PaperWorkload(spec);
  }();
  return *workload;
}

// A moderately contended configuration: several processors sharing fewer
// disks, reassignment on, pair collection on so equality covers the full
// join output, not just aggregate counters.
ParallelJoinConfig ProbeConfig() {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 2;
  config.total_buffer_pages = 160;
  config.reassignment = ReassignmentLevel::kAllLevels;
  config.collect_pairs = true;
  return config;
}

JoinResult RunOnce(const ParallelJoinConfig& config) {
  auto result = TinyWorkload().RunJoin(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// 64-bit FNV-1a over the bytes of `text`.
uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(SimDeterminismTest, RepeatedRunsAreBitIdentical) {
  const ParallelJoinConfig config = ProbeConfig();
  const JoinResult first = RunOnce(config);
  EXPECT_GT(first.stats.total_candidates, 0);
  EXPECT_FALSE(first.candidate_pairs.empty());
  EXPECT_EQ(first, RunOnce(config));
}

// Tracing inherits the determinism contract: the recorded event stream is a
// pure function of the virtual-time schedule, so the probe's exported
// Chrome trace is pinned to its size and fingerprint (an independent
// OS-thread scheduler exported the same bytes) — and recording must not
// perturb the join result itself.
TEST(SimDeterminismTest, TraceExportMatchesPinnedFingerprint) {
  trace::TraceSink sink;
  ParallelJoinConfig config = ProbeConfig();
  config.trace = &sink;
  const JoinResult traced = RunOnce(config);
  const std::string exported = trace::ExportChromeTrace(sink);
  EXPECT_EQ(exported.size(), 250'651u);
  EXPECT_EQ(Fnv1a64(exported), 0x96303edde1092a7dULL);

  // Recording events must not change the virtual-time outcome.
  EXPECT_GT(traced.stats.total_candidates, 0);
  EXPECT_EQ(RunOnce(ProbeConfig()), traced);
}

TEST(SimDeterminismTest, ParallelDriverMatchesSequentialBitIdentically) {
  // A small sweep that varies processors and disks; run it once on a
  // single-threaded driver and once on a wide pool. Results must match
  // pairwise and arrive in input order either way.
  std::vector<ParallelJoinConfig> configs;
  for (int n : {1, 2, 4, 6}) {
    ParallelJoinConfig config = ProbeConfig();
    config.num_processors = n;
    config.num_disks = (n + 1) / 2;
    config.total_buffer_pages = static_cast<size_t>(40) *
                                static_cast<size_t>(n);
    configs.push_back(config);
  }
  const auto sequential = TinyWorkload().RunJoins(configs, /*num_threads=*/1);
  const auto parallel = TinyWorkload().RunJoins(configs, /*num_threads=*/8);
  ASSERT_EQ(sequential.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(sequential[i].ok()) << sequential[i].status().ToString();
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].status().ToString();
    EXPECT_GT(sequential[i]->stats.total_candidates, 0);
    EXPECT_EQ(*sequential[i], *parallel[i]) << "sweep entry " << i;
  }
}

}  // namespace
}  // namespace psj
