// Schedule perturbation suite (ctest label: determinism).
//
// Equal-virtual-time dispatch order is an artifact of the scheduler's
// tie-break rule, not of the simulation model, so nothing observable may
// depend on it. VerifyTieBreakInvariance reruns a join under seeded
// permutations of that order and demands a byte-identical JoinResult and
// exported Chrome trace every time, for every dispatch strategy of the
// paper. The companion check is dynamic: the same configurations run under
// an enabled AccessRegistry must report zero determinism hazards.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "check/access_registry.h"
#include "core/experiment.h"
#include "sim/simulation.h"

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

std::vector<uint64_t> Seeds() {
  return {1, 2, 3, 5, 8, 13, 0x9e3779b97f4a7c15ull, 0xdeadbeefcafef00dull};
}

// Fig. 6-like probe: the speedup experiment's contended middle — several
// processors on fewer disks, dynamic task allocation, reassignment on.
ParallelJoinConfig Fig6Probe() {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 2;
  config.total_buffer_pages = 160;
  config.reassignment = ReassignmentLevel::kAllLevels;
  config.collect_pairs = true;
  return config;
}

// Fig. 8-like probe: the dispatch-strategy comparison — same machine shape
// for each strategy.
ParallelJoinConfig Fig8Probe(ParallelJoinConfig config) {
  config.num_processors = 4;
  config.num_disks = 2;
  config.total_buffer_pages = 160;
  config.collect_pairs = true;
  return config;
}

void ExpectInvariant(const ParallelJoinConfig& config) {
  const TieBreakInvarianceReport report =
      VerifyTieBreakInvariance(TinyWorkload(), config, Seeds());
  EXPECT_EQ(report.num_runs, 9);  // Identity + 8 seeds.
  EXPECT_TRUE(report.results_identical) << report.divergence;
  EXPECT_TRUE(report.traces_identical) << report.divergence;
}

TEST(PerturbationTest, Fig6ProbeIsSeedInvariant) {
  ExpectInvariant(Fig6Probe());
}

TEST(PerturbationTest, LsrStrategyIsSeedInvariant) {
  ExpectInvariant(Fig8Probe(ParallelJoinConfig::Lsr()));
}

TEST(PerturbationTest, GsrrStrategyIsSeedInvariant) {
  ExpectInvariant(Fig8Probe(ParallelJoinConfig::Gsrr()));
}

TEST(PerturbationTest, SeededRunsDifferFromIdentityOnlyInNothing) {
  // Sanity that the harness would notice a perturbation at all: the seeded
  // tie-break must actually change the Scheduler's dispatch keys, so a
  // passing suite means "reshuffled and still identical", not "never
  // reshuffled". Two distinct seeds produce distinct permutations of the
  // same key set with overwhelming probability.
  const sim::TieBreak a = sim::TieBreak::Seeded(1);
  const sim::TieBreak b = sim::TieBreak::Seeded(2);
  EXPECT_TRUE(a.seeded);
  EXPECT_NE(a, b);
  EXPECT_NE(a, sim::TieBreak::Id());
}

TEST(PerturbationTest, TieBreakFromEnvParsesSeededSpec) {
  ASSERT_EQ(setenv("PSJ_SIM_TIEBREAK", "seeded:42", /*overwrite=*/1), 0);
  EXPECT_EQ(sim::TieBreak::FromEnv(), sim::TieBreak::Seeded(42));
  ASSERT_EQ(setenv("PSJ_SIM_TIEBREAK", "seeded:18446744073709551615", 1), 0);
  EXPECT_EQ(sim::TieBreak::FromEnv(),
            sim::TieBreak::Seeded(18446744073709551615ull));
  ASSERT_EQ(setenv("PSJ_SIM_TIEBREAK", "id", 1), 0);
  EXPECT_EQ(sim::TieBreak::FromEnv(), sim::TieBreak::Id());
  // A malformed seed warns and falls back to the id rule; it never becomes
  // a seed by partial parsing, defaulting or wrapping.
  for (const char* spec :
       {"seeded:", "seeded:abc", "seeded:42x", "seeded:-1", "seeded:+1",
        "seeded: 1", "seeded:18446744073709551616", "seeded", "bogus"}) {
    ASSERT_EQ(setenv("PSJ_SIM_TIEBREAK", spec, 1), 0);
    EXPECT_EQ(sim::TieBreak::FromEnv(), sim::TieBreak::Id()) << spec;
  }
  ASSERT_EQ(unsetenv("PSJ_SIM_TIEBREAK"), 0);
  EXPECT_EQ(sim::TieBreak::FromEnv(), sim::TieBreak::Id());
}

// The dynamic detector agrees with the perturbation harness: the shipped
// join configurations are hazard-free under an enabled registry. (The
// synthetic fixtures in access_registry_test.cc prove the same registry
// does flag genuine same-time conflicts.)
TEST(PerturbationTest, ShippedConfigsRunCleanUnderAccessRegistry) {
  for (ParallelJoinConfig config :
       {ParallelJoinConfig::Gd(), ParallelJoinConfig::Gsrr(),
        ParallelJoinConfig::Lsr()}) {
    check::AccessRegistry registry;
    config = Fig8Probe(config);
    config.check = &registry;
    auto result = TinyWorkload().RunJoin(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(registry.num_accesses(), 0);
    EXPECT_TRUE(registry.clean()) << registry.Summary();
  }
}

// Checking must observe, not perturb: a run with the registry enabled is
// bit-identical to one without it.
TEST(PerturbationTest, AccessRegistryDoesNotPerturbTheJoin) {
  ParallelJoinConfig config = Fig6Probe();
  auto plain = TinyWorkload().RunJoin(config);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  check::AccessRegistry registry;
  config.check = &registry;
  auto checked = TinyWorkload().RunJoin(config);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(*plain, *checked);
}

}  // namespace
}  // namespace psj
