#ifndef PSJ_PERFBENCH_WORKLOADS_H_
#define PSJ_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "core/join_config.h"
#include "native/native_join.h"
#include "native/partition_join.h"
#include "perfbench/bench_util.h"
#include "perfbench/serve_load.h"

/// \file
/// The measured part of each benchmark workload. Every runner loops for
/// `seconds` after its warm-ups, checks every output against the oracle,
/// and reports the two end-to-end latency metrics plus its attempted and
/// failed operation counts.

namespace psj::perfbench {

/// Busy threads of every workload: the reference host's core count.
constexpr int kThreads = 4;

/// The R-tree join as the paper runs it: kThreads workers, shared-queue
/// task assignment and stealing.
native::NativeJoinConfig BenchJoinConfig();

/// The 30 simulated gd joins of Figure 10: processors {1, 2, 4, 6, 8, 10,
/// 12, 16, 20, 24} x disks {1, 8, n}, 800 buffer pages, refinement on.
std::vector<ParallelJoinConfig> Fig10Configs();

/// The grid-partition competitor as the benchmark runs it: kThreads
/// workers, the grid sized from the input.
native::PartitionJoinConfig BenchPartitionConfig();

/// Repeated 4-thread R-tree joins, cycling through the realizations.
void RunJoinWorkload(const std::vector<Realization>& inputs, double seconds,
                     const Tracer& tracer, Report* report);

/// Repeated 4-thread grid-partition joins over the realizations' objects,
/// cycling through the realizations; the trees only serve the oracle.
void RunPartitionWorkload(const std::vector<Realization>& inputs,
                          double seconds, const Tracer& tracer,
                          Report* report);

/// Repeated Figure 10 sweeps on ExperimentDriver with kThreads threads,
/// cycling through the realizations.
void RunSimWorkload(const std::vector<Realization>& inputs, double seconds,
                    const Tracer& tracer, Report* report);

/// One open-loop rung of `mix` lasting `seconds`; with the tracer on, the
/// service also samples request spans for the stage breakdown.
RungOutcome RunServeWorkload(const QueryMix& mix, const Maps& maps,
                             const Oracle& oracle, uint64_t seed,
                             double seconds, const Tracer& tracer,
                             Report* report);

/// Adds a rung's failures, by kind, to `report`.
void CountRungFailures(const RungOutcome& rung, Report* report);

}  // namespace psj::perfbench

#endif  // PSJ_PERFBENCH_WORKLOADS_H_
