#ifndef PSJ_PERFBENCH_LAYERS_H_
#define PSJ_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "perfbench/bench_util.h"
#include "perfbench/serve_load.h"

namespace psj::perfbench {

/// \brief The traced run's per-layer measurements: after the workload, its
/// inputs are replayed through each module's public functions, timed from
/// the outside, and every per-layer metric goes into `report`.
///
/// Every workload reports every layer, on its first map realization
/// `input`; the set-up layers come from that realization's set-up. The
/// serving metrics come from the workload's own traced rung (`rung`) on the
/// serving workloads; elsewhere `rung` is null and a rung of `mix` stands
/// in. The suite's own rungs last at most `seconds`. Replays that disagree
/// with the oracle are counted as failures.
void RunLayerSuite(uint64_t seed, double seconds, const Realization& input,
                   const QueryMix& mix, const RungOutcome* rung,
                   const Tracer& tracer, Report* report);

}  // namespace psj::perfbench

#endif  // PSJ_PERFBENCH_LAYERS_H_
