#ifndef PSJ_CORE_JOIN_CONFIG_H_
#define PSJ_CORE_JOIN_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "check/access_registry.h"
#include "core/cost_model.h"
#include "core/placement.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace psj {

namespace trace {
class TraceSink;
}  // namespace trace

/// Buffer organization (§3.2; kSharedNothing is our §5 future-work
/// extension).
enum class BufferType {
  kLocal,         // Independent per-processor buffers.
  kGlobal,        // SVM global buffer: union of the local buffers.
  kSharedNothing  // Owner-only buffering, foreign pages via messages.
};

/// Task assignment strategy (§3.1 / §3.3).
enum class TaskAssignment {
  kStaticRange,       // Contiguous plane-sweep ranges per processor ("lsr").
  kStaticRoundRobin,  // Round-robin in plane-sweep order ("gsrr").
  kDynamic,           // Shared task queue, task-by-task ("gd").
};

/// Task reassignment (load balancing, §3.4).
enum class ReassignmentLevel {
  kNone,
  kRootLevel,  // Only unstarted tasks (root-entry subtree pairs) move.
  kAllLevels,  // Subtree pairs on any level may move.
};

/// Which processor the idle processor helps (§3.4 / Figure 8).
enum class VictimPolicy {
  kMostLoaded,  // Highest (hl, ns) report — the paper's test series a.
  kArbitrary,   // Random victim, after [SN 93] — test series b.
};

std::string_view ToString(BufferType value);
std::string_view ToString(TaskAssignment value);
std::string_view ToString(ReassignmentLevel value);
std::string_view ToString(VictimPolicy value);
std::string_view ToString(PagePlacement value);

/// \brief The configuration of the simulated machine that the parallel
/// operators share (§3): the platform (processors, disks, buffers, page
/// placement, costs), task creation, assignment and reassignment, and the
/// simulator's tie-break and race detector.
struct SimConfig {
  int num_processors = 8;
  int num_disks = 8;
  /// Total LRU buffer capacity in R*-tree pages, divided evenly over the
  /// processors (as in §4.3).
  size_t total_buffer_pages = 800;

  BufferType buffer_type = BufferType::kGlobal;
  TaskAssignment assignment = TaskAssignment::kDynamic;
  ReassignmentLevel reassignment = ReassignmentLevel::kAllLevels;
  VictimPolicy victim_policy = VictimPolicy::kMostLoaded;
  /// Disk placement of the tree pages (§4.2 uses modulo; Hilbert striping
  /// is the spatial declustering extension).
  PagePlacement placement = PagePlacement::kModulo;

  CostModel costs;

  /// Task creation descends a tree level while the number of tasks m is
  /// below this factor times the number of processors (§3.1 requires
  /// m >> n).
  double task_creation_factor = 3.0;

  bool use_path_buffer = true;

  /// Run the ground-truth polyline refinement test (requires the object
  /// stores); the virtual waiting period is charged either way.
  bool compute_answers = true;

  /// Seed for the arbitrary victim policy.
  uint64_t seed = 7;

  /// Tie-break policy for equal-resume-time dispatches. Unset — the
  /// default — reads PSJ_SIM_TIEBREAK from the environment (spawn order
  /// when that is unset too). Seeded policies reshuffle the dispatch order
  /// of simultaneously ready processors; every result and trace must be
  /// invariant under them (the determinism suite asserts it).
  std::optional<sim::TieBreak> tiebreak;

  /// Virtual-time race detector (see check/access_registry.h): when set,
  /// the annotated shared state — task queue, steal path, buffer pools,
  /// disk queues, driver flags — reports same-virtual-time conflicts as
  /// hazards. Null — the default — disables checking entirely: every
  /// annotation reduces to one pointer test. The registry must outlive the
  /// run.
  check::AccessRegistry* check = nullptr;

  /// Validates ranges: processors, disks, task creation and costs.
  Status Validate() const;
};

/// \brief Full configuration of one parallel spatial join run.
///
/// The paper's three named variants map to:
///  - lsr  = kLocal  + kStaticRange
///  - gsrr = kGlobal + kStaticRoundRobin
///  - gd   = kGlobal + kDynamic
struct ParallelJoinConfig : SimConfig {
  // Filter-step tuning techniques (ablations).
  bool use_search_space_restriction = true;
  bool use_plane_sweep = true;

  /// Second filter step ([BKSS 94]/[BKS 94], §2.1): screen candidates with
  /// per-object section MBRs before paying the exact-geometry waiting
  /// period. Requires the object stores and at least one section.
  bool use_second_filter = false;
  int second_filter_sections = 4;

  /// Collect the candidate (and answer) id pairs in the result.
  bool collect_pairs = false;

  /// Event sink recording the run's virtual-time timeline (spans, counters,
  /// histograms; see trace/trace_sink.h). Null — the default — disables
  /// tracing entirely: every instrumentation site reduces to one pointer
  /// test. The sink must outlive the run; like the statistics, recording is
  /// bit-reproducible.
  trace::TraceSink* trace = nullptr;

  /// Convenience constructors for the paper's variants.
  static ParallelJoinConfig Lsr();
  static ParallelJoinConfig Gsrr();
  static ParallelJoinConfig Gd();

  /// Short identifier like "gd/all/most-loaded n=8 d=8 buf=800".
  std::string Describe() const;
};

}  // namespace psj

#endif  // PSJ_CORE_JOIN_CONFIG_H_
