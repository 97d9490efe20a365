#include "core/join_config.h"

#include "util/string_util.h"

namespace psj {

std::string_view ToString(BufferType value) {
  switch (value) {
    case BufferType::kLocal:
      return "local";
    case BufferType::kGlobal:
      return "global";
    case BufferType::kSharedNothing:
      return "shared-nothing";
  }
  return "?";
}

std::string_view ToString(PagePlacement value) {
  switch (value) {
    case PagePlacement::kModulo:
      return "modulo";
    case PagePlacement::kHilbertStriping:
      return "hilbert";
  }
  return "?";
}

std::string_view ToString(TaskAssignment value) {
  switch (value) {
    case TaskAssignment::kStaticRange:
      return "static-range";
    case TaskAssignment::kStaticRoundRobin:
      return "static-round-robin";
    case TaskAssignment::kDynamic:
      return "dynamic";
  }
  return "?";
}

std::string_view ToString(ReassignmentLevel value) {
  switch (value) {
    case ReassignmentLevel::kNone:
      return "none";
    case ReassignmentLevel::kRootLevel:
      return "root";
    case ReassignmentLevel::kAllLevels:
      return "all";
  }
  return "?";
}

std::string_view ToString(VictimPolicy value) {
  switch (value) {
    case VictimPolicy::kMostLoaded:
      return "most-loaded";
    case VictimPolicy::kArbitrary:
      return "arbitrary";
  }
  return "?";
}

ParallelJoinConfig ParallelJoinConfig::Lsr() {
  ParallelJoinConfig config;
  config.buffer_type = BufferType::kLocal;
  config.assignment = TaskAssignment::kStaticRange;
  return config;
}

ParallelJoinConfig ParallelJoinConfig::Gsrr() {
  ParallelJoinConfig config;
  config.buffer_type = BufferType::kGlobal;
  config.assignment = TaskAssignment::kStaticRoundRobin;
  return config;
}

ParallelJoinConfig ParallelJoinConfig::Gd() {
  ParallelJoinConfig config;
  config.buffer_type = BufferType::kGlobal;
  config.assignment = TaskAssignment::kDynamic;
  return config;
}

Status SimConfig::Validate() const {
  if (num_processors <= 0) {
    return Status::InvalidArgument("num_processors must be positive");
  }
  if (num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  if (task_creation_factor < 0.0) {
    return Status::InvalidArgument("task_creation_factor must be >= 0");
  }
  if (costs.refine_min < 0 || costs.refine_max < costs.refine_min) {
    return Status::InvalidArgument("invalid refinement cost range");
  }
  return Status::OK();
}

std::string ParallelJoinConfig::Describe() const {
  return StringPrintf(
      "%s+%s/reassign=%s/victim=%s n=%d d=%d buf=%zu",
      std::string(ToString(buffer_type)).c_str(),
      std::string(ToString(assignment)).c_str(),
      std::string(ToString(reassignment)).c_str(),
      std::string(ToString(victim_policy)).c_str(), num_processors,
      num_disks, total_buffer_pages);
}

}  // namespace psj
