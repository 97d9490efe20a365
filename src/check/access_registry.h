#ifndef PSJ_CHECK_ACCESS_REGISTRY_H_
#define PSJ_CHECK_ACCESS_REGISTRY_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace psj::check {

/// Virtual time in microseconds — numerically identical to sim::SimTime.
/// Redeclared so psj_check depends only on psj_util; the simulation layer
/// itself (scheduler, Resource) can then annotate its shared state without
/// a dependency cycle, mirroring trace::TraceTime.
using VirtualTime = int64_t;

/// One annotated access to a shared simulation location.
///
/// `keyed` narrows the access to one entry of a keyed structure (one page
/// of the global buffer directory, say): two keyed accesses commute — and
/// are not a conflict — unless their keys match, while an unkeyed access
/// conflicts with everything in the region. Keys are caller-chosen hashes;
/// a collision can at worst produce one spurious report, never hide one
/// between distinct entries it would have flagged unkeyed.
struct Access {
  const char* site = nullptr;  // Static string naming the call site.
  int process = -1;            // Simulated processor id.
  VirtualTime time = 0;        // Virtual clock of the accessing process.
  int64_t epoch = 0;           // Scheduler dispatch epoch of the access.
  bool is_write = false;
  bool keyed = false;
  uint64_t key = 0;            // Entry within the region (when keyed).

  friend bool operator==(const Access&, const Access&) = default;
};

/// \brief A detected virtual-time race: two conflicting accesses to the
/// same location at the same virtual time from different simulated
/// processors, at least one a write, with no simulated Resource or lock
/// mediating them.
///
/// The cooperative scheduler runs one process at a time, so this is never
/// an OS-level data race (ThreadSanitizer cannot see it). It is worse: the
/// *order* of the two accesses is decided by the scheduler's equal-time
/// tie-break, so the simulation result silently depends on a scheduling
/// detail that the model does not define. Every hazard is a place where a
/// perturbed tie-break (sim::TieBreak::Seeded) can change the experiment's
/// outcome.
struct Hazard {
  std::string location;
  Access first;   // Earlier access in dispatch order.
  Access second;  // The access that completed the conflict.

  /// One-line human-readable report naming both sites.
  std::string Describe() const;
};

class AccessRegistry;

/// \brief Annotation handle for a shared *structure* (a queue, a directory,
/// a buffer partition): call sites declare reads/writes and the registry
/// flags same-virtual-time conflicts.
///
/// Null-registry discipline mirrors trace::TraceSink: a Region is inert
/// until Bind() attaches a registry, and the disabled path is one pointer
/// test per annotation with no allocation and no side effects.
class Region {
 public:
  explicit Region(std::string name) : name_(std::move(name)) {}

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// Movable so owners (Resources, pools) can live in growing containers.
  /// Move a region only before Bind(): the registry dedups hazards by the
  /// region's address, so relocating a *bound* region would split its
  /// dedup state.
  Region(Region&&) = default;

  /// Attaches the registry (null — the default — disables the region).
  /// Resets the access window so a registry can be rebound between runs.
  void Bind(AccessRegistry* registry) {
    registry_ = registry;
    current_time_ = -1;
    window_.clear();
  }

  bool enabled() const { return registry_ != nullptr; }
  const std::string& name() const { return name_; }

  void NoteRead(int process, VirtualTime time, int64_t epoch,
                const char* site) {
    if (registry_ != nullptr) {
      Note(Access{site, process, time, epoch, /*is_write=*/false});
    }
  }

  void NoteWrite(int process, VirtualTime time, int64_t epoch,
                 const char* site) {
    if (registry_ != nullptr) {
      Note(Access{site, process, time, epoch, /*is_write=*/true});
    }
  }

  /// Convenience overloads for callers holding a simulated process (any
  /// type exposing id()/now()/dispatch_epoch(); duck-typed so psj_check
  /// needs no psj_sim dependency).
  template <typename ProcessT>
  void NoteRead(const ProcessT& p, const char* site) {
    if (registry_ != nullptr) {
      Note(Access{site, p.id(), p.now(), p.dispatch_epoch(),
                  /*is_write=*/false});
    }
  }

  template <typename ProcessT>
  void NoteWrite(const ProcessT& p, const char* site) {
    if (registry_ != nullptr) {
      Note(Access{site, p.id(), p.now(), p.dispatch_epoch(),
                  /*is_write=*/true});
    }
  }

  /// Keyed variants: the access touches one entry of the structure, so
  /// same-time accesses to *different* entries commute and are clean.
  template <typename ProcessT>
  void NoteReadKeyed(const ProcessT& p, const char* site, uint64_t key) {
    if (registry_ != nullptr) {
      Note(Access{site, p.id(), p.now(), p.dispatch_epoch(),
                  /*is_write=*/false, /*keyed=*/true, key});
    }
  }

  template <typename ProcessT>
  void NoteWriteKeyed(const ProcessT& p, const char* site, uint64_t key) {
    if (registry_ != nullptr) {
      Note(Access{site, p.id(), p.now(), p.dispatch_epoch(),
                  /*is_write=*/true, /*keyed=*/true, key});
    }
  }

 private:
  /// Records one access: conflicts against the window of accesses at the
  /// same virtual time are reported, then the access joins the window.
  void Note(const Access& access);

  AccessRegistry* registry_ = nullptr;
  const std::string name_;
  /// Accesses observed at current_time_ — the latest virtual time this
  /// location was touched at. Growth is bounded: one entry per distinct
  /// (site, process, is_write) tuple.
  VirtualTime current_time_ = -1;
  std::vector<Access> window_;
};

/// \brief A single shared scalar with access checking — the annotation for
/// plain flags and counters living in shared virtual memory (the simulated
/// machine's task-ready flag, for instance; see core/sim_machine.h).
///
/// Read()/Write()/Mutate() require the accessing process; peek() is the
/// unchecked escape hatch for host-side code running outside the
/// simulation (result collection after Scheduler::Run()).
template <typename T>
class Cell {
 public:
  explicit Cell(std::string name, T value = T())
      : region_(std::move(name)), value_(std::move(value)) {}

  void Bind(AccessRegistry* registry) { region_.Bind(registry); }
  bool enabled() const { return region_.enabled(); }
  const std::string& name() const { return region_.name(); }

  template <typename ProcessT>
  const T& Read(const ProcessT& p, const char* site) const {
    region_.NoteRead(p, site);
    return value_;
  }

  template <typename ProcessT>
  void Write(const ProcessT& p, const char* site, T value) {
    region_.NoteWrite(p, site);
    value_ = std::move(value);
  }

  /// Write access to the contained value (for in-place mutation).
  template <typename ProcessT>
  T& Mutate(const ProcessT& p, const char* site) {
    region_.NoteWrite(p, site);
    return value_;
  }

  /// Unchecked access from outside the simulation.
  const T& peek() const { return value_; }

 private:
  mutable Region region_;
  T value_;
};

/// \brief Hazard collector of one simulated run.
///
/// Regions and Cells bound to the registry funnel their accesses here; the
/// registry pairs conflicting same-virtual-time accesses into Hazards,
/// deduplicated per (location, site, site) so one racy loop produces one
/// report, not thousands. Not thread safe by design: one registry belongs
/// to exactly one simulation, whose scheduler runs one process at a time.
class AccessRegistry {
 public:
  AccessRegistry() = default;
  AccessRegistry(const AccessRegistry&) = delete;
  AccessRegistry& operator=(const AccessRegistry&) = delete;

  const std::vector<Hazard>& hazards() const { return hazards_; }
  bool clean() const { return hazards_.empty(); }
  /// Total annotated accesses observed (enabled regions only).
  int64_t num_accesses() const { return num_accesses_; }

  /// Multi-line report: one Describe() line per hazard, or a clean-bill
  /// line mentioning the access count.
  std::string Summary() const;

 private:
  friend class Region;

  void CountAccess() { ++num_accesses_; }
  /// Called by Region::Note with a conflicting pair; `region` keys the
  /// deduplication.
  void Report(const Region& region, const Access& first,
              const Access& second);

  int64_t num_accesses_ = 0;
  std::vector<Hazard> hazards_;
  /// Dedup key: (region identity, first site, second site) — site strings
  /// are literals, so pointer identity is the cheap and correct key.
  std::set<std::tuple<const Region*, const char*, const char*>> reported_;
};

}  // namespace psj::check

#endif  // PSJ_CHECK_ACCESS_REGISTRY_H_
