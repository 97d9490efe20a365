#include "native/partition_join.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <memory>
#include <new>
#include <span>
#include <thread>

#include "geo/rect_batch.h"
#include "util/check.h"

namespace psj::native {
namespace {

using Clock = std::chrono::steady_clock;

/// Entries per input chunk, the unit workers claim while they build the
/// grid. The paper maps cut into 33 chunks, several per worker, so a
/// descheduled worker holds up a barrier by about one chunk's work, not
/// by a fixed share of the input.
constexpr size_t kChunkEntries = 8192;

/// Chunks per input at most. A longer input gets longer chunks, which keeps
/// the (chunk, tile) cursor table a small fraction of the tile buffers.
constexpr size_t kMaxChunksPerInput = 64;

/// The uniform grid: tile index per axis is floor((coord - origin) * inv),
/// clamped to [0, dim). Every coordinate lookup — assignment ranges and the
/// reference-point owner test — goes through the same function, so the two
/// can never disagree.
struct Grid {
  int dim = 1;
  double origin_x = 0.0;
  double origin_y = 0.0;
  double inv_x = 0.0;  // dim / universe width (0 for a degenerate axis).
  double inv_y = 0.0;

  Grid() = default;
  Grid(int dim_in, const Rect& universe) : dim(dim_in) {
    origin_x = universe.xl;
    origin_y = universe.yl;
    if (universe.Width() > 0.0) inv_x = dim / universe.Width();
    if (universe.Height() > 0.0) inv_y = dim / universe.Height();
  }

  int TileX(double x) const { return Clamp((x - origin_x) * inv_x); }
  int TileY(double y) const { return Clamp((y - origin_y) * inv_y); }
  size_t TileIndex(int tx, int ty) const {
    return static_cast<size_t>(ty) * static_cast<size_t>(dim) +
           static_cast<size_t>(tx);
  }

  // Clamps in double before the cast, so the cast is defined for every v.
  // Negative v and NaN (inf * 0 on an infinite axis) go to tile 0, and on
  // [0, dim - 1] truncation is floor. The map is monotone, which the
  // reference-point test relies on.
  int Clamp(double v) const {
    if (!(v >= 0.0)) {
      return 0;
    }
    return static_cast<int>(std::min(v, static_cast<double>(dim - 1)));
  }
};

/// A rectangle with a NaN coordinate fails every comparison, so it
/// intersects nothing. It takes no tile: in a tile it could cut a sort or a
/// sweep's scan short.
bool HasNaN(const Rect& r) {
  return std::isnan(r.xl) || std::isnan(r.yl) || std::isnan(r.xu) ||
         std::isnan(r.yu);
}

/// Calls `visit(tile)` for every tile `rect` overlaps.
template <typename Visit>
void ForEachTile(const Grid& grid, const Rect& rect, Visit&& visit) {
  const int tx0 = grid.TileX(rect.xl);
  const int tx1 = grid.TileX(rect.xu);
  const int ty0 = grid.TileY(rect.yl);
  const int ty1 = grid.TileY(rect.yu);
  for (int ty = ty0; ty <= ty1; ++ty) {
    for (int tx = tx0; tx <= tx1; ++tx) {
      visit(grid.TileIndex(tx, ty));
    }
  }
}

int PickGridDim(const PartitionJoinConfig& config, size_t total_entries) {
  if (config.grid_dim > 0) {
    return config.grid_dim;
  }
  // ~512 rectangles per tile, and at least 4 tiles per thread so the atomic
  // cursor can balance skew.
  const double by_size = std::sqrt(static_cast<double>(total_entries) / 512.0);
  const double by_threads = std::sqrt(4.0 * config.num_threads);
  const int dim =
      static_cast<int>(std::ceil(std::max({by_size, by_threads, 1.0})));
  return std::min(dim, 256);
}

/// Storage the scatter pass fills, allocated without initialisation: it
/// writes every slot exactly once. RTreeEntry is an implicit-lifetime
/// type, so operator new creates the objects the scatter assigns to.
struct OperatorDelete {
  void operator()(RTreeEntry* p) const { ::operator delete(p); }
};
using EntryBuffer = std::unique_ptr<RTreeEntry[], OperatorDelete>;

/// One input of the join: its entries cut into chunks, and the flat buffer
/// holding every tile's replicas, tile after tile.
struct Input {
  std::span<const RTreeEntry> entries;
  size_t chunk_size;
  size_t num_chunks;
  /// [chunk * num_tiles + tile]: the chunk's entry count in the tile, then,
  /// after the scan, where its next entry in the tile goes in `flat`.
  std::vector<size_t> cursors;
  /// Tile t holds flat[tile_begin[t], tile_begin[t + 1]).
  std::vector<size_t> tile_begin;
  EntryBuffer flat;

  Input(const std::vector<RTreeEntry>& all, size_t num_tiles)
      : entries(all),
        chunk_size(std::max(kChunkEntries,
                            (all.size() + kMaxChunksPerInput - 1) /
                                kMaxChunksPerInput)),
        num_chunks((all.size() + chunk_size - 1) / chunk_size),
        cursors(num_chunks * num_tiles, 0),
        tile_begin(num_tiles + 1, 0) {}

  std::span<const RTreeEntry> Chunk(size_t chunk) const {
    const size_t begin = chunk * chunk_size;
    return entries.subspan(begin,
                           std::min(chunk_size, entries.size() - begin));
  }
  std::span<const RTreeEntry> Tile(size_t tile) const {
    return {flat.get() + tile_begin[tile],
            tile_begin[tile + 1] - tile_begin[tile]};
  }

  /// One exclusive scan over (tile, chunk): each tile gets a contiguous
  /// range, and within it the chunks follow input order, so a tile lists
  /// its entries in input order.
  void ScanCounts() {
    const size_t num_tiles = tile_begin.size() - 1;
    size_t next = 0;
    for (size_t tile = 0; tile < num_tiles; ++tile) {
      tile_begin[tile] = next;
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
        size_t& cell = cursors[chunk * num_tiles + tile];
        const size_t count = cell;
        cell = next;
        next += count;
      }
    }
    tile_begin[num_tiles] = next;
    flat.reset(static_cast<RTreeEntry*>(
        ::operator new(next * sizeof(RTreeEntry))));
  }
};

struct TileWorkerState {
  std::vector<std::pair<uint64_t, uint64_t>> candidates;
  SweepScratch scratch;
  NativeWorkerStats stats;
};

/// \brief One call of the join. Every worker runs every phase:
/// (1) the MBRs of claimed input chunks, (2) each claimed chunk's entry
/// count per tile, (3) each claimed chunk's scatter into the flat tile
/// buffers, (4) the per-tile sweeps of claimed tiles. A barrier separates
/// the phases, and its completion step runs the serial glue once: the
/// universe and grid after (1), the scan and the buffers after (2).
class GridJoin {
 public:
  GridJoin(const std::vector<RTreeEntry>& entries_r,
           const std::vector<RTreeEntry>& entries_s,
           const PartitionJoinConfig& config)
      : dim_(PickGridDim(config, entries_r.size() + entries_s.size())),
        num_tiles_(static_cast<size_t>(dim_) * static_cast<size_t>(dim_)),
        r_(entries_r, num_tiles_),
        s_(entries_s, num_tiles_),
        chunk_bounds_(r_.num_chunks + s_.num_chunks, Rect::Empty()),
        workers_(static_cast<size_t>(config.num_threads)),
        sync_(config.num_threads, BetweenPhases{this}) {}
  // The barrier's completion step holds `this`.
  GridJoin(const GridJoin&) = delete;
  GridJoin& operator=(const GridJoin&) = delete;

  size_t num_tiles() const { return num_tiles_; }
  std::vector<TileWorkerState>& workers() { return workers_; }

  void Work(int id) {
    const size_t num_chunks = chunk_bounds_.size();
    ForEachClaimed(num_chunks, [&](size_t chunk) { Bound(chunk); });
    sync_.arrive_and_wait();
    ForEachClaimed(num_chunks, [&](size_t chunk) { Count(chunk); });
    sync_.arrive_and_wait();
    ForEachClaimed(num_chunks, [&](size_t chunk) { Scatter(chunk); });
    sync_.arrive_and_wait();
    TileWorkerState& w = workers_[static_cast<size_t>(id)];
    ForEachClaimed(num_tiles_, [&](size_t tile) { JoinTile(tile, w); });
  }

 private:
  struct BetweenPhases {
    GridJoin* join;
    void operator()() const noexcept { join->AfterPhase(); }
  };

  // Runs once per barrier, after every worker has arrived and before any
  // leaves, so it sees every write of the phase that ended.
  void AfterPhase() noexcept {
    switch (phase_++) {
      case 0: {
        // min and max are exact in any order, so the universe does not
        // depend on how the chunks were claimed.
        Rect universe = Rect::Empty();
        for (const Rect& bounds : chunk_bounds_) {
          universe.ExpandToInclude(bounds);
        }
        grid_ = Grid(dim_, universe);
        break;
      }
      case 1:
        r_.ScanCounts();
        s_.ScanCounts();
        break;
      default:
        break;
    }
    // order: relaxed — the barrier orders this store before every
    // worker's next claim.
    next_.store(0, std::memory_order_relaxed);
  }

  template <typename Body>
  void ForEachClaimed(size_t count, Body&& body) {
    for (;;) {
      // order: relaxed — the cursor only hands out indices. What a phase
      // reads was written before the barrier that started it, and the
      // per-worker outputs are merged after join().
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      body(i);
    }
  }

  // Global chunk index -> its input and its index there; r's come first.
  std::pair<Input*, size_t> ChunkAt(size_t chunk) {
    if (chunk < r_.num_chunks) {
      return {&r_, chunk};
    }
    return {&s_, chunk - r_.num_chunks};
  }

  void Bound(size_t chunk) {
    const auto [input, local] = ChunkAt(chunk);
    Rect bounds = Rect::Empty();
    for (const RTreeEntry& e : input->Chunk(local)) {
      if (!HasNaN(e.rect)) {
        bounds.ExpandToInclude(e.rect);
      }
    }
    chunk_bounds_[chunk] = bounds;
  }

  void Count(size_t chunk) {
    const auto [input, local] = ChunkAt(chunk);
    size_t* counts = &input->cursors[local * num_tiles_];
    for (const RTreeEntry& e : input->Chunk(local)) {
      if (!HasNaN(e.rect)) {
        ForEachTile(grid_, e.rect, [&](size_t tile) { ++counts[tile]; });
      }
    }
  }

  void Scatter(size_t chunk) {
    const auto [input, local] = ChunkAt(chunk);
    size_t* cursors = &input->cursors[local * num_tiles_];
    RTreeEntry* flat = input->flat.get();
    for (const RTreeEntry& e : input->Chunk(local)) {
      if (!HasNaN(e.rect)) {
        ForEachTile(grid_, e.rect,
                    [&](size_t tile) { flat[cursors[tile]++] = e; });
      }
    }
  }

  void JoinTile(size_t tile, TileWorkerState& w) {
    const std::span<const RTreeEntry> tr = r_.Tile(tile);
    const std::span<const RTreeEntry> ts = s_.Tile(tile);
    ++w.stats.tasks_executed;
    if (tr.empty() || ts.empty()) {
      return;
    }
    const int ty = static_cast<int>(tile) / dim_;
    const int tx = static_cast<int>(tile) % dim_;
    w.scratch.raw_r.AssignProjected(
        tr, [](const RTreeEntry& e) -> const Rect& { return e.rect; });
    w.scratch.raw_s.AssignProjected(
        ts, [](const RTreeEntry& e) -> const Rect& { return e.rect; });
    BatchSweepJoin(w.scratch, /*clip=*/nullptr, [&](size_t i, size_t j) {
      // Reference-point duplicate avoidance: report the pair only in the
      // tile owning the bottom-left corner of the MBR intersection. The
      // owner tile goes through the same TileX/TileY as assignment, and
      // that map is monotone, so the owner is always among the pair's
      // common tiles.
      const Rect& r = tr[i].rect;
      const Rect& s = ts[j].rect;
      if (grid_.TileX(std::max(r.xl, s.xl)) != tx ||
          grid_.TileY(std::max(r.yl, s.yl)) != ty) {
        return;
      }
      w.candidates.emplace_back(tr[i].id, ts[j].id);
    });
  }

  const int dim_;
  const size_t num_tiles_;
  Input r_;
  Input s_;
  std::vector<Rect> chunk_bounds_;  // Phase 1's output, one per chunk.
  Grid grid_;                       // Set after phase 1.
  std::vector<TileWorkerState> workers_;
  int phase_ = 0;  // Barrier phases completed; read only by AfterPhase.
  // The claim cursor of the running phase (chunks, then tiles).
  std::atomic<size_t> next_{0};
  std::barrier<BetweenPhases> sync_;
};

}  // namespace

std::vector<RTreeEntry> CollectLeafEntries(const RStarTree& tree) {
  const NodeSoACache& cache = tree.sealed();
  std::vector<RTreeEntry> entries;
  entries.reserve(static_cast<size_t>(tree.num_data_entries()));
  // Page 0 is the metadata page; data pages are level 0.
  for (uint32_t page = 1; page < tree.num_pages(); ++page) {
    if (tree.IsFreePage(page)) {
      continue;
    }
    const NodeSoAView node = cache.view(page);
    if (!node.is_leaf()) {
      continue;
    }
    for (size_t i = 0; i < node.size(); ++i) {
      entries.push_back(RTreeEntry{node.rects.rect(i), node.ids[i]});
    }
  }
  return entries;
}

NativeJoinResult PartitionSweepJoin(const std::vector<RTreeEntry>& entries_r,
                                    const std::vector<RTreeEntry>& entries_s,
                                    const PartitionJoinConfig& config) {
  PSJ_CHECK_GT(config.num_threads, 0);
  const Clock::time_point start = Clock::now();
  NativeJoinResult result;
  result.per_worker.resize(static_cast<size_t>(config.num_threads));
  if (entries_r.empty() || entries_s.empty()) {
    result.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return result;
  }

  GridJoin join(entries_r, entries_s, config);
  result.num_tasks = static_cast<int64_t>(join.num_tiles());
  result.task_level = 0;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.num_threads - 1));
  for (int w = 1; w < config.num_threads; ++w) {
    threads.emplace_back([&join, w] { join.Work(w); });
  }
  join.Work(0);
  for (std::thread& thread : threads) {
    thread.join();
  }

  std::vector<TileWorkerState>& workers = join.workers();
  size_t total = 0;
  for (const TileWorkerState& w : workers) {
    total += w.candidates.size();
  }
  result.candidates.reserve(total);
  for (size_t w = 0; w < workers.size(); ++w) {
    TileWorkerState& state = workers[w];
    state.stats.candidates = static_cast<int64_t>(state.candidates.size());
    result.candidates.insert(result.candidates.end(),
                             state.candidates.begin(), state.candidates.end());
    result.per_worker[w] = state.stats;
  }
  if (config.deterministic) {
    // Each pair is emitted exactly once (reference point), so the sorted
    // vector is bit-identical run to run and across thread counts.
    SortPairs(&result.candidates);
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return result;
}

}  // namespace psj::native
