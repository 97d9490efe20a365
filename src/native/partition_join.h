#ifndef PSJ_NATIVE_PARTITION_JOIN_H_
#define PSJ_NATIVE_PARTITION_JOIN_H_

#include <cstdint>
#include <vector>

#include "native/native_join.h"
#include "rtree/node.h"
#include "rtree/rstar_tree.h"

namespace psj::native {

/// Configuration of the partition-based parallel plane sweep.
struct PartitionJoinConfig {
  int num_threads = 1;

  /// Tiles per axis of the uniform grid. 0 (the default) sizes the grid
  /// from the input: roughly 512 rectangles per tile, at least enough
  /// tiles to keep every thread busy.
  int grid_dim = 0;

  /// Deterministic mode: per-worker outputs are merged and sorted, so the
  /// result vector is bit-identical run to run and across thread counts.
  /// Off: merge order follows the workers, identical as a set only.
  bool deterministic = false;
};

/// Extracts all data (leaf) entries of `tree` — (MBR, object id) — the
/// flat input of the partition join. Entries come out in leaf-page order.
/// Reads the sealed image, so `tree` must be sealed.
std::vector<RTreeEntry> CollectLeafEntries(const RStarTree& tree);

/// \brief The competitor baseline per *Parallel In-Memory Evaluation of
/// Spatial Joins* (Tsitsigkos & Mamoulis): partition both inputs into a
/// uniform grid (each rectangle replicated into every tile it overlaps),
/// then plane-sweep each tile independently. Within a tile the sweep is
/// the same SIMD RectBatch kernel the R-tree engine uses per node pair.
///
/// Every phase runs on all `num_threads` workers, with a barrier between
/// phases:
///  1. the MBR of each input chunk, reduced to the universe (the union of
///     both inputs) once every chunk is done;
///  2. each chunk's entry count per tile;
///  3. one exclusive scan per input over (tile, chunk), run once between
///     the barriers: each tile gets a contiguous range of one flat buffer
///     per input, and each chunk its write cursors in it. Within a tile
///     the chunks follow input order, so a tile lists its entries in input
///     order;
///  4. each chunk copies its entries to its cursors;
///  5. the tiles, one per task: sort and sweep the tile's two ranges.
/// Chunks are fixed-size input slices (8,192 entries; longer ones beyond
/// 64 chunks per input) that workers claim from an atomic cursor, as they
/// claim tiles. Claiming, rather than a fixed share per worker, matters
/// at the barriers: a descheduled worker holds every other worker back by
/// one chunk, not by a quarter of the input.
///
/// Tile arithmetic is floor((coord - origin) * tiles / extent), clamped
/// to [0, dim) in double before the cast, so it is defined for every
/// double: an infinite universe gives a scale of 0, the offset inf * 0 is
/// NaN, and NaN maps to tile 0. A rectangle with a NaN coordinate
/// intersects nothing, so it takes no tile and does not widen the
/// universe.
///
/// Duplicate avoidance is by reference point: a pair found in a tile is
/// reported only if the bottom-left corner of its MBR intersection falls in
/// that tile, so every intersecting pair is emitted exactly once even
/// though both rectangles may span many tiles. Tile membership of the
/// reference point uses the same computation as tile assignment, which
/// makes the owner tile one of the pair's common tiles by construction
/// (the map is monotone) — no pair is lost to floating-point edge effects.
///
/// The candidate set equals SequentialRTreeJoin's over trees built from
/// the same entries, and does not depend on the thread count.
NativeJoinResult PartitionSweepJoin(const std::vector<RTreeEntry>& entries_r,
                                    const std::vector<RTreeEntry>& entries_s,
                                    const PartitionJoinConfig& config =
                                        PartitionJoinConfig());

}  // namespace psj::native

#endif  // PSJ_NATIVE_PARTITION_JOIN_H_
