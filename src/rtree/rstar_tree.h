#ifndef PSJ_RTREE_RSTAR_TREE_H_
#define PSJ_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "rtree/node.h"
#include "rtree/node_soa.h"
#include "storage/page_file.h"
#include "util/statusor.h"

namespace psj {

/// Node-split algorithm. The R* split is the paper's choice; the quadratic
/// and linear splits of the original R-tree [Gut 84] are provided because
/// §2.2 notes the join "is directly applicable to the other members of the
/// family" — and the ablation benches quantify what the better tree buys.
enum class SplitAlgorithm {
  kRStar,      // Margin-driven axis choice, overlap-minimal index [BKSS 90].
  kQuadratic,  // Guttman's quadratic PickSeeds / PickNext.
  kLinear,     // Guttman's linear PickSeeds, least-enlargement assignment.
};

/// Subtree-choice policy during insertion.
enum class ChooseSubtreePolicy {
  kRStar,    // Overlap-minimal into leaf level, else least enlargement.
  kClassic,  // Guttman: least area enlargement on every level.
};

/// Structural parameters of an R*-tree. Defaults follow the paper (§4.1
/// page layout) and the R*-tree publication [BKSS 90] (40 % minimum fill,
/// 30 % forced reinsertion).
struct RTreeOptions {
  size_t max_dir_entries = kMaxDirEntries;    // 102 with 4 KB pages.
  size_t max_data_entries = kMaxDataEntries;  // 26 with 4 KB pages.
  double min_fill_fraction = 0.4;
  double reinsert_fraction = 0.3;
  /// Disables forced reinsertion (degenerates towards the original R-tree
  /// insertion behaviour); exposed for ablation experiments.
  bool enable_forced_reinsert = true;
  SplitAlgorithm split_algorithm = SplitAlgorithm::kRStar;
  ChooseSubtreePolicy choose_subtree = ChooseSubtreePolicy::kRStar;

  /// The original R-tree of [Gut 84]: quadratic split, least-enlargement
  /// subtree choice, no forced reinsertion, 40 % minimum fill.
  static RTreeOptions ClassicGuttman();
};

/// Shape statistics of a tree, matching the rows of the paper's Table 1.
struct RTreeShapeStats {
  int height = 0;
  int64_t num_data_entries = 0;
  int64_t num_data_pages = 0;
  int64_t num_dir_pages = 0;
  double avg_data_fill = 0.0;  // Average leaf occupancy / capacity.
  double avg_dir_fill = 0.0;
  Rect root_mbr = Rect::Empty();
};

/// \brief R* ChooseSubtree rule CS2 for a node whose children are leaves:
/// the index of the entry whose rect needs the least overlap enlargement to
/// include `rect`, ties by least area enlargement, then least area, then
/// lowest index. `entries` must be non-empty.
///
/// Returns exactly the index of the direct definition — for every
/// candidate, sum the intersection areas with all n-1 siblings before and
/// after enlarging, in ascending sibling order, then fold over the
/// candidates in index order. With finite keys it first tries the first
/// candidate in (area enlargement, area, index) order, which wins outright
/// if its overlap enlargement is exactly 0; otherwise one
/// OverlapEnlargements call (geo/node_scan.h) yields every candidate's sums
/// for the fold. DESIGN.md §12 ("Exact ChooseSubtree") gives the
/// bit-identity argument.
size_t ChooseLeastOverlapEnlargement(std::span<const RTreeEntry> entries,
                                     const Rect& rect);

/// \brief A complete R*-tree [BKSS 90]: the spatial access method
/// underlying both the sequential [BKS 93] join and the paper's parallel
/// join.
///
/// Nodes are addressed by page number; page 0 is reserved for tree metadata
/// so that page numbers match the packed `PageFile` image one-to-one (the
/// simulated disk array places pages on disks by page number). The tree
/// supports dynamic insertion with forced reinsertion and R* splits,
/// deletion with tree condensation, window queries, and (de)serialization to
/// a page file.
class RStarTree {
 public:
  explicit RStarTree(uint32_t tree_id, RTreeOptions options = RTreeOptions());

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;

  /// Inserts one object MBR. `rect` must be valid.
  void Insert(const Rect& rect, uint64_t oid);

  /// Removes the entry with exactly this MBR and object id; returns whether
  /// it existed. Underfull nodes are dissolved and their entries reinserted
  /// (tree condensation).
  bool Delete(const Rect& rect, uint64_t oid);

  /// Object ids whose MBR intersects `window`, in unspecified order. Reads
  /// the sealed image, so it aborts on an unsealed tree (see sealed()).
  std::vector<uint64_t> WindowQuery(const Rect& window) const;

  /// One result of a nearest-neighbor query: the object id and its MBR's
  /// minimum distance to the query point.
  struct Neighbor {
    uint64_t object_id = 0;
    double distance = 0.0;
  };

  /// The k nearest data entries to `query` by MBR MINDIST, ascending
  /// (ties by object id), computed with best-first branch-and-bound
  /// traversal. Returns fewer than k when the tree is smaller. This is the
  /// filter step of the "neighbor queries" the paper's conclusions name as
  /// future work. Reads the sealed image, like WindowQuery.
  std::vector<Neighbor> KnnQuery(const Point& query, size_t k) const;

  // -- Structure accessors (used by the join algorithms) --

  uint32_t tree_id() const { return tree_id_; }
  uint32_t root_page() const { return root_page_; }
  /// Number of levels; 1 for a tree that is a single leaf. The root node is
  /// at level height()-1, data nodes at level 0.
  int height() const { return height_; }
  int64_t num_data_entries() const { return num_data_entries_; }
  const RTreeOptions& options() const { return options_; }

  /// The build image of one node, which insertion and deletion edit.
  /// Queries and joins read sealed().view(page_no) instead. A sealed tree
  /// has released its data nodes' entries, so on a data page this aborts
  /// between Seal() and Thaw(); directory pages keep their entries.
  const RTreeNode& node(uint32_t page_no) const;

  /// A copy of one live node's level and entries, read from whichever
  /// image holds them: the sealed view between Seal() and Thaw(), which
  /// is the only image of a data node then, the build image otherwise.
  /// The validator, the shape stats and page packing read every node
  /// through it.
  RTreeNode ReadNode(uint32_t page_no) const;

  /// The root's MBR: the sealed view's cached one when the image is valid,
  /// the same ExpandToInclude fold, bit for bit, otherwise.
  Rect root_mbr() const;

  /// \brief Freezes the tree for querying: writes the SoA image of every
  /// node, which is the only node representation queries and joins read,
  /// and releases every data node's AoS entries.
  ///
  /// Pages are sealed in order, each data node's entries released right
  /// after its block is written, so each block can reuse memory an earlier
  /// release freed and the peak stays near the build's footprint.
  /// Directory nodes keep their entries (perfbench's traced replay reads
  /// them). Called by the bulk builders (FromNodes, BuildTreeFromObjects);
  /// a Seal() on a valid image writes no block. Any later mutation
  /// invalidates the image — soa() returns null again and sealed()
  /// aborts — until the next Seal(). There is no fallback: every read path
  /// requires a sealed tree.
  ///
  /// Sealing also enters the kSealed phase of the tree's lifecycle: every
  /// structural mutation fails until Thaw() re-enters kMutable. Insert and
  /// Delete PSJ_CHECK the phase in every build; the private doorways they
  /// go through PSJ_DCHECK_PHASE it. The phase contract is what lets the
  /// shared-tree consumers (native join workers, the serving layer) read
  /// the tree concurrently without locks; tools/psj_lint.py's
  /// `sealed-phase` rule checks call sites statically.
  void Seal();

  /// Re-enters the mutable phase after a Seal(), declaring the intent to
  /// mutate: rebuilds every released data node's entries from its block,
  /// in the same order with the same doubles and ids. The SoA image stays
  /// valid until an actual mutation clears it. Callers must guarantee no
  /// concurrent readers exist — thawing a tree other threads are querying
  /// is a race.
  void Thaw();

  /// Lifecycle phase (see Seal()/Thaw()).
  enum class TreePhase { kMutable, kSealed };
  TreePhase phase() const { return phase_; }

  /// Wall-clock duration of the most recent Seal() (the SoA build), in
  /// microseconds; 0 if never sealed. Kept here — not in the
  /// obs layer — so sealing needs no registry dependency; consumers that
  /// carry one (the CLI's serve path) record it as the `rtree_seal_us`
  /// gauge.
  int64_t last_seal_micros() const { return last_seal_micros_; }

  /// The SoA image of every node, or null if the tree was mutated since the
  /// last Seal() (or never sealed).
  const NodeSoACache* soa() const { return soa_valid_ ? &soa_cache_ : nullptr; }

  /// The SoA image of every node, for a reader that requires it: aborts if
  /// the tree was mutated since the last Seal() (or never sealed). Every
  /// query and join calls it once on entry.
  const NodeSoACache& sealed() const;

  /// One past the largest page number in use (page 0 is the metadata page).
  uint32_t num_pages() const { return static_cast<uint32_t>(nodes_.size()); }
  /// True iff the page currently holds no node (freed by deletions).
  bool IsFreePage(uint32_t page_no) const;

  size_t CapacityFor(int level) const {
    return level == 0 ? options_.max_data_entries : options_.max_dir_entries;
  }
  size_t MinFillFor(int level) const;

  RTreeShapeStats ComputeShapeStats() const;

  // -- Persistence --

  /// Writes the tree (metadata page 0 plus one page per node, preserving
  /// page numbers) into an empty page file.
  Status PackToPageFile(PageFile* file) const;

  /// Reconstructs a tree from a page file produced by PackToPageFile.
  static StatusOr<RStarTree> LoadFromPageFile(const PageFile& file,
                                              RTreeOptions options =
                                                  RTreeOptions());

  /// Assembles a tree from pre-built nodes (used by the STR bulk loader).
  /// `nodes[0]` is ignored (metadata page); `free_pages` lists unused slots.
  static RStarTree FromNodes(uint32_t tree_id, std::vector<RTreeNode> nodes,
                             uint32_t root_page, int height,
                             int64_t num_data_entries,
                             std::vector<uint32_t> free_pages,
                             RTreeOptions options);

 private:
  uint32_t AllocateNode(RTreeNode node);
  void FreeNode(uint32_t page_no);

  RTreeNode& mutable_node(uint32_t page_no);

  /// Chooses the insertion path (root → node at `target_level`) for `rect`,
  /// applying the R* ChooseSubtree criteria.
  std::vector<uint32_t> ChoosePath(const Rect& rect, int target_level) const;

  /// Inserts `entry` into a node at `target_level`, handling overflow with
  /// forced reinsertion / splits. `reinserted` has one flag per level.
  void InsertAtLevel(const RTreeEntry& entry, int target_level,
                     std::vector<bool>* reinserted);

  /// Handles overflow at path.back() and propagates splits/MBR updates to
  /// the root.
  void OverflowTreatment(const std::vector<uint32_t>& path,
                         std::vector<bool>* reinserted);

  /// Recomputes parent MBRs along `path` from position `from` upward.
  void UpdatePathMbrs(const std::vector<uint32_t>& path, size_t from);

  /// Removes the reinsert_fraction entries of `page_no` farthest from the
  /// node's MBR center; returned closest-first (the R* "close reinsert").
  std::vector<RTreeEntry> TakeReinsertEntries(uint32_t page_no);

  /// Splits the overflowing node; returns the directory entry (MBR + page)
  /// of the new sibling. Dispatches on options().split_algorithm.
  RTreeEntry SplitNode(uint32_t page_no);

  /// The [BKSS 90] split: margin-sum axis choice, overlap-minimal index.
  RTreeEntry SplitNodeRStar(uint32_t page_no);
  /// Guttman's quadratic split.
  RTreeEntry SplitNodeQuadratic(uint32_t page_no);
  /// Guttman's linear split.
  RTreeEntry SplitNodeLinear(uint32_t page_no);

  /// Distributes `rest` over the two seeded groups Guttman-style (PickNext
  /// for the quadratic variant, input order for the linear one), honoring
  /// the minimum fill. Shared by the two classic splits.
  void DistributeGuttman(std::vector<RTreeEntry> rest, bool quadratic,
                         size_t min_fill, RTreeNode* group1,
                         RTreeNode* group2);

  /// Index of the entry pointing to `child_page` within `parent_page`.
  size_t FindChildIndex(uint32_t parent_page, uint32_t child_page) const;

  bool FindLeafPath(uint32_t page_no, const Rect& rect, uint64_t oid,
                    std::vector<uint32_t>* path) const;

  uint32_t tree_id_;
  RTreeOptions options_;
  std::vector<RTreeNode> nodes_;  // Indexed by page number; [0] reserved.
  std::vector<uint32_t> free_pages_;
  std::vector<bool> is_free_;  // Parallel to nodes_.
  uint32_t root_page_ = 0;
  int height_ = 1;
  int64_t num_data_entries_ = 0;
  NodeSoACache soa_cache_;
  /// The cache matches nodes_; cleared by every mutation doorway
  /// (mutable_node / AllocateNode / FreeNode), set only by Seal().
  bool soa_valid_ = false;
  /// Lifecycle phase; mutation doorways PSJ_DCHECK_PHASE it is kMutable.
  TreePhase phase_ = TreePhase::kMutable;
  /// Duration of the most recent Seal() (see last_seal_micros()).
  int64_t last_seal_micros_ = 0;
};

}  // namespace psj

#endif  // PSJ_RTREE_RSTAR_TREE_H_
