// A page-oriented B+tree with variable-length byte-string keys and values.
//
// Both file name tables in the reproduction are instances of this tree:
//   - CFS keys name!version -> (uid, header page 0 disk address, ...), with
//     2048-byte pages spanning four disk sectors (whose non-atomic writes
//     are one of the failure modes FSD eliminates, paper section 5.3);
//   - FSD keys name!version -> the full entry (uid, run table, properties),
//     with 512-byte pages so each tree page is exactly one logged sector.
//
// Design notes:
//   - Slotted pages: a sorted slot directory grows from the front, cells
//     grow from the back; in-page compaction reclaims holes.
//   - The root lives at a fixed PageId supplied by the owner, so no separate
//     root pointer needs persisting: root splits rewrite the root page in
//     place as an internal node over two freshly allocated children.
//   - Deletion removes empty leaves and collapses internal nodes that lose
//     all separators; there is no eager rebalancing (matching the original
//     Cedar B-tree package's behaviour, which tolerated slack).
//   - Thread safety: a tree-level reader/writer lock plus leaf latches.
//     Structure mutators (Create, Erase, key-adding Insert) take the tree
//     lock exclusively; Lookup/Scan/Count/CollectPages/CheckInvariants take
//     it shared. Insert first tries an *in-place update* under the shared
//     lock: replacing the value of an existing key never moves separators,
//     so the descent stays valid, and a striped leaf latch (acquired after
//     the descent, leaf reloaded under it) serializes the read-modify-write
//     of the one leaf page against other in-place updaters. FSD's dominant
//     mutation — rewriting a name-table entry for an existing file — thus
//     runs in parallel across leaves. The backing PageStore is itself
//     thread-safe; FSD additionally shards name-table operations by name
//     hash above this layer (DESIGN.md section 4f).

#ifndef CEDAR_BTREE_BTREE_H_
#define CEDAR_BTREE_BTREE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "src/btree/page_store.h"
#include "src/util/lockrank.h"
#include "src/util/status.h"

namespace cedar::btree {

using Key = std::vector<std::uint8_t>;
using Value = std::vector<std::uint8_t>;

// Visitor for scans; return false to stop early.
using ScanVisitor = std::function<bool(std::span<const std::uint8_t> key,
                                       std::span<const std::uint8_t> value)>;

class BTree {
 public:
  // `root` must be a valid page in `store`. Call Create() once to format it.
  BTree(PageStore* store, PageId root);

  // Formats `root` as an empty leaf.
  Status Create();

  // Inserts or replaces. Key and value must jointly fit in a page (enforced;
  // name table entries are far smaller than a sector in practice).
  Status Insert(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> value);

  // Removes a key; kNotFound if absent.
  Status Erase(std::span<const std::uint8_t> key);

  // Point lookup.
  Result<Value> Lookup(std::span<const std::uint8_t> key);

  // In-order scan of all entries with key >= `from` (empty = from start).
  Status Scan(std::span<const std::uint8_t> from, const ScanVisitor& visit);

  // Number of entries (walks the tree).
  Result<std::uint64_t> Count();

  // Collects every PageId reachable from the root (root included). Used at
  // mount time to rebuild the name-table page allocation map.
  Status CollectPages(std::vector<PageId>* out);

  // Validates structural invariants (ordering, separator bounds, fill).
  Status CheckInvariants();

  // Maximum key+value size this tree can store given its page size.
  std::uint32_t MaxEntrySize() const;

  PageId root() const { return root_; }

  // Whether `page`, a page image as the store holds it, is an interior
  // node, so a page cache can keep the tree's upper levels without knowing
  // the page layout.
  static bool IsInteriorPage(std::span<const std::uint8_t> page);
  // The child pointers of `page`, an interior node image, in key order —
  // those below `limit` only — so a mount-time walk can follow the tree
  // without knowing the page layout. Empty for a leaf and for a page that
  // does not parse (a bad header, or a slot or cell past the page's end).
  static std::vector<PageId> ChildrenOf(std::span<const std::uint8_t> page,
                                        PageId limit);

 private:
  struct SplitResult {
    bool split = false;
    Key separator;      // smallest key of the new right sibling
    PageId right = kInvalidPage;
  };
  struct EraseResult {
    bool erased = false;
    bool child_freed = false;  // subtree page was freed; remove its entry
    // Set when the child collapsed to a pass-through internal node: the
    // parent must redirect its pointer to this surviving grandchild.
    std::optional<PageId> replace_with;
  };

  class Node;  // in-memory view over a page buffer (btree.cc)

  Status LoadNode(PageId id, std::vector<std::uint8_t>* buf) const;
  Status StoreNode(PageId id, std::span<const std::uint8_t> buf) const;

  // Replaces the value of an existing key under the shared tree lock (leaf
  // latch for the page rewrite). Sets *done=false (without error) when the
  // key is absent or the new value needs a split — the exclusive path then
  // handles it.
  Status TryInPlaceUpdate(std::span<const std::uint8_t> key,
                          std::span<const std::uint8_t> value, bool* done);

  Status InsertRec(PageId page, std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> value, SplitResult* out);
  Status EraseRec(PageId page, std::span<const std::uint8_t> key,
                  bool is_root, EraseResult* out);
  Status ScanRec(PageId page, std::span<const std::uint8_t> from,
                 const ScanVisitor& visit, bool* keep_going);
  Status CollectRec(PageId page, std::vector<PageId>* out);
  Status CheckRec(PageId page, const std::optional<Key>& lower,
                  const std::optional<Key>& upper, int depth,
                  int* leaf_depth);
  Status CountRec(PageId page, std::uint64_t* count);

  // Exclusive for structure mutators, shared for read paths and in-place
  // updates; the *Rec helpers run with it held by the public entry point.
  // Rank kTree in the FSD lock hierarchy.
  mutable std::shared_mutex tree_mu_;
  // Striped leaf latches (rank kTreeLeaf, under shared tree_mu_) serializing
  // in-place read-modify-writes of one leaf page.
  mutable std::array<std::mutex, 64> leaf_mu_;
  PageStore* store_;
  PageId root_;
  std::uint32_t page_size_;
};

// Compares byte strings lexicographically (shorter prefix sorts first).
int CompareKeys(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b);

}  // namespace cedar::btree

#endif  // CEDAR_BTREE_BTREE_H_
