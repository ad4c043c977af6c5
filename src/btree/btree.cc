#include "src/btree/btree.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>

#include "src/util/check.h"

namespace cedar::btree {
namespace {

constexpr std::uint8_t kLeaf = 1;
constexpr std::uint8_t kInternal = 2;

// Page layout:
//   0  u8   node type (kLeaf / kInternal)
//   1  u8   reserved
//   2  u16  key count
//   4  u16  cell_start: lowest byte used by cells (cells fill toward the end)
//   6  u32  leftmost child (internal nodes only)
//   10 u16  slots[count]: cell offsets, in key order
// Cells: u16 key_len, key bytes, then for a leaf u16 val_len + value bytes,
// for an internal node a u32 child PageId.
constexpr std::uint32_t kHeaderSize = 10;
constexpr std::uint32_t kSlotSize = 2;

std::uint16_t GetU16(std::span<const std::uint8_t> b, std::uint32_t off) {
  return static_cast<std::uint16_t>(b[off] | (b[off + 1] << 8));
}
void PutU16(std::span<std::uint8_t> b, std::uint32_t off, std::uint16_t v) {
  b[off] = static_cast<std::uint8_t>(v & 0xFF);
  b[off + 1] = static_cast<std::uint8_t>(v >> 8);
}
std::uint32_t GetU32(std::span<const std::uint8_t> b, std::uint32_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}
void PutU32(std::span<std::uint8_t> b, std::uint32_t off, std::uint32_t v) {
  b[off] = static_cast<std::uint8_t>(v & 0xFF);
  b[off + 1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  b[off + 2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  b[off + 3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

}  // namespace

int CompareKeys(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) {
  const std::size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) {
    return c;
  }
  if (a.size() == b.size()) {
    return 0;
  }
  return a.size() < b.size() ? -1 : 1;
}

bool BTree::IsInteriorPage(std::span<const std::uint8_t> page) {
  return !page.empty() && page[0] == kInternal;
}

std::vector<PageId> BTree::ChildrenOf(std::span<const std::uint8_t> page,
                                      PageId limit) {
  if (page.size() < kHeaderSize || page[0] != kInternal) {
    return {};
  }
  const std::uint32_t count = GetU16(page, 2);
  const std::uint32_t cell_start = GetU16(page, 4);
  if (kHeaderSize + count * kSlotSize > cell_start ||
      cell_start > page.size()) {
    return {};
  }
  std::vector<PageId> all = {GetU32(page, 6)};
  for (std::uint32_t i = 0; i < count; ++i) {
    // A cell is u16 key_len, the key, then the u32 child; all of it must
    // lie between cell_start and the page's end.
    const std::uint32_t off = GetU16(page, kHeaderSize + i * kSlotSize);
    if (off < cell_start || off + 2 > page.size() ||
        off + 2 + GetU16(page, off) + 4 > page.size()) {
      return {};
    }
    all.push_back(GetU32(page, off + 2 + GetU16(page, off)));
  }
  std::erase_if(all, [limit](PageId id) { return id >= limit; });
  return all;
}

// In-memory view over one page buffer.
class BTree::Node {
 public:
  Node(std::vector<std::uint8_t>* buf) : buf_(buf) {}  // NOLINT

  void Init(bool leaf) {
    std::fill(buf_->begin(), buf_->end(), std::uint8_t{0});
    (*buf_)[0] = leaf ? kLeaf : kInternal;
    PutU16(*buf_, 2, 0);
    PutU16(*buf_, 4, static_cast<std::uint16_t>(buf_->size()));
    PutU32(*buf_, 6, kInvalidPage);
  }

  bool IsValid() const {
    const std::uint8_t t = (*buf_)[0];
    if (t != kLeaf && t != kInternal) {
      return false;
    }
    const std::uint32_t n = Count();
    const std::uint32_t cs = CellStart();
    return kHeaderSize + n * kSlotSize <= cs && cs <= buf_->size();
  }

  bool IsLeaf() const { return (*buf_)[0] == kLeaf; }
  std::uint32_t Count() const { return GetU16(*buf_, 2); }
  std::uint32_t CellStart() const { return GetU16(*buf_, 4); }
  PageId LeftmostChild() const { return GetU32(*buf_, 6); }
  void SetLeftmostChild(PageId id) { PutU32(*buf_, 6, id); }

  std::uint32_t SlotOffset(std::uint32_t i) const {
    return GetU16(*buf_, kHeaderSize + i * kSlotSize);
  }

  std::span<const std::uint8_t> KeyAt(std::uint32_t i) const {
    const std::uint32_t off = SlotOffset(i);
    const std::uint16_t klen = GetU16(*buf_, off);
    return std::span<const std::uint8_t>(buf_->data() + off + 2, klen);
  }

  std::span<const std::uint8_t> ValueAt(std::uint32_t i) const {
    CEDAR_CHECK(IsLeaf());
    const std::uint32_t off = SlotOffset(i);
    const std::uint16_t klen = GetU16(*buf_, off);
    const std::uint16_t vlen = GetU16(*buf_, off + 2 + klen);
    return std::span<const std::uint8_t>(buf_->data() + off + 4 + klen, vlen);
  }

  PageId ChildAt(std::uint32_t i) const {
    CEDAR_CHECK(!IsLeaf());
    const std::uint32_t off = SlotOffset(i);
    const std::uint16_t klen = GetU16(*buf_, off);
    return GetU32(*buf_, off + 2 + klen);
  }

  void SetChildAt(std::uint32_t i, PageId id) {
    CEDAR_CHECK(!IsLeaf());
    const std::uint32_t off = SlotOffset(i);
    const std::uint16_t klen = GetU16(*buf_, off);
    PutU32(*buf_, off + 2 + klen, id);
  }

  std::uint32_t CellSize(std::uint32_t i) const {
    const std::uint32_t off = SlotOffset(i);
    const std::uint16_t klen = GetU16(*buf_, off);
    if (IsLeaf()) {
      const std::uint16_t vlen = GetU16(*buf_, off + 2 + klen);
      return 4u + klen + vlen;
    }
    return 2u + klen + 4u;
  }

  static std::uint32_t LeafCellSize(std::size_t klen, std::size_t vlen) {
    return static_cast<std::uint32_t>(4 + klen + vlen);
  }
  static std::uint32_t InternalCellSize(std::size_t klen) {
    return static_cast<std::uint32_t>(2 + klen + 4);
  }

  // Free bytes between the slot directory and the lowest cell.
  std::uint32_t ContiguousFree() const {
    return CellStart() - (kHeaderSize + Count() * kSlotSize);
  }

  // Total reclaimable free bytes (after compaction).
  std::uint32_t TotalFree() const {
    std::uint32_t used = kHeaderSize + Count() * kSlotSize;
    for (std::uint32_t i = 0; i < Count(); ++i) {
      used += CellSize(i);
    }
    return static_cast<std::uint32_t>(buf_->size()) - used;
  }

  // First index whose key is > `key`.
  std::uint32_t UpperBound(std::span<const std::uint8_t> key) const {
    std::uint32_t lo = 0;
    std::uint32_t hi = Count();
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (CompareKeys(KeyAt(mid), key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Index of `key` if present.
  std::optional<std::uint32_t> Find(std::span<const std::uint8_t> key) const {
    const std::uint32_t ub = UpperBound(key);
    if (ub > 0 && CompareKeys(KeyAt(ub - 1), key) == 0) {
      return ub - 1;
    }
    return std::nullopt;
  }

  // Rewrites cells tightly against the end of the page.
  void Compact() {
    std::vector<std::vector<std::uint8_t>> cells;
    cells.reserve(Count());
    for (std::uint32_t i = 0; i < Count(); ++i) {
      const std::uint32_t off = SlotOffset(i);
      const std::uint32_t size = CellSize(i);
      cells.emplace_back(buf_->begin() + off, buf_->begin() + off + size);
    }
    std::uint32_t cell_start = static_cast<std::uint32_t>(buf_->size());
    for (std::uint32_t i = 0; i < cells.size(); ++i) {
      cell_start -= static_cast<std::uint32_t>(cells[i].size());
      std::copy(cells[i].begin(), cells[i].end(), buf_->begin() + cell_start);
      PutU16(*buf_, kHeaderSize + i * kSlotSize,
             static_cast<std::uint16_t>(cell_start));
    }
    PutU16(*buf_, 4, static_cast<std::uint16_t>(cell_start));
  }

  // Inserts a raw cell at slot index `idx`. Caller guarantees it fits
  // after compaction.
  void InsertCell(std::uint32_t idx, std::span<const std::uint8_t> cell) {
    const std::uint32_t need =
        static_cast<std::uint32_t>(cell.size()) + kSlotSize;
    if (ContiguousFree() < need) {
      Compact();
    }
    CEDAR_CHECK(ContiguousFree() >= need);
    const std::uint32_t cell_start =
        CellStart() - static_cast<std::uint32_t>(cell.size());
    std::copy(cell.begin(), cell.end(), buf_->begin() + cell_start);
    PutU16(*buf_, 4, static_cast<std::uint16_t>(cell_start));
    // Shift slots [idx, count) right by one.
    const std::uint32_t count = Count();
    for (std::uint32_t i = count; i > idx; --i) {
      PutU16(*buf_, kHeaderSize + i * kSlotSize,
             GetU16(*buf_, kHeaderSize + (i - 1) * kSlotSize));
    }
    PutU16(*buf_, kHeaderSize + idx * kSlotSize,
           static_cast<std::uint16_t>(cell_start));
    PutU16(*buf_, 2, static_cast<std::uint16_t>(count + 1));
  }

  void RemoveCell(std::uint32_t idx) {
    const std::uint32_t count = Count();
    CEDAR_CHECK(idx < count);
    for (std::uint32_t i = idx; i + 1 < count; ++i) {
      PutU16(*buf_, kHeaderSize + i * kSlotSize,
             GetU16(*buf_, kHeaderSize + (i + 1) * kSlotSize));
    }
    PutU16(*buf_, 2, static_cast<std::uint16_t>(count - 1));
    // Cell bytes become a hole; Compact() reclaims them on demand.
  }

  static std::vector<std::uint8_t> MakeLeafCell(
      std::span<const std::uint8_t> key, std::span<const std::uint8_t> value) {
    std::vector<std::uint8_t> cell(4 + key.size() + value.size());
    PutU16(cell, 0, static_cast<std::uint16_t>(key.size()));
    std::copy(key.begin(), key.end(), cell.begin() + 2);
    PutU16(cell, static_cast<std::uint32_t>(2 + key.size()),
           static_cast<std::uint16_t>(value.size()));
    std::copy(value.begin(), value.end(), cell.begin() + 4 + key.size());
    return cell;
  }

  static std::vector<std::uint8_t> MakeInternalCell(
      std::span<const std::uint8_t> key, PageId child) {
    std::vector<std::uint8_t> cell(2 + key.size() + 4);
    PutU16(cell, 0, static_cast<std::uint16_t>(key.size()));
    std::copy(key.begin(), key.end(), cell.begin() + 2);
    PutU32(cell, static_cast<std::uint32_t>(2 + key.size()), child);
    return cell;
  }

  std::vector<std::uint8_t> RawCell(std::uint32_t i) const {
    const std::uint32_t off = SlotOffset(i);
    const std::uint32_t size = CellSize(i);
    return std::vector<std::uint8_t>(buf_->begin() + off,
                                     buf_->begin() + off + size);
  }

 private:
  std::vector<std::uint8_t>* buf_;
};

BTree::BTree(PageStore* store, PageId root)
    : store_(store), root_(root), page_size_(store->page_size()) {
  CEDAR_CHECK(store != nullptr);
  CEDAR_CHECK(page_size_ >= 64);
}

std::uint32_t BTree::MaxEntrySize() const {
  // Two cells plus their slots must fit in a page for splits to terminate.
  const std::uint32_t usable = page_size_ - kHeaderSize;
  return usable / 2 - kSlotSize - 4 /* leaf cell overhead */;
}

Status BTree::Create() {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::unique_lock<std::shared_mutex> lock(tree_mu_);
  std::vector<std::uint8_t> buf(page_size_);
  Node node(&buf);
  node.Init(/*leaf=*/true);
  return StoreNode(root_, buf);
}

Status BTree::LoadNode(PageId id, std::vector<std::uint8_t>* buf) const {
  buf->resize(page_size_);
  CEDAR_RETURN_IF_ERROR(store_->ReadPage(id, *buf));
  Node node(buf);
  if (!node.IsValid()) {
    return MakeError(ErrorCode::kCorruptMetadata,
                     "invalid btree page " + std::to_string(id));
  }
  return OkStatus();
}

Status BTree::StoreNode(PageId id, std::span<const std::uint8_t> buf) const {
  return store_->WritePage(id, buf);
}

Status BTree::TryInPlaceUpdate(std::span<const std::uint8_t> key,
                               std::span<const std::uint8_t> value,
                               bool* done) {
  *done = false;
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::shared_lock<std::shared_mutex> lock(tree_mu_);
  // Descend to the leaf. The shared lock freezes the structure (no splits,
  // no frees), so the routing stays valid; concurrent in-place updates on
  // other leaves don't move keys between pages.
  PageId page = root_;
  std::vector<std::uint8_t> buf;
  for (;;) {
    CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
    Node probe(&buf);
    if (probe.IsLeaf()) {
      break;
    }
    const std::uint32_t ub = probe.UpperBound(key);
    page = ub == 0 ? probe.LeftmostChild() : probe.ChildAt(ub - 1);
  }
  // Latch the leaf and reload it: another updater may have rewritten the
  // page between the descent and the latch.
  util::RankedLockGuard latch(leaf_mu_[page % leaf_mu_.size()],
                              util::LockRank::kTreeLeaf);
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);
  const auto idx = node.Find(key);
  if (!idx.has_value()) {
    return OkStatus();  // new key: needs the exclusive insert path
  }
  node.RemoveCell(*idx);
  const std::vector<std::uint8_t> cell = Node::MakeLeafCell(key, value);
  if (node.TotalFree() < cell.size() + kSlotSize) {
    // Larger value needs a split; nothing was stored, so just fall back.
    return OkStatus();
  }
  node.InsertCell(node.UpperBound(key), cell);
  CEDAR_RETURN_IF_ERROR(StoreNode(page, buf));
  *done = true;
  return OkStatus();
}

Status BTree::Insert(std::span<const std::uint8_t> key,
                     std::span<const std::uint8_t> value) {
  if (key.empty() || key.size() + value.size() > MaxEntrySize()) {
    return MakeError(ErrorCode::kInvalidArgument, "entry too large for page");
  }
  // Value replacement for an existing key — FSD's dominant mutation — runs
  // under the shared lock; only key-adding inserts serialize exclusively.
  bool done = false;
  CEDAR_RETURN_IF_ERROR(TryInPlaceUpdate(key, value, &done));
  if (done) {
    return OkStatus();
  }
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::unique_lock<std::shared_mutex> lock(tree_mu_);
  // Worst case this insert splits every level plus grows a new root; make
  // sure those pages exist BEFORE touching the tree, so we never store a
  // split child whose parent separator cannot be recorded.
  {
    std::uint32_t depth = 1;
    PageId page = root_;
    for (;;) {
      std::vector<std::uint8_t> buf;
      CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
      Node node(&buf);
      if (node.IsLeaf()) {
        break;
      }
      const std::uint32_t ub = node.UpperBound(key);
      page = ub == 0 ? node.LeftmostChild() : node.ChildAt(ub - 1);
      ++depth;
    }
    if (!store_->CanAllocate(depth + 1)) {
      return MakeError(ErrorCode::kNoFreeSpace,
                       "page store cannot guarantee split pages");
    }
  }
  SplitResult split;
  CEDAR_RETURN_IF_ERROR(InsertRec(root_, key, value, &split));
  if (!split.split) {
    return OkStatus();
  }
  // Root split: move the left half (now in the root page) to a new page and
  // rewrite the root as an internal node over the two halves.
  std::vector<std::uint8_t> root_buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(root_, &root_buf));
  CEDAR_ASSIGN_OR_RETURN(PageId left, store_->AllocatePage());
  CEDAR_RETURN_IF_ERROR(StoreNode(left, root_buf));
  Node root_node(&root_buf);
  root_node.Init(/*leaf=*/false);
  root_node.SetLeftmostChild(left);
  root_node.InsertCell(0,
                       Node::MakeInternalCell(split.separator, split.right));
  return StoreNode(root_, root_buf);
}

Status BTree::InsertRec(PageId page, std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> value,
                        SplitResult* out) {
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);

  std::vector<std::uint8_t> cell;
  std::uint32_t insert_at = 0;

  if (node.IsLeaf()) {
    if (auto existing = node.Find(key)) {
      node.RemoveCell(*existing);
    }
    insert_at = node.UpperBound(key);
    cell = Node::MakeLeafCell(key, value);
  } else {
    const std::uint32_t ub = node.UpperBound(key);
    const PageId child = ub == 0 ? node.LeftmostChild() : node.ChildAt(ub - 1);
    SplitResult child_split;
    CEDAR_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split));
    if (!child_split.split) {
      out->split = false;
      return OkStatus();
    }
    insert_at = node.UpperBound(child_split.separator);
    cell = Node::MakeInternalCell(child_split.separator, child_split.right);
  }

  if (node.TotalFree() >= cell.size() + kSlotSize) {
    node.InsertCell(insert_at, cell);
    out->split = false;
    return StoreNode(page, buf);
  }

  // Split. Gather all cells (with the new one in order) and redistribute by
  // cumulative byte size.
  std::vector<std::vector<std::uint8_t>> cells;
  cells.reserve(node.Count() + 1);
  for (std::uint32_t i = 0; i < node.Count(); ++i) {
    if (i == insert_at) {
      cells.push_back(cell);
    }
    cells.push_back(node.RawCell(i));
  }
  if (insert_at == node.Count()) {
    cells.push_back(cell);
  }

  const bool leaf = node.IsLeaf();
  // prefix[i] = bytes (cells + slots) of cells[0, i).
  std::vector<std::size_t> prefix(cells.size() + 1, 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    prefix[i + 1] = prefix[i] + cells[i].size() + kSlotSize;
  }
  const std::size_t total_bytes = prefix.back();
  // The byte midpoint: the first index whose prefix reaches half the bytes.
  std::size_t mid = 1;
  while (mid < cells.size() - 1 && prefix[mid] < total_bytes / 2) {
    ++mid;
  }
  // Left keeps cells[0, idx); right gets cells[idx, n) — minus cells[idx]
  // itself in an interior node, whose separator moves up. One cell larger
  // than about a third of a page can leave the midpoint's left half too
  // full, so take the index nearest the midpoint at which both halves fit.
  const std::size_t usable = page_size_ - kHeaderSize;
  auto fits = [&](std::size_t idx) {
    const std::size_t right_from = leaf ? prefix[idx] : prefix[idx + 1];
    return prefix[idx] <= usable && total_bytes - right_from <= usable;
  };
  std::size_t split_idx = 0;
  for (std::size_t d = 0; split_idx == 0 && d < cells.size(); ++d) {
    if (mid >= d + 1 && fits(mid - d)) {
      split_idx = mid - d;
    } else if (mid + d < cells.size() && fits(mid + d)) {
      split_idx = mid + d;
    }
  }
  CEDAR_CHECK(split_idx >= 1 && split_idx < cells.size());

  const PageId old_leftmost = leaf ? kInvalidPage : node.LeftmostChild();

  CEDAR_ASSIGN_OR_RETURN(PageId right_pid, store_->AllocatePage());
  std::vector<std::uint8_t> right_buf(page_size_);
  Node right(&right_buf);
  right.Init(leaf);

  // Extract key (and for internal cells, child) from a raw cell.
  auto cell_key = [](const std::vector<std::uint8_t>& c) {
    const std::uint16_t klen = GetU16(c, 0);
    return std::span<const std::uint8_t>(c.data() + 2, klen);
  };
  auto cell_child = [](const std::vector<std::uint8_t>& c) {
    const std::uint16_t klen = GetU16(c, 0);
    return GetU32(c, 2u + klen);
  };

  node.Init(leaf);
  if (!leaf) {
    node.SetLeftmostChild(old_leftmost);
  }

  if (leaf) {
    for (std::size_t i = 0; i < split_idx; ++i) {
      node.InsertCell(static_cast<std::uint32_t>(i), cells[i]);
    }
    for (std::size_t i = split_idx; i < cells.size(); ++i) {
      right.InsertCell(static_cast<std::uint32_t>(i - split_idx), cells[i]);
    }
    const auto sep = cell_key(cells[split_idx]);
    out->separator.assign(sep.begin(), sep.end());
  } else {
    // The middle separator moves up; its child becomes the right node's
    // leftmost child.
    for (std::size_t i = 0; i < split_idx; ++i) {
      node.InsertCell(static_cast<std::uint32_t>(i), cells[i]);
    }
    right.SetLeftmostChild(cell_child(cells[split_idx]));
    for (std::size_t i = split_idx + 1; i < cells.size(); ++i) {
      right.InsertCell(static_cast<std::uint32_t>(i - split_idx - 1),
                       cells[i]);
    }
    const auto sep = cell_key(cells[split_idx]);
    out->separator.assign(sep.begin(), sep.end());
  }

  CEDAR_RETURN_IF_ERROR(StoreNode(page, buf));
  CEDAR_RETURN_IF_ERROR(StoreNode(right_pid, right_buf));
  out->split = true;
  out->right = right_pid;
  return OkStatus();
}

Result<Value> BTree::Lookup(std::span<const std::uint8_t> key) {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::shared_lock<std::shared_mutex> lock(tree_mu_);
  PageId page = root_;
  for (;;) {
    std::vector<std::uint8_t> buf;
    CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
    Node node(&buf);
    if (node.IsLeaf()) {
      if (auto idx = node.Find(key)) {
        auto v = node.ValueAt(*idx);
        return Value(v.begin(), v.end());
      }
      return MakeError(ErrorCode::kNotFound, "key not in tree");
    }
    const std::uint32_t ub = node.UpperBound(key);
    page = ub == 0 ? node.LeftmostChild() : node.ChildAt(ub - 1);
  }
}

Status BTree::Erase(std::span<const std::uint8_t> key) {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::unique_lock<std::shared_mutex> lock(tree_mu_);
  EraseResult result;
  return EraseRec(root_, key, /*is_root=*/true, &result);
}

Status BTree::EraseRec(PageId page, std::span<const std::uint8_t> key,
                       bool is_root, EraseResult* out) {
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);

  if (node.IsLeaf()) {
    auto idx = node.Find(key);
    if (!idx) {
      return MakeError(ErrorCode::kNotFound, "key not in tree");
    }
    node.RemoveCell(*idx);
    out->erased = true;
    if (node.Count() == 0 && !is_root) {
      out->child_freed = true;
      return store_->FreePage(page);
    }
    return StoreNode(page, buf);
  }

  const std::uint32_t ub = node.UpperBound(key);
  const bool via_leftmost = (ub == 0);
  const PageId child =
      via_leftmost ? node.LeftmostChild() : node.ChildAt(ub - 1);

  EraseResult child_result;
  CEDAR_RETURN_IF_ERROR(
      EraseRec(child, key, /*is_root=*/false, &child_result));
  out->erased = child_result.erased;

  bool dirty = false;
  if (child_result.replace_with.has_value()) {
    if (via_leftmost) {
      node.SetLeftmostChild(*child_result.replace_with);
    } else {
      node.SetChildAt(ub - 1, *child_result.replace_with);
    }
    dirty = true;
  } else if (child_result.child_freed) {
    if (via_leftmost) {
      // The leftmost subtree vanished; promote entry 0's child to leftmost.
      CEDAR_CHECK(node.Count() >= 1);
      node.SetLeftmostChild(node.ChildAt(0));
      node.RemoveCell(0);
    } else {
      node.RemoveCell(ub - 1);
    }
    dirty = true;
  }

  if (node.Count() == 0) {
    // Pass-through node: only the leftmost child remains.
    const PageId survivor = node.LeftmostChild();
    if (is_root) {
      // Shrink the tree: copy the surviving child into the root page.
      std::vector<std::uint8_t> child_buf;
      CEDAR_RETURN_IF_ERROR(LoadNode(survivor, &child_buf));
      CEDAR_RETURN_IF_ERROR(StoreNode(root_, child_buf));
      return store_->FreePage(survivor);
    }
    out->replace_with = survivor;
    return store_->FreePage(page);
  }

  if (dirty) {
    return StoreNode(page, buf);
  }
  return OkStatus();
}

Status BTree::Scan(std::span<const std::uint8_t> from,
                   const ScanVisitor& visit) {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::shared_lock<std::shared_mutex> lock(tree_mu_);
  bool keep_going = true;
  return ScanRec(root_, from, visit, &keep_going);
}

Status BTree::ScanRec(PageId page, std::span<const std::uint8_t> from,
                      const ScanVisitor& visit, bool* keep_going) {
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);
  if (node.IsLeaf()) {
    std::uint32_t start = 0;
    while (start < node.Count() && CompareKeys(node.KeyAt(start), from) < 0) {
      ++start;
    }
    for (std::uint32_t i = start; i < node.Count() && *keep_going; ++i) {
      *keep_going = visit(node.KeyAt(i), node.ValueAt(i));
    }
    return OkStatus();
  }
  // First child that can contain keys >= from.
  const std::uint32_t ub = node.UpperBound(from);
  const std::uint32_t start_child = ub == 0 ? 0 : ub;  // children index space
  if (start_child == 0) {
    CEDAR_RETURN_IF_ERROR(ScanRec(node.LeftmostChild(), from, visit,
                                  keep_going));
  }
  for (std::uint32_t i = (start_child == 0 ? 0 : start_child - 1);
       i < node.Count() && *keep_going; ++i) {
    CEDAR_RETURN_IF_ERROR(ScanRec(node.ChildAt(i), from, visit, keep_going));
  }
  return OkStatus();
}

Result<std::uint64_t> BTree::Count() {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::shared_lock<std::shared_mutex> lock(tree_mu_);
  std::uint64_t count = 0;
  CEDAR_RETURN_IF_ERROR(CountRec(root_, &count));
  return count;
}

Status BTree::CountRec(PageId page, std::uint64_t* count) {
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);
  if (node.IsLeaf()) {
    *count += node.Count();
    return OkStatus();
  }
  CEDAR_RETURN_IF_ERROR(CountRec(node.LeftmostChild(), count));
  for (std::uint32_t i = 0; i < node.Count(); ++i) {
    CEDAR_RETURN_IF_ERROR(CountRec(node.ChildAt(i), count));
  }
  return OkStatus();
}

Status BTree::CollectPages(std::vector<PageId>* out) {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::shared_lock<std::shared_mutex> lock(tree_mu_);
  out->clear();
  return CollectRec(root_, out);
}

Status BTree::CollectRec(PageId page, std::vector<PageId>* out) {
  out->push_back(page);
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);
  if (node.IsLeaf()) {
    return OkStatus();
  }
  CEDAR_RETURN_IF_ERROR(CollectRec(node.LeftmostChild(), out));
  for (std::uint32_t i = 0; i < node.Count(); ++i) {
    CEDAR_RETURN_IF_ERROR(CollectRec(node.ChildAt(i), out));
  }
  return OkStatus();
}

Status BTree::CheckInvariants() {
  util::LockRankFrame tree_rank(util::LockRank::kTree);
  std::shared_lock<std::shared_mutex> lock(tree_mu_);
  int leaf_depth = -1;
  return CheckRec(root_, std::nullopt, std::nullopt, 0, &leaf_depth);
}

Status BTree::CheckRec(PageId page, const std::optional<Key>& lower,
                       const std::optional<Key>& upper, int depth,
                       int* leaf_depth) {
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(LoadNode(page, &buf));
  Node node(&buf);

  // Keys strictly increasing and within (lower, upper].
  for (std::uint32_t i = 0; i < node.Count(); ++i) {
    auto key = node.KeyAt(i);
    if (i > 0 && CompareKeys(node.KeyAt(i - 1), key) >= 0) {
      return MakeError(ErrorCode::kCorruptMetadata, "keys out of order");
    }
    if (lower && CompareKeys(key, *lower) < 0) {
      return MakeError(ErrorCode::kCorruptMetadata, "key below lower bound");
    }
    if (upper && CompareKeys(key, *upper) >= 0) {
      return MakeError(ErrorCode::kCorruptMetadata, "key above upper bound");
    }
  }

  if (node.IsLeaf()) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return MakeError(ErrorCode::kCorruptMetadata, "uneven leaf depth");
    }
    return OkStatus();
  }

  if (node.Count() == 0) {
    return MakeError(ErrorCode::kCorruptMetadata,
                     "internal node without separators");
  }

  // Child i covers [sep_i, sep_{i+1}); leftmost covers [lower, sep_0).
  {
    Key sep0(node.KeyAt(0).begin(), node.KeyAt(0).end());
    CEDAR_RETURN_IF_ERROR(CheckRec(node.LeftmostChild(), lower, sep0,
                                   depth + 1, leaf_depth));
  }
  for (std::uint32_t i = 0; i < node.Count(); ++i) {
    Key lo(node.KeyAt(i).begin(), node.KeyAt(i).end());
    std::optional<Key> hi;
    if (i + 1 < node.Count()) {
      hi = Key(node.KeyAt(i + 1).begin(), node.KeyAt(i + 1).end());
    } else {
      hi = upper;
    }
    CEDAR_RETURN_IF_ERROR(
        CheckRec(node.ChildAt(i), lo, hi, depth + 1, leaf_depth));
  }
  return OkStatus();
}

}  // namespace cedar::btree
