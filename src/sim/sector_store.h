// SectorStore: a disk's medium (sector data, labels and damage flags) as
// copy-on-write chunks of kChunkSectors sectors.
//
// A null chunk stands for zero data, default labels and no damage, so a
// fresh 300 MB disk costs one null pointer per chunk. Copying a store (a
// snapshot, a restore) copies the pointer vector and shares every chunk; the
// first write to a shared chunk clones it, and a write to a null chunk
// materializes it. Equality compares bytes only where the two chunk
// pointers differ. See DESIGN.md section 4m for the sharing rule and why it
// is thread-safe.
//
// Not internally synchronized: a SimDisk touches its store under its own
// mutex, and a DiskSnapshot's store is never written.

#ifndef CEDAR_SIM_SECTOR_STORE_H_
#define CEDAR_SIM_SECTOR_STORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bitset>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/sim/geometry.h"
#include "src/sim/label.h"
#include "src/util/check.h"

namespace cedar::sim {

class SectorStore {
 public:
  // Sectors per chunk: the unit of sharing, cloning and comparing. A
  // constant, not a knob: it trades the pointer vector's size against the
  // bytes one write clones, and every figure the store reports (resident
  // bytes, the image codec's chunk-sized reads) is in its units.
  static constexpr std::uint32_t kChunkSectors = 64;
  static constexpr std::size_t kChunkBytes =
      static_cast<std::size_t>(kChunkSectors) * kSectorSize;

  // The damage bits come first: each request reads them, and a chunk's
  // count sits just before them (Node), so the two share a cache line.
  struct Chunk {
    std::bitset<kChunkSectors> damaged;
    std::array<Label, kChunkSectors> labels{};
    std::array<std::uint8_t, kChunkBytes> data{};

    bool operator==(const Chunk&) const = default;
  };

  SectorStore() = default;
  explicit SectorStore(Lba sectors)
      : chunks_(static_cast<std::size_t>((sectors + kChunkSectors - 1) /
                                         kChunkSectors)),
        sectors_(sectors) {}

  Lba sectors() const { return sectors_; }
  std::size_t chunk_count() const { return chunks_.size(); }

  // ---- Reads. A null chunk reads as the zero chunk.
  const Chunk& chunk(std::size_t index) const {
    const Node* held = chunks_[index].get();
    return held != nullptr ? held->chunk : kZeroChunk;
  }
  const std::uint8_t* Data(Lba lba) const {
    return chunk(ChunkOf(lba)).data.data() + OffsetOf(lba) * kSectorSize;
  }
  const Label& label(Lba lba) const {
    return chunk(ChunkOf(lba)).labels[OffsetOf(lba)];
  }
  bool damaged(Lba lba) const {
    return chunk(ChunkOf(lba)).damaged[OffsetOf(lba)];
  }

  // ---- Writes. Each one makes the chunk this store's own first (see
  // Mutable), except where the value already holds for a null chunk.

  // Overwrites the data of whole sectors from `start`, and their labels
  // unless `labels` is empty. Zero data and default labels written into a
  // null chunk leave it null.
  void Write(Lba start, std::span<const std::uint8_t> data,
             std::span<const Label> labels = {}) {
    CEDAR_CHECK(data.size() % kSectorSize == 0);
    const std::size_t count = data.size() / kSectorSize;
    CEDAR_CHECK(labels.empty() || labels.size() == count);
    for (std::size_t done = 0; done < count;) {
      const std::size_t index = ChunkOf(start + done);
      const std::size_t offset = OffsetOf(start + done);
      const std::size_t n = std::min(count - done, kChunkSectors - offset);
      const auto bytes = data.subspan(done * kSectorSize, n * kSectorSize);
      const auto tags = labels.empty() ? labels : labels.subspan(done, n);
      done += n;
      if (chunks_[index].get() == nullptr &&
          std::memcmp(bytes.data(), kZeroChunk.data.data(), bytes.size()) ==
              0 &&
          std::all_of(tags.begin(), tags.end(),
                      [](const Label& label) { return label == Label{}; })) {
        continue;
      }
      Chunk& chunk = Mutable(index);
      std::copy(bytes.begin(), bytes.end(),
                chunk.data.begin() + offset * kSectorSize);
      std::copy(tags.begin(), tags.end(), chunk.labels.begin() + offset);
    }
  }
  // One sector's bytes, to change in place (wild writes, bit rot).
  std::uint8_t* MutableData(Lba lba) {
    return Mutable(ChunkOf(lba)).data.data() + OffsetOf(lba) * kSectorSize;
  }
  void SetLabel(Lba lba, const Label& label) {
    if (chunks_[ChunkOf(lba)].get() != nullptr || !(label == Label{})) {
      Mutable(ChunkOf(lba)).labels[OffsetOf(lba)] = label;
    }
  }
  // Sets or clears the damage flags of `count` sectors from `start`.
  void SetDamaged(Lba start, std::size_t count, bool damaged) {
    for (std::size_t done = 0; done < count;) {
      const std::size_t index = ChunkOf(start + done);
      const std::size_t offset = OffsetOf(start + done);
      const std::size_t n = std::min(count - done, kChunkSectors - offset);
      done += n;
      if (chunks_[index].get() == nullptr && !damaged) {
        continue;
      }
      Chunk& chunk = Mutable(index);
      for (std::size_t i = offset; i < offset + n; ++i) {
        chunk.damaged[i] = damaged;
      }
    }
  }

  // Same sector count and contents; shared chunks compare without reading.
  bool operator==(const SectorStore& other) const {
    if (sectors_ != other.sectors_) {
      return false;
    }
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (chunks_[i].get() != other.chunks_[i].get() &&
          !(chunk(i) == other.chunk(i))) {
        return false;
      }
    }
    return true;
  }

  // Bytes of the chunks this store holds, shared or not.
  std::size_t ResidentBytes() const {
    return sizeof(Chunk) *
           static_cast<std::size_t>(std::count_if(
               chunks_.begin(), chunks_.end(),
               [](const Ref& held) { return held.get() != nullptr; }));
  }

 private:
  static const Chunk kZeroChunk;

  static std::size_t ChunkOf(Lba lba) {
    return static_cast<std::size_t>(lba / kChunkSectors);
  }
  static std::size_t OffsetOf(Lba lba) {
    return static_cast<std::size_t>(lba % kChunkSectors);
  }

  // A chunk and the number of stores that hold it.
  struct Node {
    Node() = default;
    explicit Node(const Chunk& copy) : chunk(copy) {}

    std::atomic<std::uint32_t> holders{1};
    Chunk chunk;
  };

  // One counted reference to a node; null stands for the zero chunk. The
  // count is the node's own rather than a shared_ptr's, whose use_count()
  // is a relaxed load: Shared() is an ordered load, so the reads of a
  // holder that has since dropped the node happen before an in-place
  // write.
  class Ref {
   public:
    Ref() = default;
    explicit Ref(Node* adopt) : node_(adopt) {}
    Ref(const Ref& other) : node_(other.node_) {
      if (node_ != nullptr) {
        node_->holders.fetch_add(1);
      }
    }
    Ref(Ref&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
    Ref& operator=(Ref other) noexcept {
      std::swap(node_, other.node_);
      return *this;
    }
    ~Ref() {
      if (node_ != nullptr && node_->holders.fetch_sub(1) == 1) {
        delete node_;
      }
    }

    Node* get() const { return node_; }
    bool Shared() const {
      return node_->holders.load() > 1;
    }

   private:
    Node* node_ = nullptr;
  };

  // The chunk at `index`, made this store's own: materialized when null,
  // cloned when another store also holds it, else written in place.
  Chunk& Mutable(std::size_t index) {
    Ref& held = chunks_[index];
    if (held.get() == nullptr) {
      held = Ref(new Node());
    } else if (held.Shared()) {
      held = Ref(new Node(held.get()->chunk));
    }
    return held.get()->chunk;
  }

  std::vector<Ref> chunks_;
  Lba sectors_ = 0;
};

inline const SectorStore::Chunk SectorStore::kZeroChunk{};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_SECTOR_STORE_H_
