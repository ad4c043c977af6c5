#include "perfbench/script.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/util/check.h"
#include "src/util/random.h"
#include "src/workload/zipf.h"

namespace perfbench {
namespace {

using cedar::Rng;

std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Weights, in OpKind order: create, setkeep, openread, write, delete,
// touch, list, stat, rename, force.
std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The paper's configuration: one volume, one spindle, one client, inline
  // half-second group commit. The name table (~2.5k slots, ~4.6k versions,
  // ~1.5k pages) is about three times the 512-frame cache, so Zipf-tail
  // lookups miss and the inline FlushThird path runs on every log third.
  WorkloadSpec meta;
  meta.name = "meta-1vol";
  meta.why =
      "paper configuration: 1 volume, 1 client, inline group commit, Zipf "
      "metadata mix on a name table larger than the cache";
  meta.geometry.cylinders = 256;
  meta.fsd.cache_frames = 512;
  meta.tenants = 1;
  meta.dirs_per_tenant = 80;
  meta.slots_per_dir = 32;
  meta.zipf_s = 0.9;
  meta.mix = {24, 0, 24, 10, 10, 14, 3, 5, 6, 0};
  meta.force_share = 0.03;
  meta.ops_per_second = 25000;
  meta.warmup_share = 0.8;
  all.push_back(meta);

  // Eight single-spindle volumes behind the router, one client, a
  // multi-tenant mix with a high rename share; a slot and its rename
  // partner hash to different volumes 7 times in 8, so most renames run
  // the router's two-step with its two dedicated forces. The working set
  // fits every volume's cache.
  WorkloadSpec xvol;
  xvol.name = "xvol-8vol";
  xvol.why =
      "8 volumes behind VolumeRouter, rename-heavy multi-tenant mix: the "
      "cross-volume two-step and its dedicated forces dominate";
  xvol.volumes = 8;
  xvol.geometry.cylinders = 48;
  xvol.fsd.log_sectors = 800;
  xvol.fsd.nt_pages = 512;
  xvol.fsd.cache_frames = 1024;
  xvol.tenants = 8;
  xvol.dirs_per_tenant = 8;
  xvol.slots_per_dir = 32;
  xvol.zipf_s = 0.7;
  xvol.mix = {16, 0, 20, 8, 8, 12, 3, 5, 26, 0};
  xvol.force_share = 0.03;
  xvol.ops_per_second = 50000;
  all.push_back(xvol);

  // Large files in the big-file area on a 4-spindle stripe: written,
  // read back sequentially and deleted, with few metadata ops. Transfer-
  // bound rather than seek-bound.
  WorkloadSpec bulk;
  bulk.name = "bulk-stripe4";
  bulk.why =
      "1 volume on a 4-spindle striped array: large files written, read "
      "back sequentially and deleted; allocator, data path and striping";
  bulk.spindles = 4;
  bulk.geometry.cylinders = 96;
  bulk.fsd.log_sectors = 800;
  bulk.fsd.nt_pages = 512;
  bulk.fsd.cache_frames = 1024;
  bulk.tenants = 1;
  bulk.dirs_per_tenant = 2;
  bulk.slots_per_dir = 32;
  bulk.zipf_s = 0.8;
  bulk.min_size = 64 * 1024;
  bulk.max_size = 256 * 1024;
  bulk.read_limit = 0;
  bulk.read_chunk = 32 * 1024;
  bulk.mix = {28, 0, 34, 6, 20, 3, 3, 3, 3, 0};
  bulk.force_share = 0.25;
  bulk.ops_per_second = 6000;
  all.push_back(bulk);

  // The concurrent commit path: the commit daemon on and three client
  // threads on disjoint tenants (one thread fewer than a 4-core host).
  // Clients take turns running FSD calls, like processes on the one
  // simulated CPU the virtual clock models, but wait for durability
  // concurrently, so their Force() calls rendezvous on the CommitQueue and
  // piggyback on each other's log writes. Checkpoint rounds are driven by
  // the clients' own Checkpoint() calls rather than by the checkpoint
  // daemon: the daemon's disk writes land inside whichever client calls
  // the host happens to be running, which made the latency percentiles
  // of this workload vary by 10-25% between runs of the same seed.
  WorkloadSpec conc;
  conc.name = "meta-3client";
  conc.why =
      "3 client threads with the commit daemon: concurrent Force() calls "
      "piggyback on the CommitQueue; client-driven CheckpointBatch rounds";
  conc.clients = 3;
  conc.geometry.cylinders = 256;
  conc.fsd.cache_frames = 2048;
  conc.fsd.commit.daemon = true;
  conc.tenants = 3;
  conc.dirs_per_tenant = 32;
  conc.slots_per_dir = 32;
  conc.zipf_s = 0.9;
  conc.mix = {24, 0, 24, 10, 10, 14, 3, 5, 6, 0};
  conc.force_share = 0.03;
  conc.ops_per_second = 10000;
  conc.warmup_share = 1.0;
  conc.checkpoint_every = 512;
  all.push_back(conc);
  return all;
}

struct Version {
  std::uint32_t version = 0;
  std::uint32_t size = 0;
  std::uint64_t content = 0;
};

struct NameState {
  std::vector<Version> versions;  // oldest first
  std::uint16_t keep = 0;
  std::uint64_t last_change = 0;
};

// Builds one client's script against a shadow model of its tenants.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::size_t names,
            const std::vector<std::vector<std::uint32_t>>& dir_order,
            std::uint64_t seed, std::uint32_t client, ClientScript* out)
      : spec_(spec),
        dir_order_(dir_order),
        rng_(Mix64(seed * 0x9E3779B97F4A7C15ull + client + 1)),
        zipf_(spec.dirs_per_tenant * spec.slots_per_dir, spec.zipf_s),
        client_(client),
        out_(out),
        model_(names),
        weight_total_(std::accumulate(spec.mix.begin(), spec.mix.end(),
                                      std::uint64_t{0})) {
    CEDAR_CHECK(weight_total_ > 0);
    // Popularity ranks map to slots through a seeded permutation, so the
    // hot files are spread over directories instead of packed into d0.
    perm_.resize(zipf_.n());
    std::iota(perm_.begin(), perm_.end(), 0u);
    for (std::size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng_.Below(i)]);
    }
  }

  void Run(std::uint64_t total_ops) {
    Populate();
    current_ = &out_->ops;
    for (std::uint64_t i = 0; out_->ops.size() < total_ops; ++i) {
      const std::uint32_t tenant =
          out_->tenant_first + static_cast<std::uint32_t>(i % out_->tenant_count);
      const std::uint32_t slot = perm_[zipf_.Sample(rng_)];
      if (Step(DrawKind(), tenant, slot) &&
          rng_.Chance(spec_.force_share)) {
        Op op;
        op.kind = OpKind::kForce;
        Emit(op);
        out_->last_force = out_->ops.size();
      }
    }
    out_->ops.resize(total_ops);
    if (out_->last_force > total_ops) {
      // The trailing Force was cut off with the tail; find the last kept.
      out_->last_force = 0;
      for (std::size_t i = out_->ops.size(); i > 0; --i) {
        if (out_->ops[i - 1].kind == OpKind::kForce) {
          out_->last_force = i;
          break;
        }
      }
    }
    for (std::uint32_t t = 0; t < out_->tenant_count; ++t) {
      for (std::uint32_t s = 0; s < Slots(); ++s) {
        for (std::uint32_t variant = 0; variant < 2; ++variant) {
          const std::uint32_t n = NameOf(out_->tenant_first + t, s, variant);
          const NameState& st = model_[n];
          FinalState fin;
          fin.name = n;
          fin.exists = !st.versions.empty();
          if (fin.exists) {
            fin.version = st.versions.back().version;
            fin.size = st.versions.back().size;
            fin.content = st.versions.back().content;
          }
          fin.last_change = st.last_change;
          out_->final_states.push_back(fin);
        }
      }
    }
  }

 private:
  // Every op on a slot draws its kind from the same mix, so every slot's
  // version count follows the same Markov chain, only at its own rate; the
  // name table's steady state is every slot in that chain's stationary
  // state. Populate starts there: each slot runs kBurnInDraws mix draws in
  // the model alone, then the set-up creates the versions each name ended
  // with (renumbered from 1). The measured phase then starts with the name
  // table at its plateau instead of growing into it.
  static constexpr int kBurnInDraws = 32;

  void Populate() {
    std::vector<Op> discard;
    current_ = &discard;
    for (std::uint32_t t = 0; t < out_->tenant_count; ++t) {
      for (std::uint32_t s = 0; s < Slots(); ++s) {
        Create(NameOf(out_->tenant_first + t, s, 0));
        for (int i = 0; i < kBurnInDraws; ++i) {
          const OpKind kind = DrawKind();
          if (kind == OpKind::kCreate || kind == OpKind::kWrite ||
              kind == OpKind::kDelete || kind == OpKind::kRename) {
            Step(kind, out_->tenant_first + t, s);
          }
        }
      }
    }
    current_ = &out_->populate;
    for (std::uint32_t t = 0; t < out_->tenant_count; ++t) {
      for (std::uint32_t s = 0; s < Slots(); ++s) {
        for (std::uint32_t variant = 0; variant < 2; ++variant) {
          const std::uint32_t n = NameOf(out_->tenant_first + t, s, variant);
          const std::size_t versions = model_[n].versions.size();
          model_[n] = NameState{};
          for (std::size_t v = 0; v < versions; ++v) {
            Create(n);
          }
        }
      }
    }
  }

  OpKind DrawKind() {
    std::uint64_t draw = rng_.Below(weight_total_);
    std::size_t kind = 0;
    while (draw >= spec_.mix[kind]) {
      draw -= spec_.mix[kind];
      ++kind;
    }
    return static_cast<OpKind>(kind);
  }

  std::uint32_t Slots() const {
    return spec_.dirs_per_tenant * spec_.slots_per_dir;
  }
  std::uint32_t NameOf(std::uint32_t tenant, std::uint32_t slot,
                       std::uint32_t variant) const {
    return (tenant * spec_.dirs_per_tenant * spec_.slots_per_dir + slot) * 2 +
           variant;
  }
  bool Exists(std::uint32_t n) const { return !model_[n].versions.empty(); }

  void Emit(const Op& op) { current_->push_back(op); }
  void Touched(std::uint32_t n) {
    // Changes made while populating are durable before measuring starts.
    model_[n].last_change =
        current_ == &out_->ops ? out_->ops.size() : 0;
  }

  std::uint64_t NextContent() {
    return Mix64((std::uint64_t{client_} << 48) ^ ++content_counter_ ^
                 (rng_.Next() << 20));
  }
  std::uint32_t NextSize() {
    return static_cast<std::uint32_t>(
        rng_.Between(spec_.min_size, spec_.max_size));
  }

  // Returns true when the step emitted an update (a Force may follow).
  bool Step(OpKind kind, std::uint32_t tenant, std::uint32_t slot) {
    const std::uint32_t a = NameOf(tenant, slot, 0);
    const std::uint32_t b = NameOf(tenant, slot, 1);
    const std::uint32_t target = Exists(a) ? a : Exists(b) ? b : a;
    switch (kind) {
      case OpKind::kCreate:
        Create(target);
        return true;
      case OpKind::kWrite:
        if (Exists(target)) {
          Write(target);
        } else {
          Create(target);
        }
        return true;
      case OpKind::kDelete:
        if (Exists(target)) {
          Delete(target);
        } else {
          Create(target);
        }
        return true;
      case OpKind::kRename:
        if (Exists(a) && !Exists(b)) {
          Rename(a, b);
        } else if (Exists(b) && !Exists(a)) {
          Rename(b, a);
        } else if (Exists(b)) {
          Delete(b);
        } else {
          Create(a);
        }
        return true;
      case OpKind::kTouch: {
        Op op;
        op.kind = OpKind::kTouch;
        op.name = target;
        op.expect_found = Exists(target);
        Emit(op);
        return op.expect_found;
      }
      case OpKind::kOpenRead:
      case OpKind::kStat: {
        Op op;
        op.kind = kind;
        op.name = target;
        op.expect_found = Exists(target);
        if (op.expect_found) {
          const Version& v = model_[target].versions.back();
          op.version = v.version;
          op.size = v.size;
          op.content = v.content;
        }
        Emit(op);
        return false;
      }
      case OpKind::kList: {
        const std::uint32_t dir =
            tenant * spec_.dirs_per_tenant + slot / spec_.slots_per_dir;
        ExpectedList list;
        list.prefix = dir;
        for (std::uint32_t n : dir_order_[dir]) {
          for (const Version& v : model_[n].versions) {
            list.entries.push_back(ListEntry{n, v.version, v.size});
          }
        }
        Op op;
        op.kind = OpKind::kList;
        op.list = static_cast<std::uint32_t>(out_->lists.size());
        out_->lists.push_back(std::move(list));
        Emit(op);
        return false;
      }
      case OpKind::kSetKeep:
      case OpKind::kForce:
        break;
    }
    CEDAR_CHECK(false);
    return false;
  }

  void Create(std::uint32_t n) {
    NameState& st = model_[n];
    const bool fresh = st.versions.empty();
    Op op;
    op.kind = OpKind::kCreate;
    op.name = n;
    op.size = NextSize();
    op.content = NextContent();
    st.versions.push_back(Version{
        fresh ? 1u : st.versions.back().version + 1, op.size, op.content});
    Emit(op);
    if (fresh) {
      // A fresh name starts with keep 0 (unlimited); bound it at once, as
      // a Cedar client setting its retention would.
      Op keep;
      keep.kind = OpKind::kSetKeep;
      keep.name = n;
      keep.keep = spec_.keep;
      Emit(keep);
      st.keep = spec_.keep;
    } else if (st.keep > 0 && st.versions.size() > st.keep) {
      st.versions.erase(st.versions.begin(),
                        st.versions.end() - st.keep);
    }
    Touched(n);
  }

  void Write(std::uint32_t n) {
    Version& v = model_[n].versions.back();
    Op op;
    op.kind = OpKind::kWrite;
    op.name = n;
    op.size = v.size;
    op.content = NextContent();
    v.content = op.content;
    Emit(op);
    Touched(n);
  }

  void Delete(std::uint32_t n) {
    NameState& st = model_[n];
    Op op;
    op.kind = OpKind::kDelete;
    op.name = n;
    st.versions.pop_back();
    if (st.versions.empty()) {
      st.keep = 0;
    }
    Emit(op);
    Touched(n);
  }

  void Rename(std::uint32_t from, std::uint32_t to) {
    NameState& src = model_[from];
    NameState& dst = model_[to];
    Op op;
    op.kind = OpKind::kRename;
    op.name = from;
    op.name2 = to;
    const Version moved = src.versions.back();
    dst.versions = {Version{1, moved.size, moved.content}};
    dst.keep = src.keep;
    src.versions.pop_back();
    if (src.versions.empty()) {
      src.keep = 0;
    }
    Emit(op);
    Touched(from);
    Touched(to);
  }

  const WorkloadSpec& spec_;
  const std::vector<std::vector<std::uint32_t>>& dir_order_;
  Rng rng_;
  cedar::workload::ZipfSampler zipf_;
  std::uint32_t client_;
  ClientScript* out_;
  std::vector<NameState> model_;
  std::uint64_t weight_total_;
  std::vector<std::uint32_t> perm_;
  std::vector<Op>* current_ = nullptr;
  std::uint64_t content_counter_ = 0;
};

}  // namespace

const char* OpKindName(OpKind kind) {
  static constexpr const char* kNames[kOpKinds] = {
      "create", "setkeep", "openread", "write", "delete",
      "touch",  "list",    "stat",     "rename", "force"};
  return kNames[static_cast<std::size_t>(kind)];
}

OpFamily FamilyOf(OpKind kind) {
  switch (kind) {
    case OpKind::kOpenRead:
    case OpKind::kList:
    case OpKind::kStat:
      return OpFamily::kRead;
    case OpKind::kForce:
      return OpFamily::kDurable;
    default:
      return OpFamily::kUpdate;
  }
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

void GenerateScripts(const WorkloadSpec& spec, std::uint64_t seed,
                     std::uint64_t measured_ops, Namespace* ns,
                     std::vector<ClientScript>* clients) {
  const std::uint32_t dirs = spec.tenants * spec.dirs_per_tenant;
  ns->names.clear();
  ns->prefixes.clear();
  std::vector<std::vector<std::uint32_t>> dir_order(dirs);
  for (std::uint32_t t = 0; t < spec.tenants; ++t) {
    for (std::uint32_t d = 0; d < spec.dirs_per_tenant; ++d) {
      const std::string prefix =
          "t" + std::to_string(t) + "/d" + std::to_string(d) + "/";
      ns->prefixes.push_back(prefix);
      for (std::uint32_t s = 0; s < spec.slots_per_dir; ++s) {
        const std::string base = prefix + "f" + std::to_string(s);
        dir_order[t * spec.dirs_per_tenant + d].push_back(
            static_cast<std::uint32_t>(ns->names.size()));
        ns->names.push_back(base);
        dir_order[t * spec.dirs_per_tenant + d].push_back(
            static_cast<std::uint32_t>(ns->names.size()));
        ns->names.push_back(base + ".mv");
      }
    }
  }
  // List returns names in byte order; the model lists them the same way.
  for (auto& order : dir_order) {
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return ns->names[x] < ns->names[y];
              });
  }
  CEDAR_CHECK(spec.tenants % spec.clients == 0);
  const std::uint32_t per_client = spec.tenants / spec.clients;
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      static_cast<double>(measured_ops) * spec.warmup_share);
  clients->assign(spec.clients, ClientScript{});
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    ClientScript& script = (*clients)[c];
    script.tenant_first = c * per_client;
    script.tenant_count = per_client;
    script.warmup = warmup;
    Generator(spec, ns->names.size(), dir_order, seed, c, &script)
        .Run(warmup + measured_ops);
  }
}

void FillContent(std::uint64_t content, std::uint64_t offset,
                 std::span<std::uint8_t> out) {
  // Word w of the content is Mix64(content + w); the bytes at any offset
  // can be regenerated without the rest of the file.
  std::uint64_t word_index = offset / 8;
  std::size_t skip = offset % 8;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t word =
        Mix64(content + word_index * 0x9E3779B97F4A7C15ull);
    std::uint8_t bytes[8];
    std::memcpy(bytes, &word, 8);
    const std::size_t n = std::min<std::size_t>(8 - skip, out.size() - pos);
    std::memcpy(out.data() + pos, bytes + skip, n);
    pos += n;
    skip = 0;
    ++word_index;
  }
}

}  // namespace perfbench
