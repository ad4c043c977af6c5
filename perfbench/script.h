// Workload definitions and the script generator.
//
// Every input a run feeds the file system is generated from --seed before
// anything is timed: a script of fully resolved operations per client, each
// carrying the outcome a shadow model of the namespace predicts (which
// version a read must see, its size and content id, the exact List result,
// or kNotFound). The executor only replays the script and compares, so a
// run's virtual-time results are a function of (workload, seed, op count).
//
// File contents are never stored: a payload is identified by a 64-bit
// content id and its bytes are regenerated on demand by FillContent, both
// to write them and to check what a read returned.

#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/geometry.h"

namespace perfbench {

namespace core = cedar::core;
namespace sim = cedar::sim;

enum class OpKind : std::uint8_t {
  kCreate,
  kSetKeep,
  kOpenRead,
  kWrite,
  kDelete,
  kTouch,
  kList,
  kStat,
  kRename,
  kForce,
};
inline constexpr std::size_t kOpKinds = 10;

const char* OpKindName(OpKind kind);

// Which end-to-end latency family a call's sample feeds.
enum class OpFamily : std::uint8_t { kUpdate, kRead, kDurable };
OpFamily FamilyOf(OpKind kind);

struct Op {
  OpKind kind = OpKind::kTouch;
  bool expect_found = true;  // false: the model predicts kNotFound
  std::uint16_t keep = 0;    // SetKeep argument
  std::uint32_t name = 0;    // index into Namespace::names
  std::uint32_t name2 = 0;   // Rename destination
  std::uint32_t size = 0;    // create/write payload; read/stat: byte_size
  std::uint32_t version = 0;  // read/stat: expected highest version
  std::uint32_t list = 0;    // List: index into ClientScript::lists
  std::uint64_t content = 0;  // create/write payload id; read: expected id
};

struct ListEntry {
  std::uint32_t name = 0;
  std::uint32_t version = 0;
  std::uint32_t size = 0;
};

struct ExpectedList {
  std::uint32_t prefix = 0;  // index into Namespace::prefixes
  std::vector<ListEntry> entries;  // sorted by (name string, version)
};

// What the durability oracle checks after the crash: the final model state
// of every name the client owns, and the script index of its last content
// change. Names whose last change precedes the client's last completed
// Force() must survive the crash exactly.
struct FinalState {
  std::uint32_t name = 0;
  bool exists = false;
  std::uint32_t version = 0;
  std::uint32_t size = 0;
  std::uint64_t content = 0;
  std::uint64_t last_change = 0;  // 1 + op index in `ops`; 0 = populate
};

struct ClientScript {
  std::uint32_t tenant_first = 0;   // tenants this client works on
  std::uint32_t tenant_count = 0;
  std::vector<Op> populate;         // set-up: the names' steady state
  std::vector<Op> ops;              // warm-up followed by the measured ops
  std::size_t warmup = 0;           // leading ops excluded from metrics
  std::vector<ExpectedList> lists;
  std::vector<FinalState> final_states;
  std::uint64_t last_force = 0;     // 1 + index of the last Force op
};

struct Namespace {
  std::vector<std::string> names;
  std::vector<std::string> prefixes;
};

// One workload: topology, FSD configuration, namespace shape, and mix.
struct WorkloadSpec {
  std::string name;
  std::string why;
  // Topology.
  std::uint32_t volumes = 1;
  std::uint32_t spindles = 1;  // >1: striped DiskArray per volume
  std::uint32_t chunk_sectors = 8;
  std::uint32_t clients = 1;   // >1: free-running threads, daemons on
  sim::DiskGeometry geometry;  // per spindle
  core::FsdConfig fsd;
  // Namespace: tenants x dirs x slots; every slot has a primary name and a
  // rename partner (".mv"), so renames always target a name the model
  // knows to be absent.
  std::uint32_t tenants = 1;
  std::uint32_t dirs_per_tenant = 1;
  std::uint32_t slots_per_dir = 32;
  double zipf_s = 1.0;
  std::uint32_t min_size = 64;
  std::uint32_t max_size = 4096;
  std::uint32_t read_limit = 4096;  // 0: read the whole file
  std::uint32_t read_chunk = 4096;  // bytes per Read call
  std::uint16_t keep = 2;
  // Relative weights of the drawn op kinds (SetKeep and Force are never
  // drawn: SetKeep follows every create of an absent name, Force follows
  // `force_share` of the updates).
  std::array<std::uint32_t, kOpKinds> mix{};
  double force_share = 0.03;
  // Script length: measured ops per client per second of --seconds, and
  // the warm-up share run before measuring.
  std::uint32_t ops_per_second = 10000;
  double warmup_share = 0.1;
  std::uint32_t tick_every = 64;     // clients call Tick() every N ops
  // Every N ops per client (0 = never) the clients pause at a barrier and
  // one calls Checkpoint(): a client-driven Fsd::CheckpointBatch round.
  std::uint32_t checkpoint_every = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Generates the namespace and one script per client. `measured_ops` is per
// client; the warm-up is added on top.
void GenerateScripts(const WorkloadSpec& spec, std::uint64_t seed,
                     std::uint64_t measured_ops, Namespace* ns,
                     std::vector<ClientScript>* clients);

// Deterministic file contents for a content id.
void FillContent(std::uint64_t content, std::uint64_t offset,
                 std::span<std::uint8_t> out);

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
