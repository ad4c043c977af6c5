// Wall-clock microbenchmarks (google-benchmark) for the library's hot
// paths: CRC, VAM run search, page-cache eviction, serialization, B-tree
// operations, the simulated disk, the redo log, the tracer's op scopes, and
// FSD operation throughput. These measure this codebase, not the paper's
// hardware.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/btree/btree.h"
#include "src/btree/mem_page_store.h"
#include "src/cache/page_cache.h"
#include "src/core/fsd.h"
#include "src/core/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/disk.h"
#include "src/util/bitmap.h"
#include "src/util/crc32.h"
#include "src/util/random.h"

namespace cedar {
namespace {

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(state.range(0), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(512)->Arg(4096)->Arg(65536);

// A small-file allocation on a VAM-shaped map (the default disk's 585,200
// sectors): the low 40,000 sectors of the data area are ~90% used, with
// the free space left in one- and two-sector holes, so a forward search
// for a leader plus two data pages crosses the whole used area before it
// reaches the untouched free region (the RunAllocator's small-file path).
void BM_BitmapFindRun(benchmark::State& state) {
  const std::uint32_t kSectors = 585200;
  const std::uint32_t kDataLow = 2000;
  const std::uint32_t kUsedEnd = kDataLow + 40000;
  Bitmap vam(kSectors, true);
  vam.SetRange(0, kUsedEnd, false);
  Rng rng(6);
  for (std::uint32_t i = kDataLow; i + 2 < kUsedEnd; i += 20) {
    vam.SetRange(i + static_cast<std::uint32_t>(rng.Below(17)),
                 static_cast<std::uint32_t>(rng.Between(1, 2)), true);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vam.FindRunForward(kDataLow, 3));
  }
}
BENCHMARK(BM_BitmapFindRun);

// Eviction under meta-1vol's cache shape: 512 frames, 190 of them dirty
// (waiting for a checkpoint) and drifting to the LRU end, and a stream of
// miss fills that each evict one clean frame. Every 16th fill an update
// re-dirties a dirty page, moving it back to the front.
void BM_PageCacheEvict(benchmark::State& state) {
  const std::uint32_t kFrames = 512;
  const std::uint32_t kDirty = 190;
  cache::PageCache cache(kFrames);
  const std::vector<std::uint8_t> page(512, 0x44);
  for (std::uint32_t key = 0; key < kFrames; ++key) {
    cache.Upsert(key, [&](cache::Frame& frame, bool) {
      frame.data = page;
      frame.dirty = key < kDirty;
    });
  }
  Rng rng(7);
  std::uint32_t next = kFrames;
  for (auto _ : state) {
    cache.InsertIfAbsent(next++, page);
    if (next % 16 == 0) {
      cache.Upsert(static_cast<std::uint32_t>(rng.Below(kDirty)),
                   [](cache::Frame& frame, bool) { frame.dirty = true; });
    }
  }
  state.counters["scan_steps_per_eviction"] =
      static_cast<double>(cache.eviction_scan_steps()) /
      static_cast<double>(std::max<std::uint64_t>(1, cache.evictions()));
}
BENCHMARK(BM_PageCacheEvict);

void BM_BTreeInsert(benchmark::State& state) {
  btree::MemPageStore store(512);
  btree::BTree tree(&store, 0);
  CEDAR_CHECK_OK(tree.Create());
  Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "file-" + std::to_string(i++ % 100000);
    CEDAR_CHECK_OK(tree.Insert(
        std::vector<std::uint8_t>(key.begin(), key.end()),
        std::vector<std::uint8_t>(40, 0x11)));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  btree::MemPageStore store(512);
  btree::BTree tree(&store, 0);
  CEDAR_CHECK_OK(tree.Create());
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "file-" + std::to_string(i);
    CEDAR_CHECK_OK(tree.Insert(
        std::vector<std::uint8_t>(key.begin(), key.end()),
        std::vector<std::uint8_t>(40, 0x11)));
  }
  Rng rng(2);
  for (auto _ : state) {
    const std::string key = "file-" + std::to_string(rng.Below(10000));
    benchmark::DoNotOptimize(
        tree.Lookup(std::vector<std::uint8_t>(key.begin(), key.end())));
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_SimDiskWrite(benchmark::State& state) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);
  std::vector<std::uint8_t> buf(state.range(0) * 512, 0x77);
  Rng rng(3);
  for (auto _ : state) {
    const auto lba = static_cast<sim::Lba>(
        rng.Below(disk.geometry().TotalSectors() - state.range(0)));
    CEDAR_CHECK_OK(disk.Write(lba, buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 512);
}
BENCHMARK(BM_SimDiskWrite)->Arg(1)->Arg(8)->Arg(64);

void BM_LogAppend(benchmark::State& state) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);
  obs::MetricsRegistry metrics;
  core::FsdLog log(&disk, 1000, 4000, &metrics);
  CEDAR_CHECK_OK(log.Format(1));
  std::vector<core::PageImage> pages(state.range(0));
  for (std::size_t i = 0; i < pages.size(); ++i) {
    pages[i].primary = static_cast<sim::Lba>(100000 + i);
    pages[i].data.assign(512, 0x22);
  }
  for (auto _ : state) {
    CEDAR_CHECK_OK(
        log.AppendGroup(pages, [](std::uint64_t) { return OkStatus(); })
            .status());
  }
}
BENCHMARK(BM_LogAppend)->Arg(1)->Arg(14)->Arg(52);

void BM_FsdCreateSmall(benchmark::State& state) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, core::FsdConfig{});
  CEDAR_CHECK_OK(fsd.Format());
  std::vector<std::uint8_t> contents(1000, 0x33);
  std::uint64_t i = 0;
  for (auto _ : state) {
    CEDAR_CHECK_OK(
        fsd.CreateFile("bench/f" + std::to_string(i++), contents).status());
    if (i % 64 == 0) {
      state.PauseTiming();
      clock.Advance(600 * sim::kMillisecond);
      CEDAR_CHECK_OK(fsd.Tick());
      if (i % 2048 == 0) {
        // Recycle the namespace so the name table never fills.
        for (std::uint64_t j = i - 2048; j < i; ++j) {
          CEDAR_CHECK_OK(fsd.DeleteFile("bench/f" + std::to_string(j)));
        }
        CEDAR_CHECK_OK(fsd.Force());
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_FsdCreateSmall);

void BM_FsdOpenWarm(benchmark::State& state) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, core::FsdConfig{});
  CEDAR_CHECK_OK(fsd.Format());
  std::vector<std::uint8_t> contents(1000, 0x33);
  for (int i = 0; i < 500; ++i) {
    CEDAR_CHECK_OK(
        fsd.CreateFile("bench/f" + std::to_string(i), contents).status());
  }
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fsd.Open("bench/f" + std::to_string(rng.Below(500))));
  }
}
BENCHMARK(BM_FsdOpenWarm);

// One FS op's attribution as a traced run pays it: an outermost scope and a
// nested one (a public op and its log force), then one disk request
// recorded under them. The scopes are entered from an empty stack each
// time, like every FS op. Threads(2) runs two clients on one tracer.
void BM_TracerScope(benchmark::State& state) {
  static obs::DiskTracer tracer;
  for (auto _ : state) {
    obs::ScopedOp op(&tracer, "fsd.create");
    obs::ScopedOp inner(&tracer, "fsd.log_force");
    tracer.Record(1000, 8, obs::DiskOpKind::kWrite, 0, 10, 20, 30, 40);
  }
}
BENCHMARK(BM_TracerScope)->Threads(1)->Threads(2);

}  // namespace
}  // namespace cedar

// Expanded BENCHMARK_MAIN() with a --smoke flag: CI runs every benchmark
// for a hundredth of a second just to prove the hot paths still work.
int main(int argc, char** argv) {
  cedar::bench::CheckFlags(argc, argv, {{"--smoke"}}, {"--benchmark_"});
  std::vector<char*> args(argv, argv + argc);
  char min_time[] = "--benchmark_min_time=0.01";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.erase(args.begin() + i);
      args.push_back(min_time);
      break;
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
