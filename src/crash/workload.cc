#include "src/crash/workload.h"

#include <algorithm>

#include "src/util/check.h"

namespace cedar::crash {

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 131 + (i >> 8));
  }
  return out;
}

std::vector<Step> StandardWorkload() {
  using K = Step::Kind;
  std::vector<Step> steps;
  auto add = [&](K kind, std::string name) -> Step& {
    Step step;
    step.kind = kind;
    step.name = std::move(name);
    steps.push_back(std::move(step));
    return steps.back();
  };
  auto create = [&](std::string name, std::size_t bytes, std::uint8_t seed) {
    add(K::kCreate, std::move(name)).data = Pattern(bytes, seed);
  };
  auto overwrite = [&](std::string name, std::uint64_t offset,
                       std::size_t bytes, std::uint8_t seed) {
    Step& step = add(K::kOverwrite, std::move(name));
    step.offset = offset;
    step.data = Pattern(bytes, seed);
  };

  create("alpha", 1800, 3);
  create("beta", 700, 7);
  add(K::kForce, "");
  overwrite("alpha", 600, 900, 11);  // straddles sector boundaries -> RMW
  create("gamma", 300, 13);
  add(K::kForce, "");
  // Cedar "rename"/replace: version v+1 of beta with keep=1 prunes v1.
  add(K::kSetKeep, "beta").keep = 1;
  create("beta", 1200, 17);
  add(K::kForce, "");
  add(K::kDelete, "gamma");
  create("delta", 3000, 19);
  add(K::kForce, "");
  overwrite("beta", 0, 512, 23);
  add(K::kTouch, "delta");
  add(K::kForce, "");
  add(K::kDelete, "alpha");
  create("epsilon", 2200, 29);
  add(K::kForce, "");
  // Widen the name table to several B-tree pages and keep forcing so the
  // log crosses a third mid-workload: third entry then issues a real
  // IoScheduler home-flush batch, whose scattered dirty pages give the
  // reorder enumerator multi-write batches to cut (an orderly Shutdown
  // alone tends to produce one coalesced write per copy).
  for (int i = 0; i < 20; ++i) {
    create("mid/f" + std::to_string(i), 400 + 130 * static_cast<std::size_t>(i),
           static_cast<std::uint8_t>(31 + 2 * i));
    if (i % 3 == 2) {
      add(K::kForce, "");
    }
  }
  add(K::kDelete, "mid/f4");
  add(K::kDelete, "mid/f9");
  overwrite("mid/f1", 0, 300, 57);
  add(K::kForce, "");
  // Touch files far apart in the name order so non-adjacent tree pages go
  // dirty between consecutive flushes.
  overwrite("beta", 550, 400, 59);
  overwrite("mid/f11", 100, 800, 61);
  add(K::kDelete, "mid/f0");
  add(K::kForce, "");
  create("omega", 1700, 63);
  add(K::kForce, "");
  // A mid-workload synchronous checkpoint: its home-write batches and the
  // later pointer-advance write are crash points the enumerator must cut
  // inside (the pointer must never surface without the home writes).
  add(K::kCheckpoint, "");
  // Push the log past its first third: the third entry fired here issues the
  // mid-workload IoScheduler batch the reorder enumerator needs.
  overwrite("mid/f7", 200, 600, 65);
  create("aa/head", 900, 67);
  add(K::kForce, "");
  overwrite("omega", 0, 450, 69);
  add(K::kDelete, "mid/f2");
  add(K::kForce, "");
  // Dirty name-distant files after that flush so the dirty page set at
  // Shutdown has gaps -> multiple non-adjacent writes per home-flush batch.
  overwrite("aa/head", 128, 256, 71);
  overwrite("mid/f11", 0, 128, 73);
  create("zz/tail", 640, 75);
  add(K::kForce, "");
  // Churn name-table metadata until the log wraps back into its first
  // third: third entry only has victim pages once the third being entered
  // holds logged images, so the wrap is what produces the mid-workload
  // IoScheduler home-flush batches the reorder enumerator cuts. Pure data
  // overwrites would not do — Force() with no dirtied metadata logs
  // nothing — so churn with create/delete pairs, forcing after each.
  // Touch targets skip the mid files deleted above (f0/f2/f4/f9).
  static const int kTouchTargets[] = {1, 3, 5, 7, 11, 13, 15, 17};
  for (int i = 0; i < 36; ++i) {
    // Spread the churn keys across the whole name order (and hence across
    // different B-tree leaves) so successive flushes see scattered,
    // non-adjacent victim pages.
    static const char* kChurnNames[] = {"ba/c0", "na/c1", "ra/c2",
                                        "da/c3", "ta/c4", "ha/c5"};
    const std::string name = kChurnNames[i % 6];
    create(name, 420 + 60 * static_cast<std::size_t>(i % 4),
           static_cast<std::uint8_t>(80 + i));
    add(K::kForce, "");
    if (i % 4 == 3) {
      add(K::kTouch, "mid/f" + std::to_string(kTouchTargets[(i / 4) % 8]));
    }
    add(K::kDelete, name);
    add(K::kForce, "");
    if (i == 5 || i == 11) {
      // Checkpoints early in the churn only: the pointer advances while
      // later forces keep appending, so cuts land between a checkpoint's
      // home writes, its pointer write, and the next append.
      add(K::kCheckpoint, "");
    }
    if (i == 12) {
      // Cold pages logged right AFTER the last checkpoint, in name regions
      // the rest of the churn never touches: their logged images are never
      // refreshed or retired, so when the log wraps back into their third
      // a lap later, third entry finds real victims — keeping that caller
      // of the checkpoint (and its mid-workload home-flush batches)
      // covered alongside Checkpoint().
      create("qa/cold0", 520, 121);
      create("ya/cold1", 480, 123);
      add(K::kForce, "");
    }
  }

  // Free-page phase. Deleting every name in a leaf makes the B-tree free
  // the leaf's page while the parent's logged image (and maybe its home
  // copy) still points at it. The freed page's newest logged image must
  // reach home before the record holding it is dropped, or a crash brings
  // the deleted names back or breaks the tree. Cut inside both droppers:
  // a Checkpoint() and a third entry.
  constexpr int kLeafNames = 16;  // enough to fill whole leaves
  auto fill_leaf = [&](const std::string& prefix, std::uint8_t seed) {
    for (int i = 0; i < kLeafNames; ++i) {
      create(prefix + std::to_string(10 + i), 200,
             static_cast<std::uint8_t>(seed + i));
    }
    add(K::kForce, "");
  };
  auto empty_leaf = [&](const std::string& prefix) {
    for (int i = 0; i < kLeafNames; ++i) {
      add(K::kDelete, prefix + std::to_string(10 + i));
    }
  };
  fill_leaf("fp/", 141);
  // A later record, so the checkpoint may drop the one holding the leaf.
  add(K::kTouch, "omega");
  add(K::kForce, "");
  empty_leaf("fp/");
  add(K::kCheckpoint, "");
  add(K::kForce, "");
  // Log the leaf again, run the log on without touching it or its parent
  // until it is one force short of re-entering the third holding that
  // record, then empty the leaf: the next force enters that third. The
  // touch count puts that force on the third boundary in both recovery
  // modes (VAM logging shifts record offsets); crash_harness_test pins it.
  constexpr int kThirdEntryTouches = 42;
  fill_leaf("fq/", 161);
  for (int i = 0; i < kThirdEntryTouches; ++i) {
    add(K::kTouch, "mid/f" + std::to_string(kTouchTargets[i % 8]));
    add(K::kForce, "");
  }
  empty_leaf("fq/");
  add(K::kForce, "");
  add(K::kShutdown, "");
  return steps;
}

Status ExecuteStep(fs::FileSystem* fs, const Step& step) {
  switch (step.kind) {
    case Step::Kind::kCreate:
      return fs->CreateFile(step.name, step.data).status();
    case Step::Kind::kSetKeep:
      return fs->SetKeep(step.name, step.keep);
    case Step::Kind::kOverwrite: {
      CEDAR_ASSIGN_OR_RETURN(fs::FileHandle handle, fs->Open(step.name));
      CEDAR_RETURN_IF_ERROR(fs->Write(handle, step.offset, step.data));
      return fs->Close(handle);
    }
    case Step::Kind::kDelete:
      return fs->DeleteFile(step.name);
    case Step::Kind::kTouch:
      return fs->Touch(step.name);
    case Step::Kind::kForce:
      return fs->Force();
    case Step::Kind::kCheckpoint:
      return fs->Checkpoint();
    case Step::Kind::kShutdown:
      return fs->Shutdown();
  }
  return MakeError(ErrorCode::kInvalidArgument, "unknown step kind");
}

void FileModel::Apply(const Step& step) {
  switch (step.kind) {
    case Step::Kind::kCreate:
      files[step.name] = step.data;
      break;
    case Step::Kind::kOverwrite: {
      auto it = files.find(step.name);
      CEDAR_CHECK(it != files.end());
      CEDAR_CHECK(step.offset + step.data.size() <= it->second.size());
      std::copy(step.data.begin(), step.data.end(),
                it->second.begin() + static_cast<std::ptrdiff_t>(step.offset));
      break;
    }
    case Step::Kind::kDelete:
      files.erase(step.name);
      break;
    default:
      break;  // keep/touch/force/shutdown do not change contents
  }
}

}  // namespace cedar::crash
