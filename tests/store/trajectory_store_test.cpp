// TrajectoryStore: byte-exact time travel over real simulation runs.
//
// The central property, proven here over randomized trajectories: for EVERY
// stored step, load_step() returns a checkpoint whose serialisation is
// byte-identical to the snapshot the live run produced at that step — across
// kernels, precisions, strides and keyframe intervals.  Plus the corruption
// story (any single flipped bit on disk fails restoration loudly), ring
// eviction, reopen, and the pure-observer guarantee (a store-enabled run is
// bitwise identical to a store-disabled one).
#include "md/trajectory_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/random.h"
#include "md/simulation.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

class TrajectoryStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("store_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  TrajectoryStoreOptions store_options(int keyframe_interval,
                                       std::uint64_t max_bytes = 0) {
    TrajectoryStoreOptions options;
    options.directory = dir_;
    options.keyframe_interval = keyframe_interval;
    options.max_bytes = max_bytes;
    return options;
  }

  std::string dir_;
};

std::string serialized(const Checkpoint& cp) {
  std::ostringstream out;
  save_checkpoint(out, cp);
  return out.str();
}

/// Run `steps` steps, appending a snapshot every `stride` steps (plus step 0
/// and the end) and capturing the live snapshot's serialisation for each.
std::map<long, std::string> record_run(Simulation& sim, TrajectoryStore& store,
                                       int steps, int stride) {
  std::map<long, std::string> live;
  store.append(sim.snapshot());
  live[sim.current_step()] = serialized(sim.snapshot());
  for (int s = 1; s <= steps; ++s) {
    sim.step();
    if (s % stride == 0 || s == steps) {
      if (!store.has_step(sim.current_step())) {
        store.append(sim.snapshot());
        live[sim.current_step()] = serialized(sim.snapshot());
      }
    }
  }
  return live;
}

TEST_F(TrajectoryStoreTest, EveryStoredStepRestoresByteExact) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  Simulation sim(options);

  TrajectoryStore store(store_options(3));
  const auto live = record_run(sim, store, 20, 2);

  EXPECT_EQ(store.stats().snapshots, live.size());
  EXPECT_GT(store.stats().keyframes, 1u);  // interval 3 over 11 snapshots
  EXPECT_GT(store.stats().deltas, 0u);
  for (const auto& [step, text] : live) {
    EXPECT_EQ(serialized(store.load_step(step)), text) << "step " << step;
  }
}

// The randomized property harness: 50 trajectories with random kernel,
// precision, seed, stride and keyframe interval — every stored step must
// restore byte-exactly.
TEST_F(TrajectoryStoreTest, RandomizedTrajectoriesRestoreByteExact) {
  Rng rng(20070326);
  for (int trajectory = 0; trajectory < 50; ++trajectory) {
    const bool list_kernel = rng.uniform_index(2) == 0;
    Simulation::Options options;
    // The list kernel needs a box comfortably larger than cutoff+skin;
    // the N^2 kernel is happy with small cheap systems.
    options.workload.n_atoms = list_kernel ? 256 : 32 + rng.uniform_index(64);
    options.workload.seed = rng.next_u64();
    options.kernel = list_kernel ? SimKernel::kNeighborList : SimKernel::kSoaN2;
    const std::uint64_t precision = rng.uniform_index(3);
    options.precision = precision == 0   ? PrecisionMode::kDouble
                        : precision == 1 ? PrecisionMode::kSingle
                                         : PrecisionMode::kMixed;
    Simulation sim(options);

    const std::string subdir =
        dir_ + "/t" + std::to_string(trajectory);
    TrajectoryStoreOptions store_opts;
    store_opts.directory = subdir;
    store_opts.keyframe_interval = 1 + static_cast<int>(rng.uniform_index(5));
    TrajectoryStore store(store_opts);

    const int steps = 5 + static_cast<int>(rng.uniform_index(10));
    const int stride = 1 + static_cast<int>(rng.uniform_index(4));
    const auto live = record_run(sim, store, steps, stride);

    for (const auto& [step, text] : live) {
      ASSERT_EQ(serialized(store.load_step(step)), text)
          << "trajectory " << trajectory << " step " << step << " ("
          << to_string(options.kernel) << ", "
          << to_string(options.precision) << ", stride " << stride
          << ", keyframe " << store_opts.keyframe_interval << ")";
    }
  }
}

TEST_F(TrajectoryStoreTest, AnySingleBitFlipFailsRestorationLoudly) {
  Simulation::Options options;
  options.workload.n_atoms = 48;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options(3));
  record_run(sim, store, 6, 1);

  for (const long step : store.steps()) {
    char name[48];
    std::snprintf(name, sizeof(name), "frame_%012ld", step);
    fs::path path;
    for (const char* ext : {".key", ".delta"}) {
      const fs::path candidate = fs::path(dir_) / (std::string(name) + ext);
      if (fs::exists(candidate)) path = candidate;
    }
    ASSERT_FALSE(path.empty()) << "step " << step;

    std::string content;
    {
      std::ifstream in(path, std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::string corrupt = content;
    corrupt[corrupt.size() / 2] ^= 0x04;  // one flipped bit, mid-payload
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << corrupt;
    }
    EXPECT_THROW(store.load_step(step), RuntimeFailure) << "step " << step;
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;  // restore for the next iteration
  }
}

TEST_F(TrajectoryStoreTest, CorruptIndexFailsReopenLoudly) {
  {
    Simulation::Options options;
    options.workload.n_atoms = 32;
    options.kernel = SimKernel::kSoaN2;
    Simulation sim(options);
    TrajectoryStore store(store_options(2));
    record_run(sim, store, 4, 1);
  }
  const fs::path index = fs::path(dir_) / "index";
  std::string content;
  {
    std::ifstream in(index, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  content[content.size() / 2] ^= 0x01;
  {
    std::ofstream out(index, std::ios::trunc | std::ios::binary);
    out << content;
  }
  EXPECT_THROW(TrajectoryStore{store_options(2)}, RuntimeFailure);
}

TEST_F(TrajectoryStoreTest, ReopenResumesTheRing) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);

  std::map<long, std::string> live;
  {
    TrajectoryStore store(store_options(3));
    live = record_run(sim, store, 8, 2);
  }

  // A second store over the same directory continues the chain: deltas keep
  // building on the frames the first instance wrote.
  TrajectoryStore reopened(store_options(3));
  EXPECT_EQ(reopened.steps().size(), live.size());
  for (int s = 9; s <= 14; ++s) {
    sim.step();
    if (s % 2 == 0) {
      reopened.append(sim.snapshot());
      live[sim.current_step()] = serialized(sim.snapshot());
    }
  }
  for (const auto& [step, text] : live) {
    EXPECT_EQ(serialized(reopened.load_step(step)), text) << "step " << step;
  }
}

TEST_F(TrajectoryStoreTest, RingEvictionDropsOldestChainsKeepsNewest) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);

  // Budget ~3 keyframes' worth: with stride 1 and interval 4 the ring must
  // evict old chains as the run advances.
  TrajectoryStore store(store_options(4, 60'000));
  const auto live = record_run(sim, store, 40, 1);

  EXPECT_GT(store.stats().evicted_frames, 0u);
  const std::vector<long> steps = store.steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_GT(steps.front(), 0L);    // the oldest chains are gone
  EXPECT_EQ(steps.back(), 40L);    // the newest snapshot never is
  for (const long step : steps) {
    EXPECT_EQ(serialized(store.load_step(step)), live.at(step))
        << "step " << step;
  }
  // Evicted frames' files are deleted, not just forgotten.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("frame_", 0) == 0) ++files;
  }
  EXPECT_EQ(files, steps.size());
}

TEST_F(TrajectoryStoreTest, AppendsMustAdvance) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options(2));
  store.append(sim.snapshot());
  EXPECT_THROW(store.append(sim.snapshot()), RuntimeFailure);
}

TEST_F(TrajectoryStoreTest, UnknownStepsFailLoudly) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  TrajectoryStore store(store_options(2));
  store.append(sim.snapshot());
  EXPECT_THROW(store.load_step(7), RuntimeFailure);
  EXPECT_FALSE(store.has_step(7));
  EXPECT_EQ(store.nearest_at_or_before(7), 0L);
  EXPECT_EQ(store.nearest_at_or_before(-1), -1L);
}

// The pure-observer guarantee the whole design rests on: snapshotting (and
// storing) a run perturbs nothing.  Run the same melt twice — once plain,
// once snapshotting every 3 steps through the store — and demand bitwise
// identical state, including under the neighbour-list kernel whose listref
// section is what makes this possible.
TEST_F(TrajectoryStoreTest, StoreEnabledRunIsBitwiseIdenticalToStoreDisabled) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;

  Simulation plain(options);
  for (int s = 1; s <= 24; ++s) plain.step();

  Simulation stored(options);
  TrajectoryStore store(store_options(2));
  record_run(stored, store, 24, 3);

  ASSERT_EQ(plain.current_step(), stored.current_step());
  EXPECT_EQ(plain.last_energies().kinetic, stored.last_energies().kinetic);
  EXPECT_EQ(plain.last_energies().potential, stored.last_energies().potential);
  for (std::size_t i = 0; i < plain.system().size(); ++i) {
    EXPECT_EQ(plain.system().positions()[i], stored.system().positions()[i]);
    EXPECT_EQ(plain.system().velocities()[i], stored.system().velocities()[i]);
    EXPECT_EQ(plain.system().accelerations()[i],
              stored.system().accelerations()[i]);
  }
}

// And the flip side: a run RESUMED from a mid-run snapshot continues
// bit-identically to the original — the listref section reseeds the exact
// neighbour list instead of forcing a rebuild the original never did.
TEST_F(TrajectoryStoreTest, ResumeFromSnapshotContinuesBitExactly) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;

  Simulation original(options);
  TrajectoryStore store(store_options(3));
  record_run(original, store, 20, 4);  // original now at step 20

  Simulation replay = Simulation::resume(store.load_step(12), options);
  ASSERT_EQ(replay.current_step(), 12);
  for (int s = 13; s <= 20; ++s) replay.step();

  EXPECT_EQ(original.last_energies().potential,
            replay.last_energies().potential);
  for (std::size_t i = 0; i < original.system().size(); ++i) {
    EXPECT_EQ(original.system().positions()[i],
              replay.system().positions()[i]);
    EXPECT_EQ(original.system().velocities()[i],
              replay.system().velocities()[i]);
  }
}

TEST_F(TrajectoryStoreTest, FailedIndexCommitDeletesNoListedFrame) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);

  // Every frame a keyframe and a one-byte budget: each append after the
  // first evicts the chain before it.
  TrajectoryStore store(store_options(1, /*max_bytes=*/1));
  store.append(sim.snapshot());
  const std::string first = serialized(sim.snapshot());

  // A directory where the index's temp file goes makes the index commit
  // fail on the evicting append.
  fs::create_directory(fs::path(dir_) / "index.tmp");
  sim.step();
  EXPECT_THROW(store.append(sim.snapshot()), RuntimeFailure);

  TrajectoryStore reopened(store_options(1, /*max_bytes=*/1));
  ASSERT_EQ(reopened.steps(), std::vector<long>{0});
  EXPECT_EQ(serialized(reopened.load_step(0)), first);
}

}  // namespace
}  // namespace emdpa::md
