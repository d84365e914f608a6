// TrajectoryStore: byte-exact time travel over real simulation runs.
//
// The central property, proven here over randomized trajectories: for EVERY
// stored step, load_step() returns a checkpoint whose serialisation is
// byte-identical to the snapshot the live run produced at that step — across
// kernels, precisions, strides and keyframe intervals.  Plus the corruption
// story (any single flipped bit on disk fails restoration loudly), ring
// eviction, reopen from the directory listing alone, a resumed run that
// keeps recording into its store, and the pure-observer guarantee (a
// store-enabled run is bitwise identical to a store-disabled one).
#include "md/trajectory_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/crc32.h"
#include "core/error.h"
#include "core/fault_injection.h"
#include "core/random.h"
#include "md/backend.h"
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

  static TrajectoryStoreOptions store_options_at(const std::string& dir) {
    TrajectoryStoreOptions options;
    options.directory = dir;
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
  EXPECT_EQ(store.newest_step(), -1L);
  store.append(sim.snapshot());
  EXPECT_THROW(store.load_step(7), RuntimeFailure);
  EXPECT_FALSE(store.has_step(7));
  EXPECT_EQ(store.newest_step(), 0L);
}

// A keyframe is a checkpoint file, so a CRC-valid one carrying the legacy
// `rng langevin` line a thermostatted run once wrote fails restoration
// typed, for the keyframe's own step and for the deltas that hang off it.
TEST_F(TrajectoryStoreTest, KeyframeWithLegacyRngSectionFailsLoudly) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  {
    TrajectoryStore store(store_options(4));
    record_run(sim, store, 2, 1);
  }
  const fs::path key = fs::path(dir_) / "frame_000000000000.key";
  std::string body;
  {
    std::ifstream in(key, std::ios::binary);
    body = strip_crc_footer({std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()},
                            "test");
  }
  const std::size_t config = body.find("\nconfig ");
  ASSERT_NE(config, std::string::npos);
  body.insert(body.find('\n', config + 1) + 1,
              "rng langevin 1 2 3 4 0x0p+0 0\n");
  std::ofstream(key, std::ios::binary | std::ios::trunc)
      << with_crc_footer(body);

  TrajectoryStore reopened(store_options(4));
  EXPECT_THROW(reopened.load_step(0), RuntimeFailure);
  EXPECT_THROW(reopened.load_step(2), RuntimeFailure);
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

// The directory is the index: an append commits exactly one file, and an
// evicting append only unlinks.  A site armed past any reachable hit counts
// every durable commit without failing one.
TEST_F(TrajectoryStoreTest, EveryAppendIsOneDurableCommit) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);

  fault::Plan never;
  never.first_hit = std::uint64_t{1} << 62;
  fault::ScopedFault count("md.dir_fsync", never);
  // Every frame a keyframe and a one-byte budget: each append after the
  // first evicts the chain before it.
  TrajectoryStore store(store_options(1, /*max_bytes=*/1));
  const auto live = record_run(sim, store, 6, 1);

  EXPECT_EQ(store.stats().evicted_frames, live.size() - 1);
  EXPECT_EQ(fault::Registry::instance().stats("md.dir_fsync").hits,
            live.size());
  EXPECT_EQ(fault::Registry::instance().stats("md.dir_fsync").fires, 0u);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().rfind("frame_", 0), 0u)
        << entry.path();
  }
}

// An eviction killed after its first unlink leaves the oldest chain's
// deltas without their keyframe; the next open drops and unlinks them.
TEST_F(TrajectoryStoreTest, OrphanDeltasOfACutEvictionAreDroppedOnOpen) {
  Simulation::Options options;
  options.workload.n_atoms = 48;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  std::map<long, std::string> live;
  {
    TrajectoryStore store(store_options(3));
    live = record_run(sim, store, 10, 1);  // keyframes at 0, 3, 6, 9
  }
  ASSERT_TRUE(fs::remove(fs::path(dir_) / "frame_000000000000.key"));

  TrajectoryStore reopened(store_options(3));
  const std::vector<long> steps = reopened.steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.front(), 3L);
  EXPECT_EQ(steps.back(), 10L);
  for (const long step : steps) {
    EXPECT_EQ(serialized(reopened.load_step(step)), live.at(step))
        << "step " << step;
  }
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    bytes += entry.file_size();
  }
  EXPECT_EQ(reopened.stats().bytes, bytes);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "frame_000000000001.delta"));
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "frame_000000000002.delta"));
}

TEST_F(TrajectoryStoreTest, FailedFrameCommitLeavesTheEarlierSteps) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  std::map<long, std::string> live;
  TrajectoryStore store(store_options(2));
  live = record_run(sim, store, 1, 1);  // steps 0 and 1

  // A directory where the next frame's temp file goes makes its commit
  // fail, whichever kind the frame is.
  fs::create_directory(fs::path(dir_) / "frame_000000000002.key.tmp");
  fs::create_directory(fs::path(dir_) / "frame_000000000002.delta.tmp");
  sim.step();
  EXPECT_THROW(store.append(sim.snapshot()), RuntimeFailure);

  TrajectoryStore reopened(store_options(2));
  ASSERT_EQ(reopened.steps(), (std::vector<long>{0, 1}));
  for (const auto& [step, text] : live) {
    EXPECT_EQ(serialized(reopened.load_step(step)), text) << "step " << step;
  }
}

// Stores recorded with an `index` file still open: the file is neither
// read nor written, whatever it holds.
TEST_F(TrajectoryStoreTest, StrayIndexFileIsIgnored) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  std::map<long, std::string> live;
  {
    TrajectoryStore store(store_options(2));
    live = record_run(sim, store, 4, 1);
  }
  const fs::path index = fs::path(dir_) / "index";
  for (const std::string content :
       {std::string(), std::string("not an index\n"),
        std::string("emdpa-trajindex 1\nframe 99 key 10\ncrc 00000000\n"),
        std::string("\x00\xff\x01", 3)}) {
    {
      std::ofstream out(index, std::ios::trunc | std::ios::binary);
      out << content;
    }
    TrajectoryStore reopened(store_options(2));
    const std::vector<long> steps = reopened.steps();
    ASSERT_EQ(steps.size(), live.size());
    for (const long step : steps) {
      EXPECT_EQ(serialized(reopened.load_step(step)), live.at(step))
          << "step " << step;
    }
  }
  TrajectoryStore reopened(store_options(2));
  sim.step();
  reopened.append(sim.snapshot());
  std::ifstream in(index, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()),
            std::string("\x00\xff\x01", 3));
}

TEST_F(TrajectoryStoreTest, TwoFramesForOneStepFailReopenLoudly) {
  Simulation::Options options;
  options.workload.n_atoms = 32;
  options.kernel = SimKernel::kSoaN2;
  Simulation sim(options);
  {
    TrajectoryStore store(store_options(2));
    record_run(sim, store, 2, 1);
  }
  fs::copy_file(fs::path(dir_) / "frame_000000000002.key",
                fs::path(dir_) / "frame_000000000002.delta");
  EXPECT_THROW(TrajectoryStore{store_options(2)}, RuntimeFailure);
}

// A resumed run keeps recording into the store its first leg wrote: it
// takes no snapshot at or before the store's newest step, and every frame
// it does add continues the uninterrupted recording bit for bit.
TEST_F(TrajectoryStoreTest, ResumedRunKeepsRecordingIntoItsStore) {
  const auto config = [&](const std::string& leg, int steps) {
    RunConfig c;
    c.workload.n_atoms = 256;
    c.steps = steps;
    c.store_dir = dir_ + "/" + leg + "/store";
    c.store_every = 10;
    c.checkpoint_path = dir_ + "/" + leg + "/c.ckpt";
    c.checkpoint_every = 15;
    return c;
  };
  HostParallelBackend backend;
  backend.run(config("reference", 60));
  const TrajectoryStore reference(store_options_at(dir_ + "/reference/store"));

  // First legs of 30 and 45 steps leave c.ckpt at 30 and 45, and c.ckpt.prev
  // at 15 and 30; each second leg resumes from step 30 and runs to 60.
  for (const auto& [first_steps, resume_from] :
       {std::pair<int, std::string>{30, "c.ckpt"}, {45, "c.ckpt.prev"}}) {
    const std::string leg = "leg" + std::to_string(first_steps);
    backend.run(config(leg, first_steps));
    RunConfig second = config(leg, 60);
    second.resume_path = dir_ + "/" + leg + "/" + resume_from;
    const RunResult result = backend.run(second);
    ASSERT_EQ(result.metadata.at("resumed_from_step"), 30.0) << leg;

    const TrajectoryStore resumed(store_options_at(second.store_dir));
    for (long step = 0; step <= 60; step += 10) {
      EXPECT_TRUE(resumed.has_step(step)) << leg << " step " << step;
    }
    for (const long step : resumed.steps()) {
      if (!reference.has_step(step)) continue;
      EXPECT_EQ(serialized(resumed.load_step(step)),
                serialized(reference.load_step(step)))
          << leg << " step " << step;
    }
  }
}

}  // namespace
}  // namespace emdpa::md
