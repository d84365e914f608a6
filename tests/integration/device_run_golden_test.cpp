// Byte-level goldens for whole device-model runs.  The cross-backend and
// physics-property suites compare backends with tolerances, or compare two
// runs inside one binary, so neither notices a model whose energies, modelled
// times or op counts move by a few ulps.  This file pins every output a
// device run reports: an FNV-1a digest of the energies (kinetic and
// potential), the per-step times, device_time, every breakdown entry, every
// op counter and the final positions and velocities, against constants
// recorded from a reference build.
//
// It covers every backend_factory entry except host-parallel (the trajectory
// goldens pin that one) plus the Cell cluster model, each at two atom counts:
// 64, and 171, which is not a multiple of any SIMD or SPE width.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "cellsim/cell_cluster.h"
#include "driver/backend_factory.h"
#include "md/backend.h"

namespace emdpa {
namespace {

constexpr int kSteps = 4;
constexpr std::size_t kAtomCounts[] = {64, 171};
constexpr const char* kClusterKey = "cell-cluster";

/// FNV-1a over the little-endian bytes of each value, so the digest does not
/// depend on the host byte order.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(ModelTime t) { add(t.to_seconds()); }
  void add(const Vec3d& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t run_digest(const md::RunResult& r) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(r.energies.size()));
  for (const auto& e : r.energies) {
    h.add(e.kinetic);
    h.add(e.potential);
  }
  h.add(static_cast<std::uint64_t>(r.step_times.size()));
  for (const ModelTime t : r.step_times) h.add(t);
  h.add(r.device_time);
  for (const auto& [key, t] : r.breakdown) {
    h.add(key);
    h.add(t);
  }
  for (const auto& [name, count] : r.ops.entries()) {
    h.add(name);
    h.add(count);
  }
  h.add(static_cast<std::uint64_t>(r.final_state.size()));
  for (const auto& p : r.final_state.positions()) h.add(p);
  for (const auto& v : r.final_state.velocities()) h.add(v);
  return h.value();
}

/// Digests recorded from a reference build, by backend key and atom count.
const std::map<std::string, std::map<std::size_t, std::uint64_t>>& goldens() {
  static const std::map<std::string, std::map<std::size_t, std::uint64_t>>
      table = {
          {"host",
           {{64, 0x4786992274feafd1ull}, {171, 0x63dac546ea13e6b0ull}}},
          {"opteron",
           {{64, 0xc2bf4f482f8ec7deull}, {171, 0xcfe29753979129c2ull}}},
          {"cell-1spe",
           {{64, 0x89d9aca66dd1ae47ull}, {171, 0x28450a5882cb4d44ull}}},
          {"cell-2spe",
           {{64, 0x370e8a27784832bfull}, {171, 0x2bf86e0fa53b8a3cull}}},
          {"cell-4spe",
           {{64, 0x806581f004d46af2ull}, {171, 0x98ffcbaec4bc0d9bull}}},
          {"cell-8spe",
           {{64, 0x3d376d85f7608364ull}, {171, 0x46302d9d3fb6b0ddull}}},
          {"cell-8spe-respawn",
           {{64, 0x1ff76fdc7d49bce5ull}, {171, 0x47c02f8a90c4b201ull}}},
          {"cell-8spe-tiled",
           {{64, 0x468fbee8d2e7df2full}, {171, 0x2899ee1a4b81a972ull}}},
          {"cell-ppe",
           {{64, 0x49ab20c1b6b2d721ull}, {171, 0x7d3de52c58bd0890ull}}},
          {"cell-8spe-dp",
           {{64, 0xffc89cad4238c9a3ull}, {171, 0xebbf8739cf3a25e1ull}}},
          {"gpu",
           {{64, 0xd8e214b852091619ull}, {171, 0x5aba521977ae2f09ull}}},
          {"gpu-reduction",
           {{64, 0x24b490c501150fc7ull}, {171, 0xa6f29ecd25045ec2ull}}},
          {"mta2",
           {{64, 0x6026dcc3730da0e7ull}, {171, 0x2031c45f3d5e4f48ull}}},
          {"mta2-partial",
           {{64, 0x7697bef27faf4a7bull}, {171, 0xca5ab38cfc097466ull}}},
          {"xmt",
           {{64, 0x459a42534031acf9ull}, {171, 0x92250bc1b4049414ull}}},
          {kClusterKey,
           {{64, 0x895aa61f72ab0545ull}, {171, 0x7f3b44b2717393b0ull}}},
      };
  return table;
}

std::unique_ptr<md::MdBackend> make(const std::string& key) {
  if (key == kClusterKey) return std::make_unique<cell::CellClusterBackend>();
  return driver::make_backend(key);
}

void expect_golden(const std::string& key) {
  const auto& want = goldens().at(key);
  for (const std::size_t n : kAtomCounts) {
    md::RunConfig cfg;
    cfg.workload.n_atoms = n;
    cfg.steps = kSteps;
    const md::RunResult r = make(key)->run(cfg);
    ASSERT_EQ(r.energies.size(), static_cast<std::size_t>(kSteps) + 1)
        << key << " at " << n << " atoms";
    EXPECT_EQ(run_digest(r), want.at(n))
        << key << " at " << n << " atoms: digest 0x" << std::hex
        << run_digest(r);
  }
}

TEST(DeviceRunGolden, EveryFactoryBackendHasAGolden) {
  for (const auto& info : driver::available_backends()) {
    if (info.key == "host-parallel") continue;
    EXPECT_TRUE(goldens().contains(info.key)) << info.key;
  }
}

class DeviceRunGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(DeviceRunGolden, OutputsMatchTheRecordedDigest) {
  expect_golden(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DeviceRunGolden,
    ::testing::Values("host", "opteron", "cell-1spe", "cell-2spe", "cell-4spe",
                      "cell-8spe", "cell-8spe-respawn", "cell-8spe-tiled",
                      "cell-ppe", "cell-8spe-dp", "gpu", "gpu-reduction",
                      "mta2", "mta2-partial", "xmt", kClusterKey),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace emdpa
