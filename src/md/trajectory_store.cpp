#include "md/trajectory_store.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/crc32.h"
#include "core/delta_codec.h"
#include "core/durable_file.h"
#include "core/error.h"

namespace emdpa::md {

namespace fs = std::filesystem;

namespace {

constexpr const char* kFrameMagic = "emdpa-trajframe";
constexpr int kFrameVersion = 1;

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_double(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return v;
}

double get_double(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  const std::uint64_t bits = get_u64(in, pos);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Fixed little-endian word serialisation of a snapshot — the buffer the
/// delta codec XORs.  Everything that varies step to step is here; the step
/// number and config strings ride in the frame header / keyframe text.
std::vector<std::uint8_t> serialize_words(const Checkpoint& cp) {
  std::vector<std::uint8_t> out;
  const std::size_t n = cp.system.size();
  out.reserve((3 + 9 * n + (cp.list_ref ? 1 + 3 * n : 0)) * 8);
  put_double(out, cp.system.mass());
  put_double(out, cp.box_edge);
  put_double(out, cp.potential);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = cp.system.positions()[i];
    const auto& v = cp.system.velocities()[i];
    const auto& a = cp.system.accelerations()[i];
    put_double(out, p.x);
    put_double(out, p.y);
    put_double(out, p.z);
    put_double(out, v.x);
    put_double(out, v.y);
    put_double(out, v.z);
    put_double(out, a.x);
    put_double(out, a.y);
    put_double(out, a.z);
  }
  if (cp.list_ref) {
    put_double(out, cp.list_ref_cutoff);
    for (const auto& p : *cp.list_ref) {
      put_double(out, p.x);
      put_double(out, p.y);
      put_double(out, p.z);
    }
  }
  return out;
}

/// Inverse of serialize_words onto `shape`'s layout: atom count, optional
/// sections and config come from `shape` (the chain keyframe), the numeric
/// state from `words`.
Checkpoint deserialize_words(const std::vector<std::uint8_t>& words,
                             const Checkpoint& shape, long step) {
  Checkpoint cp;
  const std::size_t n = shape.system.size();
  cp.system = ParticleSystem(n);
  cp.step = step;
  cp.has_potential = true;
  cp.config = shape.config;
  std::size_t pos = 0;
  cp.system.set_mass(get_double(words, pos));
  cp.box_edge = get_double(words, pos);
  cp.potential = get_double(words, pos);
  for (std::size_t i = 0; i < n; ++i) {
    cp.system.positions()[i] = {get_double(words, pos), get_double(words, pos),
                                get_double(words, pos)};
    cp.system.velocities()[i] = {get_double(words, pos), get_double(words, pos),
                                 get_double(words, pos)};
    cp.system.accelerations()[i] = {get_double(words, pos),
                                    get_double(words, pos),
                                    get_double(words, pos)};
  }
  if (shape.list_ref) {
    cp.list_ref_cutoff = get_double(words, pos);
    std::vector<emdpa::Vec3d> ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref[i] = {get_double(words, pos), get_double(words, pos),
                get_double(words, pos)};
    }
    cp.list_ref = std::move(ref);
  }
  if (pos != words.size()) {
    throw RuntimeFailure("trajectory store: frame word count mismatch");
  }
  return cp;
}

std::string frame_name(long step, bool keyframe) {
  char name[48];
  std::snprintf(name, sizeof(name), "frame_%012ld.%s", step,
                keyframe ? "key" : "delta");
  return name;
}

/// Anything that changes the word layout OR the arithmetic the snapshot was
/// produced under: a change mid-run forces a fresh keyframe.
std::string shape_of(const Checkpoint& cp) {
  std::string shape = std::to_string(cp.system.size());
  shape += cp.list_ref ? "+ref" : "-ref";
  if (cp.config) {
    shape += '/' + cp.config->kernel + '/' + cp.config->precision + '/' +
             cp.config->simd;
  }
  return shape;
}

}  // namespace

TrajectoryStore::TrajectoryStore(TrajectoryStoreOptions options)
    : options_(std::move(options)) {
  EMDPA_REQUIRE(!options_.directory.empty(),
                "trajectory store directory must not be empty");
  EMDPA_REQUIRE(options_.keyframe_interval >= 1,
                "trajectory store keyframe interval must be >= 1");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    throw RuntimeFailure("trajectory store: cannot create directory '" +
                         options_.directory + "': " + ec.message());
  }
  scan_directory();
}

std::string TrajectoryStore::frame_path(const FrameRecord& frame) const {
  return (fs::path(options_.directory) / frame_name(frame.step, frame.keyframe))
      .string();
}

void TrajectoryStore::scan_directory() {
  std::error_code ec;
  for (fs::directory_iterator it(options_.directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    // Only the exact names frame_path() writes are frames; an `index` file
    // from older recordings, `*.tmp` and anything else are ignored.
    const std::string name = it->path().filename().string();
    const std::size_t dot = name.find('.');
    if (name.rfind("frame_", 0) != 0 || dot == std::string::npos ||
        std::isdigit(static_cast<unsigned char>(name[6])) == 0) {
      continue;
    }
    FrameRecord f;
    f.keyframe = name.compare(dot, std::string::npos, ".key") == 0;
    const auto parsed =
        std::from_chars(name.data() + 6, name.data() + dot, f.step);
    if (parsed.ptr != name.data() + dot ||
        frame_name(f.step, f.keyframe) != name) {
      continue;
    }
    f.bytes = it->file_size(ec);
    if (!ec) frames_.push_back(f);
  }
  if (ec) {
    throw RuntimeFailure("trajectory store: cannot list '" +
                         options_.directory + "': " + ec.message());
  }
  std::sort(frames_.begin(), frames_.end(),
            [](const FrameRecord& a, const FrameRecord& b) {
              return a.step < b.step;
            });
  for (std::size_t i = 1; i < frames_.size(); ++i) {
    if (frames_[i].step == frames_[i - 1].step) {
      throw RuntimeFailure("trajectory store: two frames for step " +
                           std::to_string(frames_[i].step) + " in '" +
                           options_.directory + "'");
    }
  }
  // Deltas before the first keyframe are what an interrupted eviction
  // leaves behind: their chain head is gone, so drop them.
  std::size_t orphans = 0;
  for (; orphans < frames_.size() && !frames_[orphans].keyframe; ++orphans) {
    fs::remove(frame_path(frames_[orphans]), ec);
  }
  frames_.erase(frames_.begin(),
                frames_.begin() + static_cast<std::ptrdiff_t>(orphans));
  for (const FrameRecord& f : frames_) stats_.bytes += f.bytes;
  // Chain position for subsequent appends; last_words_/last_shape_ are
  // rebuilt lazily on the first append (they need a frame payload read).
  for (auto it = frames_.rbegin(); it != frames_.rend() && !it->keyframe; ++it) {
    ++since_keyframe_;
  }
}

std::size_t TrajectoryStore::frame_index(long step) const {
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), step,
      [](const FrameRecord& f, long s) { return f.step < s; });
  if (it == frames_.end() || it->step != step) {
    throw RuntimeFailure("trajectory store: no snapshot stored for step " +
                         std::to_string(step));
  }
  return static_cast<std::size_t>(it - frames_.begin());
}

void TrajectoryStore::append(const Checkpoint& cp) {
  if (!frames_.empty() && cp.step <= frames_.back().step) {
    throw RuntimeFailure(
        "trajectory store: snapshots must advance (step " +
        std::to_string(cp.step) + " after " +
        std::to_string(frames_.back().step) + ")");
  }
  // Reopened store: rebuild the delta base from the newest frame on disk.
  if (!frames_.empty() && last_words_.empty()) {
    const Checkpoint newest = load_step(frames_.back().step);
    last_words_ = serialize_words(newest);
    last_shape_ = shape_of(newest);
  }

  const std::vector<std::uint8_t> words = serialize_words(cp);
  const std::string shape = shape_of(cp);
  const bool keyframe = frames_.empty() || shape != last_shape_ ||
                        since_keyframe_ + 1 >= options_.keyframe_interval;

  FrameRecord frame;
  frame.step = cp.step;
  frame.keyframe = keyframe;

  std::string content;
  if (keyframe) {
    // A keyframe IS a complete checkpoint file: load_checkpoint reads it
    // directly, and its own CRC footer guards it.
    std::ostringstream out;
    save_checkpoint(out, cp);
    content = out.str();
  } else {
    std::ostringstream body;
    body << kFrameMagic << ' ' << kFrameVersion << '\n';
    body << "delta step " << cp.step << " base " << frames_.back().step
         << " bytes " << words.size() << '\n';
    body << delta_encode(last_words_, words);
    content = with_crc_footer(body.str());
  }
  frame.bytes = content.size();

  try {
    commit_file(frame_path(frame), content);
  } catch (const RuntimeFailure&) {
    // A failed directory fsync leaves the frame in place; the ring does not
    // list it, so neither may the directory.
    std::error_code ignored;
    fs::remove(frame_path(frame), ignored);
    throw;
  }
  frames_.push_back(frame);
  stats_.bytes += frame.bytes;
  ++stats_.snapshots;
  if (keyframe) {
    ++stats_.keyframes;
    since_keyframe_ = 0;
  } else {
    ++stats_.deltas;
    ++since_keyframe_;
  }
  last_words_ = words;
  last_shape_ = shape;

  // Ring budget: unlink whole oldest chains, keyframe first, then its deltas
  // in step order, so a cut-short eviction leaves only leading orphan deltas.
  // Never evict the newest chain — the most recent snapshots must stay
  // restorable no matter the budget.
  std::size_t evicted = 0;
  while (options_.max_bytes != 0 && stats_.bytes > options_.max_bytes) {
    std::size_t chain_end = evicted + 1;  // one past the chain's last frame
    while (chain_end < frames_.size() && !frames_[chain_end].keyframe) {
      ++chain_end;
    }
    if (chain_end >= frames_.size()) break;  // only the newest chain remains
    for (; evicted < chain_end; ++evicted) {
      std::error_code ignored;
      fs::remove(frame_path(frames_[evicted]), ignored);
      stats_.bytes -= frames_[evicted].bytes;
      ++stats_.evicted_frames;
    }
  }
  frames_.erase(frames_.begin(),
                frames_.begin() + static_cast<std::ptrdiff_t>(evicted));
}

std::vector<long> TrajectoryStore::steps() const {
  std::vector<long> out;
  out.reserve(frames_.size());
  for (const FrameRecord& f : frames_) out.push_back(f.step);
  return out;
}

bool TrajectoryStore::has_step(long step) const {
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), step,
      [](const FrameRecord& f, long s) { return f.step < s; });
  return it != frames_.end() && it->step == step;
}

Checkpoint TrajectoryStore::load_step(long step) const {
  const std::size_t target = frame_index(step);
  std::size_t key = target;  // frames_ always starts with a keyframe
  while (key > 0 && !frames_[key].keyframe) --key;

  std::ifstream in(frame_path(frames_[key]), std::ios::binary);
  if (!in) {
    throw RuntimeFailure("trajectory store: cannot open keyframe for step " +
                         std::to_string(frames_[key].step));
  }
  Checkpoint cp = load_checkpoint(in);  // CRC-verified
  if (key == target) return cp;

  std::vector<std::uint8_t> words = serialize_words(cp);
  for (std::size_t i = key + 1; i <= target; ++i) {
    const std::string path = frame_path(frames_[i]);
    const std::string body =
        strip_crc_footer(read_file(path, "trajectory frame"),
                         "trajectory frame");
    std::istringstream frame(body);
    std::string magic, kw_delta, kw_step, kw_base, kw_bytes;
    int version = 0;
    long frame_step = 0, base_step = 0;
    std::size_t byte_count = 0;
    if (!(frame >> magic >> version >> kw_delta >> kw_step >> frame_step >>
          kw_base >> base_step >> kw_bytes >> byte_count) ||
        magic != kFrameMagic || version != kFrameVersion ||
        kw_delta != "delta" || kw_step != "step" || kw_base != "base" ||
        kw_bytes != "bytes") {
      throw RuntimeFailure("trajectory frame: malformed header in '" + path +
                           "'");
    }
    if (frame_step != frames_[i].step || base_step != frames_[i - 1].step ||
        byte_count != words.size()) {
      throw RuntimeFailure("trajectory frame: chain mismatch in '" + path +
                           "'");
    }
    // Everything after the header line is the delta payload.
    std::string payload;
    std::getline(frame, payload);  // rest of the header line (empty)
    payload.assign(std::istreambuf_iterator<char>(frame),
                   std::istreambuf_iterator<char>());
    words = delta_apply(words, payload);
    cp = deserialize_words(words, cp, frame_step);
  }
  return cp;
}

}  // namespace emdpa::md
