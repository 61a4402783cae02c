// Prepared-snapshot save/load (gsmb/snapshot.h).
//
// Layout (native-endian; only the preparation's sources of truth are
// stored — derived state is rebuilt on load through the same code path a
// cold Engine::Prepare takes, so the file cannot drift from the build):
//   magic       "GSMBPS01"
//   header      cache_key, dataset_fingerprint, prepared_digest,
//               prepare_seconds
//   inputs      dirty flag, E1 profiles, E2 profiles (external id +
//               attribute name/value pairs, in internal-id order),
//               ground truth (dirty flag + pairs in insertion order)
//   blocks      clean_clean flag, dataset name, |E1|, |E2|, post-purge/
//               filter blocks (key + left ids + right ids, in order)
//
// Every length field is validated against the bytes remaining in the file
// before any container is sized from it, every entity id against the
// declared collection sizes — a corrupt file fails with a diagnostic, not
// UB. After the rebuild, both header digests are recomputed and compared:
// the load is trusted only because it proves it reproduced the exact
// preparation the save described.

#include "gsmb/snapshot.h"

#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "gsmb/digest.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

void PutBytes(std::ostream& out, const void* data, size_t size) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

void PutU8(std::ostream& out, uint8_t v) { PutBytes(out, &v, sizeof v); }
void PutU32(std::ostream& out, uint32_t v) { PutBytes(out, &v, sizeof v); }
void PutU64(std::ostream& out, uint64_t v) { PutBytes(out, &v, sizeof v); }
void PutF64(std::ostream& out, double v) { PutBytes(out, &v, sizeof v); }

void PutString(std::ostream& out, const std::string& s) {
  PutU64(out, s.size());
  PutBytes(out, s.data(), s.size());
}

void PutCollection(std::ostream& out, const EntityCollection& collection) {
  PutString(out, collection.name());
  PutU64(out, collection.size());
  for (const EntityProfile& profile : collection.profiles()) {
    PutString(out, profile.external_id());
    PutU64(out, profile.attributes().size());
    for (const Attribute& attribute : profile.attributes()) {
      PutString(out, attribute.name);
      PutString(out, attribute.value);
    }
  }
}

// Bounds-checked reader (same discipline as the serving snapshot): length
// fields are validated against the remaining file size BEFORE any
// container is sized from them, so a garbage count fails cleanly instead
// of attempting a multi-gigabyte allocation.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in) : in_(in) {
    const std::istream::pos_type pos = in_.tellg();
    in_.seekg(0, std::ios::end);
    size_ = static_cast<uint64_t>(in_.tellg());
    in_.seekg(pos);
  }

  uint64_t file_bytes() const { return size_; }

  void Bytes(void* data, size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!in_) Corrupt();
  }

  uint8_t U8() { return Scalar<uint8_t>(); }
  uint32_t U32() { return Scalar<uint32_t>(); }
  uint64_t U64() { return Scalar<uint64_t>(); }
  double F64() { return Scalar<double>(); }

  /// Reads an element count whose elements occupy at least
  /// `min_element_size` bytes each; rejects counts the file cannot hold.
  uint64_t Count(uint64_t min_element_size) {
    const uint64_t count = U64();
    if (min_element_size == 0) min_element_size = 1;
    if (count > Remaining() / min_element_size) Corrupt();
    return count;
  }

  std::string String() {
    const uint64_t size = Count(1);
    std::string s(size, '\0');
    if (size > 0) Bytes(s.data(), size);
    return s;
  }

 private:
  template <typename T>
  T Scalar() {
    T v;
    Bytes(&v, sizeof v);
    return v;
  }

  uint64_t Remaining() const {
    const auto pos = static_cast<uint64_t>(in_.tellg());
    return pos > size_ ? 0 : size_ - pos;
  }

  [[noreturn]] static void Corrupt() {
    throw std::runtime_error("truncated or corrupt file");
  }

  std::istream& in_;
  uint64_t size_ = 0;
};

/// Checks the 8 magic bytes, distinguishing "not a snapshot at all" from
/// "a snapshot of another format version".
Status CheckMagic(SnapshotReader& reader, const std::string& path) {
  char magic[8];
  reader.Bytes(magic, sizeof magic);
  const std::string_view got(magic, sizeof magic);
  if (got == kPreparedSnapshotMagic) return Status::Ok();
  if (got.substr(0, 6) == kPreparedSnapshotMagic.substr(0, 6)) {
    return Status::InvalidArgument(
        "prepared snapshot '" + path + "': unsupported format version '" +
        std::string(got) + "' (this build reads '" +
        std::string(kPreparedSnapshotMagic) + "')");
  }
  return Status::InvalidArgument("prepared snapshot '" + path +
                                 "': not a prepared snapshot (bad magic)");
}

/// Header fields after the magic, shared by Load and ReadInfo.
PreparedSnapshotInfo ReadHeader(SnapshotReader& reader) {
  PreparedSnapshotInfo info;
  info.cache_key = reader.String();
  info.dataset_fingerprint = reader.U64();
  info.prepared_digest = reader.U64();
  info.prepare_seconds = reader.F64();
  info.file_bytes = reader.file_bytes();
  return info;
}

EntityCollection ReadCollection(SnapshotReader& reader) {
  EntityCollection collection(reader.String());
  // A profile is at least one external-id length field + one attr count.
  const uint64_t count = reader.Count(16);
  collection.Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EntityProfile profile(reader.String());
    const uint64_t num_attributes = reader.Count(16);
    for (uint64_t a = 0; a < num_attributes; ++a) {
      std::string attr_name = reader.String();
      std::string attr_value = reader.String();
      profile.AddAttribute(std::move(attr_name), std::move(attr_value));
    }
    collection.Add(std::move(profile));
  }
  return collection;
}

}  // namespace

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

Status SavePreparedSnapshot(const PreparedInputs& prepared,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("prepared snapshot: cannot open '" + path +
                            "' for writing");
  }

  PutBytes(out, kPreparedSnapshotMagic.data(), kPreparedSnapshotMagic.size());
  PutString(out, prepared.cache_key);
  PutU64(out, prepared.dataset_fingerprint);
  PutU64(out, prepared.prepared_digest);
  PutF64(out, prepared.prepare_seconds);

  PutU8(out, prepared.inputs.dirty ? 1 : 0);
  PutCollection(out, prepared.inputs.e1);
  PutCollection(out, prepared.inputs.e2);

  const GroundTruth& gt = prepared.inputs.ground_truth;
  PutU8(out, gt.dirty() ? 1 : 0);
  PutU64(out, gt.size());
  for (const MatchPair& pair : gt.pairs()) {
    PutU32(out, pair.left);
    PutU32(out, pair.right);
  }

  const BlockCollection& blocks = prepared.dataset.blocks;
  PutU8(out, blocks.clean_clean() ? 1 : 0);
  PutString(out, prepared.dataset.name);
  PutU64(out, blocks.num_left_entities());
  PutU64(out, blocks.num_right_entities());
  PutU64(out, blocks.size());
  for (const Block& block : blocks.blocks()) {
    PutString(out, block.key);
    PutU64(out, block.left.size());
    for (EntityId id : block.left) PutU32(out, id);
    PutU64(out, block.right.size());
    for (EntityId id : block.right) PutU32(out, id);
  }

  out.flush();
  if (!out.good()) {
    return Status::Internal("prepared snapshot: write to '" + path +
                            "' failed");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Header peek
// ---------------------------------------------------------------------------

Result<PreparedSnapshotInfo> ReadPreparedSnapshotInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("prepared snapshot: cannot open '" + path + "'");
  }
  try {
    SnapshotReader reader(in);
    Status magic = CheckMagic(reader, path);
    if (!magic.ok()) return magic;
    return ReadHeader(reader);
  } catch (const std::exception& e) {
    return Status::InvalidArgument("prepared snapshot '" + path +
                                   "': " + e.what());
  }
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

Result<PreparedHandle> LoadPreparedSnapshot(const std::string& path,
                                            size_t num_threads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("prepared snapshot: cannot open '" + path + "'");
  }
  if (num_threads == 0) num_threads = HardwareThreads();

  Stopwatch load_watch;
  PreparedSnapshotInfo info;
  auto prepared = std::make_shared<PreparedInputs>();
  try {
    SnapshotReader reader(in);
    Status magic = CheckMagic(reader, path);
    if (!magic.ok()) return magic;
    info = ReadHeader(reader);

    JobInputs& inputs = prepared->inputs;
    inputs.dirty = reader.U8() != 0;
    inputs.e1 = ReadCollection(reader);
    inputs.e2 = ReadCollection(reader);

    const bool gt_dirty = reader.U8() != 0;
    GroundTruth ground_truth(gt_dirty);
    const uint64_t num_matches = reader.Count(8);
    const uint64_t left_bound = inputs.e1.size();
    const uint64_t right_bound =
        inputs.dirty ? inputs.e1.size() : inputs.e2.size();
    for (uint64_t i = 0; i < num_matches; ++i) {
      const uint32_t left = reader.U32();
      const uint32_t right = reader.U32();
      if (left >= left_bound || right >= right_bound) {
        return Status::InvalidArgument(
            "prepared snapshot '" + path +
            "': ground-truth pair references an entity id out of range");
      }
      ground_truth.AddMatch(left, right);
    }
    inputs.ground_truth = ground_truth;

    const bool clean_clean = reader.U8() != 0;
    const std::string dataset_name = reader.String();
    const uint64_t num_left = reader.U64();
    const uint64_t num_right = reader.U64();
    if (num_left != inputs.e1.size() ||
        num_right != (inputs.dirty ? 0 : inputs.e2.size())) {
      return Status::InvalidArgument(
          "prepared snapshot '" + path +
          "': block collection entity counts disagree with the stored "
          "profiles");
    }
    BlockCollection blocks(clean_clean, num_left, num_right);
    const uint64_t num_blocks = reader.Count(24);
    blocks.Reserve(num_blocks);
    const uint64_t member_bound_left = num_left;
    const uint64_t member_bound_right = clean_clean ? num_right : num_left;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      Block block;
      block.key = reader.String();
      const uint64_t num_left_members = reader.Count(4);
      block.left.reserve(num_left_members);
      for (uint64_t i = 0; i < num_left_members; ++i) {
        const uint32_t id = reader.U32();
        if (id >= member_bound_left) {
          return Status::InvalidArgument(
              "prepared snapshot '" + path +
              "': block member id out of range");
        }
        block.left.push_back(id);
      }
      const uint64_t num_right_members = reader.Count(4);
      block.right.reserve(num_right_members);
      for (uint64_t i = 0; i < num_right_members; ++i) {
        const uint32_t id = reader.U32();
        if (id >= member_bound_right) {
          return Status::InvalidArgument(
              "prepared snapshot '" + path +
              "': block member id out of range");
        }
        block.right.push_back(id);
      }
      blocks.Add(std::move(block));
    }

    // Rebuild the derived state — EntityIndex, stats, the counting sweep —
    // through the exact code path a cold Prepare takes. Deterministic at
    // any thread count, so the rebuilt dataset is bit-identical to the one
    // the snapshot was saved from.
    prepared->dataset = PrepareFromBlocks(
        dataset_name, std::move(blocks), std::move(ground_truth), num_threads);
  } catch (const std::exception& e) {
    return Status::InvalidArgument("prepared snapshot '" + path +
                                   "': " + e.what());
  }

  // Verify, don't trust: a file corrupted into something parseable must
  // not execute. Both digests are recomputed over the REBUILT state.
  const uint64_t fingerprint = obs::DatasetFingerprint(prepared->inputs);
  if (fingerprint != info.dataset_fingerprint) {
    return Status::Internal(
        "prepared snapshot '" + path +
        "': dataset fingerprint mismatch after load (stored " +
        obs::DigestHex(info.dataset_fingerprint) + ", rebuilt " +
        obs::DigestHex(fingerprint) + ") — the file is corrupt");
  }
  const uint64_t digest = obs::PreparedStreamDigest(prepared->dataset);
  if (digest != info.prepared_digest) {
    return Status::Internal(
        "prepared snapshot '" + path +
        "': prepared digest mismatch after load (stored " +
        obs::DigestHex(info.prepared_digest) + ", rebuilt " +
        obs::DigestHex(digest) + ") — the file is corrupt");
  }

  prepared->cache_key = info.cache_key;
  prepared->dataset_fingerprint = fingerprint;
  prepared->prepared_digest = digest;
  // The handle reports the LOAD cost as its one-off preparation cost: that
  // is what this process actually paid, and what flows into
  // JobResult::blocking_seconds for runs executed against the handle.
  prepared->prepare_seconds = load_watch.ElapsedSeconds();
  return PreparedHandle(std::move(prepared));
}

}  // namespace gsmb
