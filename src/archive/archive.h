#ifndef UTCQ_ARCHIVE_ARCHIVE_H_
#define UTCQ_ARCHIVE_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitstream.h"
#include "core/corpus_meta.h"
#include "core/corpus_view.h"
#include "core/encoder.h"
#include "core/stiu_index.h"
#include "network/grid_index.h"
#include "traj/types.h"

namespace utcq::archive {

/// On-disk corpus container (DESIGN.md §6): a versioned binary file holding
/// everything needed to answer where/when/range queries without the original
/// uncompressed corpus — compression parameters, the four UTCQ bit streams,
/// per-trajectory metas, and (optionally) the StIU tuple lists. The road
/// network itself is *not* archived; it is shared corpus-independent state
/// the caller provides on open.
///
/// Layout (all multi-byte integers little-endian; varints are LEB128):
///
///   offset 0   : 8-byte magic "UTCQARC\0"
///              : u32 format version (kFormatVersion)
///              : varint section count
///   per section: varint tag, varint payload length, payload bytes
///   footer     : u32 CRC-32 (IEEE) of every preceding byte
///
/// Readers skip unknown section tags (forward compatibility within a major
/// version) and reject missing required sections, bad magic, newer versions,
/// truncation, and checksum mismatches.
inline constexpr char kMagic[8] = {'U', 'T', 'C', 'Q', 'A', 'R', 'C', '\0'};
/// Version 2 added the shard-manifest tag (§6 append-only rule: new tag,
/// version bump; the payload shapes of tags 1-7 are unchanged, so version-1
/// files still open). Version 3 added the T-stream sync index (tag 9,
/// DESIGN.md §16) the same way: v1/v2 files still open (their trajectories
/// simply carry no skip tables), and v3 readers skip nothing new.
inline constexpr uint32_t kFormatVersion = 3;

/// Section tags. Values are part of the on-disk format: never renumber,
/// only append.
enum class SectionTag : uint64_t {
  kParams = 1,         // UtcqParams + entry_bits + size accounting
  kTStream = 2,        // SIAR-coded shared time sequences
  kRefStream = 3,      // reference payloads
  kNrefStream = 4,     // referential non-reference payloads
  kStructure = 5,      // per-trajectory role bitmaps
  kMetas = 6,          // TrajMeta records (bit positions into the streams)
  kStiu = 7,           // serialized StIU tuple lists (optional)
  kShardManifest = 8,  // shard-set manifest (sole section of manifest files)
  kTSyncIndex = 9,     // per-trajectory T-stream sync tables (v3, optional)
};

/// The decoded contents of an archive, owning every buffer a CorpusView
/// needs. This is the neutral middle ground the writer serializes *from*
/// and the reader deserializes *into* — re-encoding a loaded payload is
/// byte-identical to the original file, which the round-trip tests pin down.
struct ArchivePayload {
  struct Stream {
    std::vector<uint8_t> bytes;
    uint64_t size_bits = 0;

    common::BitSpan span() const { return {bytes.data(), size_bits}; }
  };

  core::UtcqParams params;
  int entry_bits = 4;
  traj::ComponentSizes compressed_bits;
  Stream t, ref, nref, structure;
  std::vector<core::TrajMeta> metas;
  /// Container version this payload was decoded from, stamped back on
  /// re-encode so round-trips stay byte-identical (a v2 file must not come
  /// back labelled v3). Payloads built in memory carry the current version.
  uint32_t format_version = kFormatVersion;
  /// Serialized StIU section payload; empty when the archive carries none
  /// (or ArchiveReader::TakeIndex released it).
  std::vector<uint8_t> stiu;
  /// Grid resolution the StIU tuples were built over (from the StIU
  /// section); 0 when no index is archived.
  uint32_t stiu_cells_per_side = 0;
};

/// Description of a multi-shard archive set (DESIGN.md §8): N per-shard
/// corpus archives plus this manifest, itself stored in the §6 container
/// framing as a single kShardManifest section. The manifest records how the
/// global trajectory space was partitioned so readers can route point
/// queries and merge fan-out results; `policy` is the shard layer's
/// ShardPolicy value, opaque to the container format.
struct ShardManifest {
  struct Shard {
    /// Archive filename, relative to the manifest's directory. Decoding
    /// rejects absolute paths and ".." components (an untrusted manifest
    /// must not name files outside that directory).
    std::string file;
    /// Global trajectory index of each local index, strictly ascending.
    std::vector<uint32_t> members;
  };

  uint8_t policy = 0;
  /// Policy parameter (window seconds for time partitioning; 0 otherwise).
  int64_t time_partition_s = 0;
  std::vector<Shard> shards;

  /// Total trajectories across all shards.
  size_t num_trajectories() const;
};

/// Serializes a payload into the container format (header + sections +
/// checksum footer).
std::vector<uint8_t> EncodeArchive(const ArchivePayload& payload);

/// Parses and validates a container. Returns false (with a reason in
/// `*error`) on bad magic, unsupported version, truncation, checksum
/// mismatch, or a structurally invalid required section.
bool DecodeArchive(const uint8_t* data, size_t size, ArchivePayload* out,
                   std::string* error);

/// Serializes a shard manifest as a container whose only section is
/// kShardManifest.
std::vector<uint8_t> EncodeShardManifest(const ShardManifest& manifest);

/// Parses and validates a manifest container: same header/footer checks as
/// DecodeArchive, plus manifest-specific structure (safe relative filenames,
/// strictly ascending member lists, counts bounded by the payload).
bool DecodeShardManifest(const uint8_t* data, size_t size, ShardManifest* out,
                         std::string* error);

/// Writes `bytes` to `path` atomically (temp file + fsync + rename), the
/// §6 durability rule every archive-set file goes through.
bool SaveBytesAtomic(const std::vector<uint8_t>& bytes,
                     const std::string& path, std::string* error = nullptr);

/// Reads a whole file into `*out`. Returns false (with a reason) when the
/// file cannot be opened or read completely.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out,
                   std::string* error = nullptr);

/// Write-side entry point: captures a compressed corpus (and optionally its
/// StIU index) and saves it as one self-contained file.
class ArchiveWriter {
 public:
  explicit ArchiveWriter(const core::CompressedCorpus& corpus,
                         const core::StiuIndex* index = nullptr);

  /// Serializes to bytes without touching the filesystem (tests, custom
  /// transports).
  std::vector<uint8_t> Serialize() const;

  /// Writes the container to `path` (atomically: temp file + rename).
  bool Save(const std::string& path, std::string* error = nullptr) const;

 private:
  const core::CompressedCorpus& corpus_;
  const core::StiuIndex* index_;
};

/// Read-side entry point: opens a container, validates it, and exposes the
/// immutable CorpusView plus the reloaded StIU index. The reader owns every
/// byte the view borrows, so it must outlive all views, decoders and query
/// processors derived from it.
class ArchiveReader {
 public:
  ArchiveReader() = default;

  /// Reads and validates the file. On failure returns false, describes the
  /// problem in `*error`, and leaves the reader empty.
  bool Open(const std::string& path, std::string* error = nullptr);

  /// Same, over an in-memory image (takes ownership of the bytes).
  bool OpenBytes(std::vector<uint8_t> bytes, std::string* error = nullptr);

  bool is_open() const { return open_; }
  const core::UtcqParams& params() const { return payload_.params; }
  const ArchivePayload& payload() const { return payload_; }

  /// Immutable read-side over the loaded streams; identical in behaviour to
  /// the view of the live CompressedCorpus this archive was saved from.
  core::CorpusView view() const;

  /// True when the archive carries StIU tuples (also after TakeIndex has
  /// released their bytes).
  bool has_index() const { return payload_.stiu_cells_per_side != 0; }

  /// Grid resolution to rebuild the spatial grid with before LoadIndex.
  uint32_t index_cells_per_side() const { return payload_.stiu_cells_per_side; }

  /// Rebuilds the StIU index from the archived tuples. `grid` must have
  /// been constructed with index_cells_per_side() cells; returns nullptr
  /// (with a reason) on mismatch or when no index is archived.
  std::unique_ptr<core::StiuIndex> LoadIndex(
      const network::GridIndex& grid, std::string* error = nullptr) const;

  /// LoadIndex for readers that need the index only once: on success the
  /// archived StIU bytes are freed (payload().stiu becomes empty), so the
  /// tuples are not held twice. Later LoadIndex/TakeIndex calls fail.
  std::unique_ptr<core::StiuIndex> TakeIndex(const network::GridIndex& grid,
                                             std::string* error = nullptr);

 private:
  bool open_ = false;
  ArchivePayload payload_;
};

}  // namespace utcq::archive

#endif  // UTCQ_ARCHIVE_ARCHIVE_H_
