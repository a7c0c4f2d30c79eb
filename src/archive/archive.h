#ifndef UTCQ_ARCHIVE_ARCHIVE_H_
#define UTCQ_ARCHIVE_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <optional>
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
/// the T-stream sync interval and (optionally) the StIU parameters. The
/// per-trajectory metas, sync tables and StIU index are derived from the
/// streams on open. The road network itself is *not* archived; it is
/// shared corpus-independent state the caller provides on open.
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
/// DESIGN.md §16) the same way. Version 4 added the slim StIU section
/// (tag 10, the read fields of tag 7 only). Version 5 stores no StIU tuples:
/// tag 11 holds the index parameters and the reader derives the index from
/// the streams. Version 6 stores no metas (tag 6) and no sync tables
/// (tag 9): tag 12 holds the sync interval, and the reader derives both
/// from the streams. A tag-6, -7, -9 or -10 section of an older image is
/// kept verbatim for re-encoding; only the leading parameters of tags 7, 9
/// and 10 are read.
inline constexpr uint32_t kFormatVersion = 6;

/// Section tags. Values are part of the on-disk format: never renumber,
/// only append.
enum class SectionTag : uint64_t {
  kParams = 1,         // UtcqParams + entry_bits + size accounting
  kTStream = 2,        // SIAR-coded shared time sequences
  kRefStream = 3,      // reference payloads
  kNrefStream = 4,     // referential non-reference payloads
  kStructure = 5,      // per-trajectory role bitmaps
  kMetas = 6,          // TrajMeta records (legacy, kept verbatim)
  kStiu = 7,           // StIU tuple lists, pre-v4 shape (legacy, params read)
  kShardManifest = 8,  // shard-set manifest (sole section of manifest files)
  kTSyncIndex = 9,     // T-stream sync tables (legacy, interval read)
  kStiuV4 = 10,        // StIU tuple lists, v4 shape (legacy, params read)
  kStiuParams = 11,    // StIU cells_per_side + time_partition_s (v5, optional)
  kSyncInterval = 12,  // T-stream sync interval K (v6, omitted when K = 0)
};

/// The decoded contents of an archive, owning every stream a CorpusView
/// needs. This is the neutral middle ground the writer serializes *from*
/// and the reader deserializes *into* — re-encoding a loaded payload is
/// byte-identical to the original file, which the round-trip tests pin down.
/// It holds what the file stores; the metas are derived by ArchiveReader.
struct ArchivePayload {
  struct Stream {
    std::vector<uint8_t> bytes;
    uint64_t size_bits = 0;

    common::BitSpan span() const { return {bytes.data(), size_bits}; }
  };

  /// params.t_sync_interval is the archived K: tag 12's, a v3-v5 image's
  /// tag-9 header, or 0 when the image has neither.
  core::UtcqParams params;
  int entry_bits = 4;
  traj::ComponentSizes compressed_bits;
  Stream t, ref, nref, structure;
  /// Container version this payload was decoded from, stamped back on
  /// re-encode so round-trips stay byte-identical (a v2 file must not come
  /// back labelled v6). Payloads built in memory carry the current version.
  uint32_t format_version = kFormatVersion;
  /// The StIU section's body as read, re-encoded verbatim under `stiu_tag`
  /// so round trips stay byte-identical: a tag-11 section's parameters, or
  /// a v1-v4 image's tuple lists. Empty when the archive carries no index.
  std::vector<uint8_t> stiu;
  SectionTag stiu_tag = SectionTag::kStiuParams;
  /// The section's two leading fields, the parameters the index is derived
  /// with; meaningful only when `stiu` is non-empty.
  core::StiuParams stiu_params;
  /// A v1-v5 image's tag-6 (metas) and tag-9 (sync tables) bodies, kept
  /// verbatim for re-encoding and never read. When `legacy_syncs` is
  /// non-empty, K is written there rather than as tag 12.
  std::vector<uint8_t> legacy_metas;
  std::vector<uint8_t> legacy_syncs;
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
/// mismatch, or a structurally invalid required section. The streams are
/// not walked: ArchiveReader derives the metas from them.
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

/// Write-side entry point: captures a compressed corpus (and optionally the
/// parameters of its StIU index) and saves it as one self-contained file.
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

/// Read-side entry point: opens a container, validates it, and derives
/// what it does not store — every TrajMeta and sync table, and optionally
/// the StIU index — in one walk over its streams (DESIGN.md §6). The reader
/// owns every byte the view borrows, so it must outlive all views, decoders
/// and query processors derived from it.
class ArchiveReader {
 public:
  ArchiveReader() = default;

  /// Reads the file and opens it as OpenBytes does.
  bool Open(const std::string& path, std::string* error = nullptr);

  /// Checks the container (DecodeArchive) and derives the metas. On
  /// failure returns false, describes the problem in `*error`, and leaves
  /// the reader empty.
  bool OpenBytes(std::vector<uint8_t> bytes, std::string* error = nullptr);

  /// Opens a payload DecodeArchive produced, in one walk over its streams
  /// that derives every TrajMeta. With a non-null `grid` (of
  /// index_cells_per_side() cells, outliving the index) on an archive that
  /// carries a StIU section, the same walk derives the index into `*index`,
  /// reconstructing each instance over grid->network(). `expected`, when
  /// set, is the trajectory count a shard manifest lists for this archive.
  /// Fails, naming the trajectory, when a stream does not walk, an instance
  /// does not reconstruct, or the count differs from `expected`.
  bool OpenPayload(ArchivePayload payload, const network::GridIndex* grid,
                   std::unique_ptr<core::StiuIndex>* index,
                   std::optional<size_t> expected, std::string* error);

  bool is_open() const { return open_; }
  const core::UtcqParams& params() const { return payload_.params; }
  const ArchivePayload& payload() const { return payload_; }
  /// The metas derived on open, one per trajectory.
  const std::vector<core::TrajMeta>& metas() const { return metas_; }

  /// Immutable read-side over the loaded streams; identical in behaviour to
  /// the view of the live CompressedCorpus this archive was saved from.
  core::CorpusView view() const;

  /// True when the archive carries a StIU section.
  bool has_index() const { return !payload_.stiu.empty(); }

  /// Grid resolution to build the spatial grid with before LoadIndex; 0
  /// when no index is archived.
  uint32_t index_cells_per_side() const {
    return has_index() ? payload_.stiu_params.cells_per_side : 0;
  }

  /// Derives the StIU index of an open archive by walking its streams
  /// again (OpenPayload with a grid does it in the opening walk). `grid`
  /// must have index_cells_per_side() cells. Returns nullptr (with a
  /// reason) on a mismatch, when no index is archived, or when an instance
  /// does not reconstruct over grid.network().
  std::unique_ptr<core::StiuIndex> LoadIndex(
      const network::GridIndex& grid, std::string* error = nullptr) const;

 private:
  bool open_ = false;
  ArchivePayload payload_;
  std::vector<core::TrajMeta> metas_;
};

}  // namespace utcq::archive

#endif  // UTCQ_ARCHIVE_ARCHIVE_H_
