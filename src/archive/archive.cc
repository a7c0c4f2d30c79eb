#include "archive/archive.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <set>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/serial.h"

namespace utcq::archive {

using common::ByteReader;
using common::ByteWriter;

namespace {

/// Format bound on the StIU grid resolution. The paper sweeps 8..128 cells
/// per side; 4096 (16.7M regions) is far beyond any sane configuration,
/// and readers size per-region structures from this value before any
/// cross-check can run — it must not be attacker-scale.
constexpr uint32_t kMaxStiuCellsPerSide = 4096;

bool GetStream(ByteReader& in, ArchivePayload::Stream* stream) {
  stream->size_bits = in.GetVarint();
  // Bound before computing the byte count: a size_bits near 2^64 would wrap
  // (size_bits + 7) / 8 to a tiny number and fake a consistent section.
  if (stream->size_bits > in.remaining() * 8) return false;
  const size_t bytes = (stream->size_bits + 7) / 8;
  if (bytes != in.remaining()) return false;  // length field must agree
  stream->bytes.resize(bytes);
  in.GetBytes(stream->bytes.data(), bytes);
  return in.ok();
}

template <typename Out>
void PutParams(Out& out, const core::UtcqParams& params,
               int entry_bits, const traj::ComponentSizes& bits) {
  out.PutF64(params.eta_d);
  out.PutF64(params.eta_p);
  out.PutVarint(static_cast<uint64_t>(params.num_pivots));
  out.PutSignedVarint(params.default_interval_s);
  out.PutU8(params.disable_referential ? 1 : 0);
  out.PutVarint(static_cast<uint64_t>(entry_bits));
  out.PutVarint(bits.t_bits);
  out.PutVarint(bits.sv_bits);
  out.PutVarint(bits.e_bits);
  out.PutVarint(bits.d_bits);
  out.PutVarint(bits.tflag_bits);
  out.PutVarint(bits.p_bits);
}

bool GetParams(ByteReader& in, ArchivePayload* p) {
  p->params.eta_d = in.GetF64();
  p->params.eta_p = in.GetF64();
  p->params.num_pivots = static_cast<int>(in.GetVarint());
  p->params.default_interval_s = in.GetSignedVarint();
  p->params.disable_referential = in.GetU8() != 0;
  p->entry_bits = static_cast<int>(in.GetVarint());
  p->compressed_bits.t_bits = in.GetVarint();
  p->compressed_bits.sv_bits = in.GetVarint();
  p->compressed_bits.e_bits = in.GetVarint();
  p->compressed_bits.d_bits = in.GetVarint();
  p->compressed_bits.tflag_bits = in.GetVarint();
  p->compressed_bits.p_bits = in.GetVarint();
  // PDDP codecs require an error bound in (0, 1); entry fields are bounded
  // by the 32-bit vertex ids.
  return in.ok() && p->params.eta_d > 0.0 && p->params.eta_d < 1.0 &&
         p->params.eta_p > 0.0 && p->params.eta_p < 1.0 &&
         p->entry_bits >= 0 && p->entry_bits <= 32;
}

template <typename Out>
void PutMetas(Out& out, const std::vector<core::TrajMeta>& metas) {
  out.PutVarint(metas.size());
  for (const core::TrajMeta& m : metas) {
    out.PutVarint(m.t_pos);
    out.PutVarint(m.n_points);
    out.PutSignedVarint(m.t_first);
    out.PutSignedVarint(m.t_last);
    out.PutVarint(m.refs.size());
    for (const core::RefMeta& rm : m.refs) {
      out.PutVarint(rm.orig_index);
      out.PutVarint(rm.offset);
      out.PutVarint(rm.e_len);
      out.PutVarint(rm.d_pos);
      out.PutF32(rm.p_quantized);
    }
    out.PutVarint(m.nrefs.size());
    for (const core::NrefMeta& nm : m.nrefs) {
      out.PutVarint(nm.orig_index);
      out.PutVarint(nm.ref_pos);
      out.PutVarint(nm.offset);
      out.PutVarint(nm.e_len);
      out.PutF32(nm.p_quantized);
    }
    // Roles are fully determined by the (orig_index -> ref/nref) maps above;
    // re-derived on load instead of stored.
  }
}

bool GetMetas(ByteReader& in, std::vector<core::TrajMeta>* metas) {
  const uint64_t n = in.GetVarint();
  // Each trajectory costs at least a few bytes; a count exceeding the
  // remaining payload means a corrupt length that would OOM resize().
  if (n > in.remaining()) return false;
  metas->resize(n);
  for (core::TrajMeta& m : *metas) {
    m.t_pos = in.GetVarint();
    m.n_points = static_cast<uint32_t>(in.GetVarint());
    m.t_first = in.GetSignedVarint();
    m.t_last = in.GetSignedVarint();
    const uint64_t n_refs = in.GetVarint();
    if (n_refs > in.remaining()) return false;
    m.refs.resize(n_refs);
    for (core::RefMeta& rm : m.refs) {
      rm.orig_index = static_cast<uint32_t>(in.GetVarint());
      rm.offset = in.GetVarint();
      rm.e_len = static_cast<uint32_t>(in.GetVarint());
      rm.d_pos = in.GetVarint();
      rm.p_quantized = in.GetF32();
    }
    const uint64_t n_nrefs = in.GetVarint();
    if (n_nrefs > in.remaining()) return false;
    m.nrefs.resize(n_nrefs);
    for (core::NrefMeta& nm : m.nrefs) {
      nm.orig_index = static_cast<uint32_t>(in.GetVarint());
      nm.ref_pos = static_cast<uint32_t>(in.GetVarint());
      nm.offset = in.GetVarint();
      nm.e_len = static_cast<uint32_t>(in.GetVarint());
      nm.p_quantized = in.GetF32();
    }
    // Rebuild the role table. Every instance slot must be claimed exactly
    // once: a duplicate orig_index would leave another slot at the default
    // {false, 0}, which decodes nrefs[0] out of bounds later.
    m.roles.assign(m.refs.size() + m.nrefs.size(), {false, 0});
    std::vector<uint8_t> claimed(m.roles.size(), 0);
    for (uint32_t r = 0; r < m.refs.size(); ++r) {
      if (m.refs[r].orig_index >= m.roles.size()) return false;
      if (claimed[m.refs[r].orig_index]++ != 0) return false;
      m.roles[m.refs[r].orig_index] = {true, r};
    }
    for (uint32_t k = 0; k < m.nrefs.size(); ++k) {
      if (m.nrefs[k].orig_index >= m.roles.size()) return false;
      if (m.nrefs[k].ref_pos >= m.refs.size()) return false;
      if (claimed[m.nrefs[k].orig_index]++ != 0) return false;
      m.roles[m.nrefs[k].orig_index] = {false, k};
    }
  }
  return in.ok();
}

template <typename Out>
void PutTSyncIndex(Out& out, uint32_t interval,
                   const std::vector<core::TrajMeta>& metas) {
  out.PutVarint(interval);
  out.PutVarint(metas.size());
  for (const core::TrajMeta& m : metas) {
    out.PutVarint(m.t_syncs.size());
    // Entries and bit offsets are strictly ascending within a table (each
    // sync sits >= K entries and >= K delta codes past the previous one),
    // so delta coding keeps a sync at ~3 bytes.
    uint32_t prev_entry = 0;
    traj::Timestamp prev_t = 0;
    uint64_t prev_bit = 0;
    for (const core::TSync& s : m.t_syncs) {
      out.PutVarint(s.entry - prev_entry);
      out.PutSignedVarint(s.t - prev_t);
      out.PutVarint(s.bit - prev_bit);
      prev_entry = s.entry;
      prev_t = s.t;
      prev_bit = s.bit;
    }
  }
}

/// Parses the tag-9 payload into per-trajectory tables. Structural checks
/// only (counts bounded by the payload, interval >= 1, strictly ascending
/// entries and bit offsets, no wraparound); the cross-section checks
/// against metas and the T stream run after the walk, since tag 9 may
/// precede both in a crafted file.
bool GetTSyncIndex(ByteReader& in, uint32_t* interval,
                   std::vector<std::vector<core::TSync>>* tables) {
  const uint64_t k = in.GetVarint();
  // Interval 0 means "no sync points", which is expressed by omitting the
  // section entirely; a present table claiming 0 is crafted.
  if (k == 0 || k > UINT32_MAX) return false;
  *interval = static_cast<uint32_t>(k);
  const uint64_t n = in.GetVarint();
  if (n > in.remaining()) return false;  // >= 1 byte (count) per trajectory
  tables->resize(n);
  for (std::vector<core::TSync>& table : *tables) {
    const uint64_t count = in.GetVarint();
    if (count > in.remaining()) return false;  // >= 3 bytes per sync
    table.resize(count);
    uint32_t prev_entry = 0;
    traj::Timestamp prev_t = 0;
    uint64_t prev_bit = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      const uint64_t de = in.GetVarint();
      // A zero delta is a duplicate (or, for the first sync, entry 0 —
      // the block start needs no sync); a huge one wraps prev + de back
      // below prev and smuggles a non-monotone table past the check.
      if (de == 0 || de > UINT32_MAX - prev_entry) return false;
      const int64_t dt = in.GetSignedVarint();
      const uint64_t db = in.GetVarint();
      if (i != 0 && db == 0) return false;  // each sync is >= 1 code later
      if (db > UINT64_MAX - prev_bit) return false;
      table[i].entry = prev_entry + static_cast<uint32_t>(de);
      table[i].t = static_cast<traj::Timestamp>(
          static_cast<uint64_t>(prev_t) + static_cast<uint64_t>(dt));
      table[i].bit = prev_bit + db;
      prev_entry = table[i].entry;
      prev_t = table[i].t;
      prev_bit = table[i].bit;
    }
  }
  return in.ok();
}

/// Borrowed inputs of one archive image — the common ground of "save a live
/// corpus" (spans borrow the BitWriters and the StIU tuples are serialized
/// straight from the index into the image) and "re-encode a loaded payload"
/// (the StIU section is its archived bytes).
struct ArchiveRef {
  const core::UtcqParams* params;
  int entry_bits;
  const traj::ComponentSizes* compressed_bits;
  common::BitSpan t, ref, nref, structure;
  const std::vector<core::TrajMeta>* metas;
  /// StIU section source: the live index when non-null, else `stiu_size`
  /// archived bytes (no section when both are empty).
  const core::StiuIndex* index;
  const uint8_t* stiu;
  size_t stiu_size;
  /// Version stamped into the header; the sync index (tag 9) is written
  /// iff t_sync_interval > 0, regardless of version, so re-encoding a
  /// loaded payload reproduces the original byte-for-byte.
  uint32_t format_version;
  uint32_t t_sync_interval;
};

/// Calls visit(tag, put) for every section of the image in file order;
/// put(out) writes the section body to a ByteWriter or ByteCounter.
template <typename Visit>
void ForEachSectionBody(const ArchiveRef& p, const Visit& visit) {
  visit(SectionTag::kParams, [&](auto& out) {
    PutParams(out, *p.params, p.entry_bits, *p.compressed_bits);
  });
  const std::pair<SectionTag, const common::BitSpan*> streams[] = {
      {SectionTag::kTStream, &p.t},
      {SectionTag::kRefStream, &p.ref},
      {SectionTag::kNrefStream, &p.nref},
      {SectionTag::kStructure, &p.structure},
  };
  for (const auto& stream : streams) {
    const common::BitSpan* span = stream.second;
    visit(stream.first, [span](auto& out) {
      out.PutVarint(span->size_bits);
      out.PutBytes(span->data, span->size_bytes());
    });
  }
  visit(SectionTag::kMetas, [&](auto& out) { PutMetas(out, *p.metas); });
  if (p.index != nullptr) {
    visit(SectionTag::kStiu, [&](auto& out) { p.index->Serialize(out); });
  } else if (p.stiu_size > 0) {
    visit(SectionTag::kStiu,
          [&](auto& out) { out.PutBytes(p.stiu, p.stiu_size); });
  }
  if (p.t_sync_interval > 0) {
    visit(SectionTag::kTSyncIndex, [&](auto& out) {
      PutTSyncIndex(out, p.t_sync_interval, *p.metas);
    });
  }
}

std::vector<uint8_t> EncodeArchiveRef(const ArchiveRef& p) {
  // A counting pass through the same Put* calls measures every section
  // body first, so the image is allocated once at its exact size and each
  // body is written straight into it.
  std::vector<size_t> lengths;
  size_t sections_size = 0;
  ForEachSectionBody(p, [&](SectionTag tag, const auto& put) {
    common::ByteCounter body;
    put(body);
    lengths.push_back(body.size());
    sections_size += ByteWriter::VarintLength(static_cast<uint64_t>(tag)) +
                     ByteWriter::VarintLength(body.size()) + body.size();
  });

  ByteWriter out;
  out.Reserve(sizeof(kMagic) + sizeof(uint32_t) +
              ByteWriter::VarintLength(lengths.size()) + sections_size +
              sizeof(uint32_t));
  out.PutBytes(kMagic, sizeof(kMagic));
  out.PutU32(p.format_version);
  out.PutVarint(lengths.size());
  size_t section = 0;
  ForEachSectionBody(p, [&](SectionTag tag, const auto& put) {
    out.PutVarint(static_cast<uint64_t>(tag));
    out.PutVarint(lengths[section++]);
    put(out);
  });
  out.PutU32(common::Crc32(out.bytes().data(), out.size()));
  return out.Release();
}

/// Shared container-envelope walk: validates magic, the CRC footer, and a
/// version within [min_version, kFormatVersion], then iterates the section
/// table invoking on_section(tag, body, length) — with the spin guard, so a
/// crafted section count (up to 2^64-1) fails on the first exhausted read
/// instead of iterating 2^64 times. Both decoders parse through this one
/// function; envelope fixes land exactly once. `kind` names the container
/// in error strings. on_section aborts the walk by returning false (having
/// set *error itself).
bool ForEachSection(
    const uint8_t* data, size_t size, uint32_t min_version,
    const std::string& kind, std::string* error,
    const std::function<bool(uint64_t, const uint8_t*, uint64_t)>&
        on_section) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (size < sizeof(kMagic) + sizeof(uint32_t) * 2) {
    return fail(kind + " truncated: shorter than header + footer");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return fail("bad magic: not a UTCQ " + kind);
  }
  const uint32_t stored_crc = ByteReader(data + size - 4, 4).GetU32();
  if (common::Crc32(data, size - 4) != stored_crc) {
    return fail("checksum mismatch: " + kind + " corrupt or truncated");
  }
  ByteReader in(data, size - 4);
  in.Skip(sizeof(kMagic));
  const uint32_t version = in.GetU32();
  if (version < min_version || version > kFormatVersion) {
    return fail("unsupported " + kind + " format version");
  }
  const uint64_t section_count = in.GetVarint();
  for (uint64_t i = 0; i < section_count; ++i) {
    if (!in.ok()) return fail(kind + " section table truncated");
    const uint64_t tag = in.GetVarint();
    const uint64_t length = in.GetVarint();
    const uint8_t* body = in.BorrowBytes(length);
    if (body == nullptr) return fail(kind + " section table truncated");
    if (!on_section(tag, body, length)) return false;
  }
  if (!in.ok()) return fail(kind + " parse overran the buffer");
  return true;
}

/// A manifest filename must stay inside the manifest's own directory: plain
/// relative paths only, no absolute paths, no ".." components, no NULs.
bool SafeRelativeFilename(const std::string& name) {
  if (name.empty() || name.front() == '/' || name.front() == '\\') {
    return false;
  }
  if (name.find('\0') != std::string::npos) return false;
  size_t start = 0;
  while (start <= name.size()) {
    const size_t end = name.find_first_of("/\\", start);
    const std::string part =
        name.substr(start, end == std::string::npos ? end : end - start);
    if (part == "..") return false;
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return true;
}

}  // namespace

size_t ShardManifest::num_trajectories() const {
  size_t total = 0;
  for (const Shard& s : shards) total += s.members.size();
  return total;
}

std::vector<uint8_t> EncodeShardManifest(const ShardManifest& manifest) {
  ByteWriter body;
  body.PutU8(manifest.policy);
  body.PutSignedVarint(manifest.time_partition_s);
  body.PutVarint(manifest.shards.size());
  for (const ShardManifest::Shard& s : manifest.shards) {
    body.PutBlob(s.file.data(), s.file.size());
    body.PutVarint(s.members.size());
    // Members are strictly ascending; delta coding keeps dense assignments
    // (round-robin, contiguous ranges) at a byte or two per trajectory.
    uint32_t prev = 0;
    for (size_t i = 0; i < s.members.size(); ++i) {
      body.PutVarint(i == 0 ? s.members[0] : s.members[i] - prev);
      prev = s.members[i];
    }
  }

  ByteWriter out;
  out.PutBytes(kMagic, sizeof(kMagic));
  out.PutU32(kFormatVersion);
  out.PutVarint(1);  // section count
  out.PutVarint(static_cast<uint64_t>(SectionTag::kShardManifest));
  out.PutBlob(body.bytes().data(), body.size());
  out.PutU32(common::Crc32(out.bytes().data(), out.size()));
  return out.Release();
}

bool DecodeShardManifest(const uint8_t* data, size_t size, ShardManifest* out,
                         std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };

  *out = ShardManifest{};
  bool have_manifest = false;
  const bool walked = ForEachSection(
      data, size, /*min_version=*/2, "manifest", error,
      [&](uint64_t tag, const uint8_t* body, uint64_t length) {
        if (static_cast<SectionTag>(tag) != SectionTag::kShardManifest) {
          return true;  // unknown section: skip (forward compatibility)
        }
        ByteReader section(body, length);
        out->policy = section.GetU8();
        out->time_partition_s = section.GetSignedVarint();
        const uint64_t num_shards = section.GetVarint();
        // Every shard costs at least a filename blob and a member count.
        if (num_shards > section.remaining()) {
          return fail("manifest shard count exceeds the payload");
        }
        out->shards.resize(num_shards);
        for (ShardManifest::Shard& s : out->shards) {
          const uint64_t name_len = section.GetVarint();
          const uint8_t* name = section.BorrowBytes(name_len);
          if (name == nullptr) return fail("manifest filename truncated");
          s.file.assign(reinterpret_cast<const char*>(name), name_len);
          if (!SafeRelativeFilename(s.file)) {
            return fail("manifest filename escapes the manifest directory");
          }
          const uint64_t num_members = section.GetVarint();
          if (num_members > section.remaining()) {
            return fail("manifest member count exceeds the payload");
          }
          s.members.resize(num_members);
          uint64_t prev = 0;
          for (size_t m = 0; m < s.members.size(); ++m) {
            const uint64_t delta = section.GetVarint();
            // Deltas must advance and must not wrap prev + delta back
            // below prev (a crafted delta near 2^64 would otherwise
            // smuggle a non-ascending list past this check).
            if (m != 0 && (delta == 0 || delta > UINT32_MAX - prev)) {
              return fail("manifest member list is not strictly ascending");
            }
            const uint64_t value = m == 0 ? delta : prev + delta;
            if (value > UINT32_MAX) {
              return fail("manifest member list is not strictly ascending");
            }
            s.members[m] = static_cast<uint32_t>(value);
            prev = value;
          }
        }
        if (!section.ok()) return fail("manifest section failed to parse");
        have_manifest = true;
        return true;
      });
  if (!walked) return false;
  if (!have_manifest) return fail("container has no shard-manifest section");
  // Two entries naming one file would pass the per-shard count checks and
  // the member-partition check while routing half the global space to the
  // wrong trajectories; a shard file belongs to exactly one shard.
  std::set<std::string> names;
  for (const ShardManifest::Shard& s : out->shards) {
    if (!names.insert(s.file).second) {
      return fail("manifest names a shard file twice");
    }
  }
  return true;
}

std::vector<uint8_t> EncodeArchive(const ArchivePayload& payload) {
  return EncodeArchiveRef({&payload.params, payload.entry_bits,
                           &payload.compressed_bits, payload.t.span(),
                           payload.ref.span(), payload.nref.span(),
                           payload.structure.span(), &payload.metas, nullptr,
                           payload.stiu.data(), payload.stiu.size(),
                           payload.format_version,
                           payload.params.t_sync_interval});
}

bool DecodeArchive(const uint8_t* data, size_t size, ArchivePayload* out,
                   std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };

  *out = ArchivePayload{};
  // Pre-v3 semantics until a sync index proves otherwise: the in-memory
  // default K would otherwise leak into payloads loaded from v1/v2 files
  // (and re-encode them with a sync section the original never had).
  out->params.t_sync_interval = 0;
  bool have_params = false;
  bool have_metas = false;
  bool have_streams[4] = {false, false, false, false};
  bool have_syncs = false;
  uint32_t sync_interval = 0;
  std::vector<std::vector<core::TSync>> sync_tables;
  const bool walked = ForEachSection(
      data, size, /*min_version=*/1, "archive", error,
      [&](uint64_t tag, const uint8_t* body, uint64_t length) {
        ByteReader section(body, length);
        switch (static_cast<SectionTag>(tag)) {
          case SectionTag::kParams:
            if (!GetParams(section, out)) {
              return fail("invalid params section");
            }
            have_params = true;
            break;
          case SectionTag::kTStream:
            if (!GetStream(section, &out->t)) return fail("invalid T stream");
            have_streams[0] = true;
            break;
          case SectionTag::kRefStream:
            if (!GetStream(section, &out->ref)) {
              return fail("invalid ref stream");
            }
            have_streams[1] = true;
            break;
          case SectionTag::kNrefStream:
            if (!GetStream(section, &out->nref)) {
              return fail("invalid nref stream");
            }
            have_streams[2] = true;
            break;
          case SectionTag::kStructure:
            if (!GetStream(section, &out->structure)) {
              return fail("invalid structure stream");
            }
            have_streams[3] = true;
            break;
          case SectionTag::kMetas:
            if (!GetMetas(section, &out->metas)) {
              return fail("invalid metas section");
            }
            have_metas = true;
            break;
          case SectionTag::kStiu: {
            out->stiu.assign(body, body + length);
            // Peek the cells_per_side the tuples were built over (first
            // field of the StIU payload) so callers can rebuild a matching
            // grid.
            ByteReader peek(body, length);
            const uint64_t cells = peek.GetVarint();
            if (!peek.ok() || cells == 0 || cells > kMaxStiuCellsPerSide) {
              return fail("invalid StIU section");
            }
            out->stiu_cells_per_side = static_cast<uint32_t>(cells);
            break;
          }
          case SectionTag::kTSyncIndex:
            if (!GetTSyncIndex(section, &sync_interval, &sync_tables)) {
              return fail("invalid sync-index section");
            }
            have_syncs = true;
            break;
          default:
            break;  // unknown section: skip (forward compatibility)
        }
        return true;
      });
  if (!walked) return false;
  if (!have_params || !have_metas || !have_streams[0] || !have_streams[1] ||
      !have_streams[2] || !have_streams[3]) {
    return fail("archive missing a required section");
  }
  // The envelope was validated by the walk; keep the stored version so a
  // re-encode stamps the same header the file arrived with.
  out->format_version = ByteReader(data + sizeof(kMagic), 4).GetU32();

  // Cross-section sanity: every meta bit position must land inside its
  // stream, or later partial decodes would read out of bounds.
  for (const core::TrajMeta& m : out->metas) {
    if (m.t_pos > out->t.size_bits) return fail("meta t_pos out of range");
    // n_points drives decode-side allocations; a trajectory with n points
    // stores n-1 SIAR deltas of >= 1 bit each in the T stream.
    if (m.n_points > out->t.size_bits + 1) {
      return fail("meta n_points exceeds the T stream");
    }
    for (const core::RefMeta& rm : m.refs) {
      if (rm.offset > out->ref.size_bits || rm.d_pos > out->ref.size_bits) {
        return fail("ref meta offset out of range");
      }
    }
    for (const core::NrefMeta& nm : m.nrefs) {
      if (nm.offset > out->nref.size_bits) {
        return fail("nref meta offset out of range");
      }
    }
  }

  // Merge the sync index into the metas (tag 9 may have preceded tag 6 in
  // a crafted file, so the cross-section checks run only now): each table
  // belongs to the same-position trajectory, every entry must leave at
  // least one more entry to scan toward, and every bit offset must leave
  // at least one delta code in the T stream.
  if (have_syncs) {
    if (sync_tables.size() != out->metas.size()) {
      return fail("sync-index trajectory count disagrees with the metas");
    }
    for (size_t j = 0; j < sync_tables.size(); ++j) {
      for (const core::TSync& s : sync_tables[j]) {
        if (s.entry + 1 >= out->metas[j].n_points) {
          return fail("sync-index entry out of range");
        }
        if (s.bit >= out->t.size_bits) {
          return fail("sync-index bit offset past the T stream");
        }
      }
      out->metas[j].t_syncs = std::move(sync_tables[j]);
    }
    out->params.t_sync_interval = sync_interval;
  }
  return true;
}

ArchiveWriter::ArchiveWriter(const core::CompressedCorpus& corpus,
                             const core::StiuIndex* index)
    : corpus_(corpus), index_(index) {}

std::vector<uint8_t> ArchiveWriter::Serialize() const {
  // Streams are borrowed straight from the corpus's BitWriters and the
  // StIU tuples are serialized from the index into the image: the output
  // image is the only buffer written.
  //
  // A corpus built without sync points (K == 0) serializes as v2: the
  // image carries nothing a v2 reader cannot parse, so it should not
  // claim a version that locks v2 readers out.
  const uint32_t interval = corpus_.params().t_sync_interval;
  return EncodeArchiveRef(
      {&corpus_.params(), corpus_.entry_bits(), &corpus_.compressed_bits(),
       corpus_.t_stream().span(), corpus_.ref_stream().span(),
       corpus_.nref_stream().span(), corpus_.structure_stream().span(),
       &corpus_.metas(), index_, nullptr, 0,
       interval > 0 ? kFormatVersion : 2, interval});
}

bool ArchiveWriter::Save(const std::string& path, std::string* error) const {
  return SaveBytesAtomic(Serialize(), path, error);
}

bool SaveBytesAtomic(const std::vector<uint8_t>& bytes,
                     const std::string& path, std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  // Atomicity needs durability: the data blocks must be on disk before the
  // rename publishes the new name, or a crash can lose both old and new
  // archive (rename is metadata-only; the page cache holds the payload).
  bool synced = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  synced = std::fflush(f) == 0 && synced;
#ifndef _WIN32
  synced = ::fsync(::fileno(f)) == 0 && synced;
#endif
  synced = std::fclose(f) == 0 && synced;
  if (!synced) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "short write to " + tmp;
    return false;
  }
#ifdef _WIN32
  // POSIX rename replaces an existing target atomically; Windows refuses,
  // so drop the old archive first (losing atomicity, which the platform
  // cannot offer through std::rename anyway).
  std::remove(path.c_str());
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    return false;
  }
#ifndef _WIN32
  // Persist the rename itself (the directory entry).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
#endif
  return true;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out,
                   std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->clear();
  if (file_size > 0) {
    out->resize(static_cast<size_t>(file_size));
    if (std::fread(out->data(), 1, out->size(), f) != out->size()) {
      std::fclose(f);
      if (error != nullptr) *error = "short read from " + path;
      return false;
    }
  }
  std::fclose(f);
  return true;
}

bool ArchiveReader::Open(const std::string& path, std::string* error) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes, error)) return false;
  return OpenBytes(std::move(bytes), error);
}

bool ArchiveReader::OpenBytes(std::vector<uint8_t> bytes, std::string* error) {
  open_ = false;
  payload_ = ArchivePayload{};
  ArchivePayload parsed;
  if (!DecodeArchive(bytes.data(), bytes.size(), &parsed, error)) {
    return false;
  }
  payload_ = std::move(parsed);
  open_ = true;
  return true;
}

core::CorpusView ArchiveReader::view() const {
  return core::CorpusView(payload_.params, payload_.entry_bits,
                          payload_.t.span(), payload_.ref.span(),
                          payload_.nref.span(), payload_.structure.span(),
                          payload_.metas.data(), payload_.metas.size());
}

std::unique_ptr<core::StiuIndex> ArchiveReader::LoadIndex(
    const network::GridIndex& grid, std::string* error) const {
  if (!has_index()) {
    if (error != nullptr) *error = "archive carries no StIU section";
    return nullptr;
  }
  if (payload_.stiu.empty()) {
    if (error != nullptr) *error = "StIU section already released by TakeIndex";
    return nullptr;
  }
  if (grid.num_regions() != uint64_t{payload_.stiu_cells_per_side} *
                                payload_.stiu_cells_per_side) {
    if (error != nullptr) {
      *error = "grid resolution does not match the archived StIU tuples";
    }
    return nullptr;
  }
  ByteReader in(payload_.stiu);
  auto index = std::make_unique<core::StiuIndex>(grid, in);
  if (!in.ok()) {
    if (error != nullptr) *error = "StIU section failed to parse";
    return nullptr;
  }
  // The index must agree with the metas section it was archived with:
  // queries index temporal_ by trajectory id, and every trajectory has at
  // least one temporal tuple by construction (times are never empty).
  if (index->num_trajectories() != payload_.metas.size()) {
    if (error != nullptr) {
      *error = "StIU trajectory count disagrees with the metas section";
    }
    return nullptr;
  }
  for (size_t j = 0; j < index->num_trajectories(); ++j) {
    if (index->TemporalOf(j).empty()) {
      if (error != nullptr) {
        *error = "StIU section has a trajectory with no temporal tuples";
      }
      return nullptr;
    }
  }
  // Spatial tuples feed straight into meta(traj).refs[ref_idx] /
  // .nrefs[nref_idx] on the query path; reject any that point outside the
  // metas section rather than letting queries index out of bounds.
  for (network::RegionId re = 0; re < grid.num_regions(); ++re) {
    for (const auto& rt : index->RefTuplesIn(re)) {
      if (rt.traj >= payload_.metas.size() ||
          rt.ref_idx >= payload_.metas[rt.traj].refs.size()) {
        if (error != nullptr) {
          *error = "StIU ref tuple points outside the metas section";
        }
        return nullptr;
      }
    }
    for (const auto& nt : index->NrefTuplesIn(re)) {
      if (nt.traj >= payload_.metas.size() ||
          nt.nref_idx >= payload_.metas[nt.traj].nrefs.size()) {
        if (error != nullptr) {
          *error = "StIU nref tuple points outside the metas section";
        }
        return nullptr;
      }
    }
  }
  return index;
}

std::unique_ptr<core::StiuIndex> ArchiveReader::TakeIndex(
    const network::GridIndex& grid, std::string* error) {
  std::unique_ptr<core::StiuIndex> index = LoadIndex(grid, error);
  // Move-assign an empty vector: `= {}` would clear but keep the capacity.
  if (index != nullptr) payload_.stiu = std::vector<uint8_t>();
  return index;
}

}  // namespace utcq::archive
