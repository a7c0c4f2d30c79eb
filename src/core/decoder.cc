#include "core/decoder.h"

#include <algorithm>
#include <iterator>

#include "common/exp_golomb.h"
#include "common/varint.h"
#include "core/improved_ted.h"
#include "core/referential.h"
#include "strategies/kernels.h"

namespace utcq::core {

using common::BitReader;
using common::BitsFor;

namespace {

/// Decodes the T block at r's position into `out` (cleared, capacity
/// kept). With a non-null `syncs`, also records the encoder's sync points
/// (DESIGN.md §16): after every K-th delta, K = t_sync_interval, while an
/// entry remains to scan toward. Returns false, `out` empty, when the block
/// holds no time or runs past the stream.
bool ReadTimes(const CorpusView& cc, BitReader& r,
               std::vector<traj::Timestamp>* out, std::vector<TSync>* syncs) {
  out->clear();
  const uint64_t n = common::GetVarint(r);
  auto t = static_cast<traj::Timestamp>(r.GetBits(17));
  // Streams may come from an untrusted archive: every delta costs at least
  // one bit, so a count beyond the remaining bits is corrupt, not large.
  if (r.overflow() || n == 0 || n - 1 > r.remaining() || n > UINT32_MAX) {
    return false;
  }
  const uint32_t k = syncs != nullptr ? cc.params().t_sync_interval : 0;
  // SIAR expansion fused into the decode loop: accumulating each timestamp
  // as its delta comes off the stream skips an intermediate delta vector.
  out->reserve(n);
  out->push_back(t);
  const int64_t interval = cc.params().default_interval_s;
  // Deltas come off the stream through the batched kernel, a chunk per
  // call, each chunk ending at the next sync entry; a short chunk means
  // overflow latched mid-stream, which discards the whole sequence.
  int64_t deltas[128];
  uint64_t entry = 0;
  while (entry + 1 < n) {
    uint64_t want = std::min<uint64_t>(n - 1 - entry, std::size(deltas));
    if (k > 0) want = std::min<uint64_t>(want, k - entry % k);
    const size_t got = strategies::DecodeIeg(r, deltas, want);
    for (size_t i = 0; i < got; ++i) {
      t += interval + deltas[i];
      out->push_back(t);
    }
    if (got < want) {
      out->clear();
      return false;
    }
    entry += got;
    if (k > 0 && entry % k == 0 && entry + 1 < n) {
      syncs->push_back({static_cast<uint32_t>(entry), t, r.position()});
    }
  }
  return true;
}

/// Clears `d`'s vectors, keeping their capacity: a decode loop that threads
/// one DecodedInstance through many instances allocates only while the
/// buffers are still growing toward the corpus maximum.
void Reset(DecodedInstance* d) {
  d->entries.clear();
  d->tflag_trimmed.clear();
  d->rds.clear();
  d->p = 0.0;
}

/// Decodes the reference block at r's position into `out`; `d_pos`, when
/// non-null, receives the bit position of its first D code. Returns false
/// when the block runs past the stream.
bool ReadReference(const CorpusView& cc, BitReader& r, uint32_t n_points,
                   DecodedInstance* out, uint64_t* d_pos = nullptr) {
  DecodedInstance& d = *out;
  Reset(&d);
  d.sv = static_cast<network::VertexId>(r.GetBits(32));
  const uint64_t e_len = common::GetVarint(r);
  // Untrusted-stream guard: each entry costs >= 1 bit (entry_bits >= 1).
  if (e_len > r.remaining()) return false;
  d.entries.resize(e_len);
  const int entry_bits = cc.entry_bits();
  for (uint32_t& e : d.entries) {
    e = static_cast<uint32_t>(r.GetBits(entry_bits));
  }
  const size_t trimmed = e_len >= 2 ? e_len - 2 : 0;
  d.tflag_trimmed.resize(trimmed);
  strategies::UnpackBits(r, d.tflag_trimmed.data(), d.tflag_trimmed.size());
  if (d_pos != nullptr) *d_pos = r.position();
  if (n_points > r.remaining()) return false;  // each rd code costs >= 1 bit
  // The per-point rd codes go through the batched kernel, not one
  // out-of-line PddpCodec::Decode call per point.
  const common::PddpCodec& dc = cc.d_codec();
  d.rds.resize(n_points);
  strategies::PddpRun(r, dc.length_field_bits(), dc.max_code_bits(),
                      d.rds.data(), d.rds.size());
  const common::PddpCodec& pc = cc.p_codec();
  d.p = strategies::PddpDecode(r, pc.length_field_bits(), pc.max_code_bits());
  return !r.overflow();
}

/// Decodes the non-reference block at r's position into `out`, expanding
/// against its reference `ref` (which must not alias `out`). Returns false
/// when the block runs past the stream or names a copy its reference does
/// not hold, so that it decodes to other than its own lengths.
bool ReadNonReference(const CorpusView& cc, BitReader& r, uint32_t n_points,
                      const DecodedInstance& ref, DecodedInstance* out) {
  DecodedInstance& d = *out;
  Reset(&d);
  d.sv = ref.sv;  // SV(Nref) is omitted: identical to the reference's

  // --- E factors ---
  // Factor operands come straight off a possibly untrusted stream, so every
  // copy range is validated against the reference and the loop stops on
  // reader overflow (a crafted length can then truncate the result, never
  // read out of bounds or spin).
  const uint64_t e_len = common::GetVarint(r);
  const uint32_t ref_e_len = static_cast<uint32_t>(ref.entries.size());
  const int s_bits = BitsFor(ref_e_len);
  const int l_bits = BitsFor(ref_e_len > 0 ? ref_e_len - 1 : 0);
  d.entries.reserve(std::min<uint64_t>(e_len, r.remaining()));
  while (d.entries.size() < e_len && !r.overflow()) {
    const uint32_t s = static_cast<uint32_t>(r.GetBits(s_bits));
    if (s == ref_e_len) {  // case B
      d.entries.push_back(static_cast<uint32_t>(r.GetBits(cc.entry_bits())));
      continue;
    }
    if (s > ref_e_len) return false;  // corrupt factor start
    const uint32_t l = static_cast<uint32_t>(r.GetBits(l_bits)) + 1;
    if (l > ref_e_len - s) return false;  // corrupt copy length
    d.entries.insert(d.entries.end(), ref.entries.begin() + s,
                     ref.entries.begin() + s + l);
    if (d.entries.size() < e_len) {
      d.entries.push_back(static_cast<uint32_t>(r.GetBits(cc.entry_bits())));
    }
  }
  if (d.entries.size() != e_len) return false;

  // --- T' ---
  const size_t trimmed_len = e_len >= 2 ? e_len - 2 : 0;
  const auto mode = static_cast<TflagMode>(r.GetBits(2));
  switch (mode) {
    case TflagMode::kIdentical:
      d.tflag_trimmed = ref.tflag_trimmed;
      break;
    case TflagMode::kLiteral:
      d.tflag_trimmed.resize(trimmed_len);
      strategies::UnpackBits(r, d.tflag_trimmed.data(), d.tflag_trimmed.size());
      break;
    case TflagMode::kFactors: {
      const uint32_t rtl = static_cast<uint32_t>(ref.tflag_trimmed.size());
      const int ts_bits = BitsFor(rtl > 0 ? rtl - 1 : 0);
      const int tl_bits = BitsFor(rtl);
      const uint64_t h = common::GetVarint(r);
      // Untrusted-stream guards mirroring the E-factor loop above.
      if (h > r.remaining() + trimmed_len + 1) return false;
      d.tflag_trimmed.reserve(trimmed_len);
      for (uint64_t k = 0; k < h && !r.overflow(); ++k) {
        const uint32_t s = static_cast<uint32_t>(r.GetBits(ts_bits));
        const uint32_t l = static_cast<uint32_t>(r.GetBits(tl_bits));
        if (s > rtl || l > rtl - s) return false;  // corrupt factor
        d.tflag_trimmed.insert(d.tflag_trimmed.end(),
                               ref.tflag_trimmed.begin() + s,
                               ref.tflag_trimmed.begin() + s + l);
        if (k + 1 < h) {
          if (s + l >= rtl) return false;  // inferred mismatch needs ref[s + l]
          // Inferred mismatch: NOT ref[s + l].
          d.tflag_trimmed.push_back(ref.tflag_trimmed[s + l] ? 0 : 1);
        }
      }
      if (d.tflag_trimmed.size() < trimmed_len) {
        d.tflag_trimmed.push_back(r.GetBits(1) != 0 ? 1 : 0);  // final M
      }
      break;
    }
    default:
      return false;  // mode 3 is never written
  }
  if (d.tflag_trimmed.size() != trimmed_len) return false;

  // --- D diffs ---
  const uint64_t h_d = common::GetVarint(r);
  if (h_d > r.remaining()) return false;  // each diff costs >= 1 bit
  const int pos_bits = BitsFor(n_points > 0 ? n_points - 1 : 0);
  const common::PddpCodec& dc = cc.d_codec();
  d.rds = ref.rds;
  for (uint64_t k = 0; k < h_d && !r.overflow(); ++k) {
    const uint32_t pos = static_cast<uint32_t>(r.GetBits(pos_bits));
    if (pos >= d.rds.size()) return false;
    d.rds[pos] = strategies::PddpDecode(r, dc.length_field_bits(),
                                        dc.max_code_bits());
  }

  const common::PddpCodec& pc = cc.p_codec();
  d.p = strategies::PddpDecode(r, pc.length_field_bits(), pc.max_code_bits());
  return !r.overflow();
}

}  // namespace

std::vector<traj::Timestamp> UtcqDecoder::DecodeTimes(size_t j) const {
  std::vector<traj::Timestamp> times;
  DecodeTimesInto(j, &times);
  return times;
}

uint64_t UtcqDecoder::DecodeTimesInto(
    size_t j, std::vector<traj::Timestamp>* out) const {
  const uint64_t start = cc_.meta(j).t_pos;
  BitReader r = cc_.t_reader();
  r.Seek(start);
  return ReadTimes(cc_, r, out, nullptr) ? r.position() - start : 0;
}

std::optional<UtcqDecoder::TimeBracket> UtcqDecoder::BracketTime(
    size_t j, traj::Timestamp t, uint32_t t_no, traj::Timestamp t_start,
    uint64_t t_pos, SeekStats* seek) const {
  const TrajMeta& meta = cc_.meta(j);
  if (t < t_start || meta.n_points == 0) return std::nullopt;
  if (t_no + 1 >= meta.n_points) {
    return t == t_start ? std::optional<TimeBracket>(
                              TimeBracket{t_no, t_start, t_start})
                        : std::nullopt;
  }
  BitReader r = cc_.t_reader();
  // Upgrade the scan start through the skip table: the latest sync with
  // entry > t_no and t strictly below the query time. Strictness keeps the
  // seek path identical to the full scan on boundary queries (t exactly
  // equal to a sample time brackets at the previous entry — see the §16
  // contract on the declaration). Tables are derived from the stream by
  // the encoder's rule, so every sync lies inside the block.
  for (auto it = meta.t_syncs.rbegin(); it != meta.t_syncs.rend(); ++it) {
    if (it->entry > t_no && it->t < t) {
      t_no = it->entry;
      t_start = it->t;
      t_pos = it->bit;
      if (seek != nullptr) ++seek->sync_seeks;
      break;
    }
  }
  r.Seek(t_pos);
  traj::Timestamp cur = t_start;
  for (uint32_t i = t_no; i + 1 < meta.n_points; ++i) {
    const int64_t delta = common::GetImprovedExpGolomb(r);
    const traj::Timestamp next =
        cur + cc_.params().default_interval_s + delta;
    if (t <= next) {
      if (seek != nullptr) seek->bits_read += r.position() - t_pos;
      return TimeBracket{i, cur, next};
    }
    cur = next;
  }
  if (seek != nullptr) seek->bits_read += r.position() - t_pos;
  return std::nullopt;  // t beyond the last timestamp
}

std::optional<UtcqDecoder::TimeBracket> UtcqDecoder::BracketInTimes(
    const std::vector<traj::Timestamp>& times, uint32_t n_points,
    traj::Timestamp t, uint32_t t_no, traj::Timestamp t_start) {
  if (t < t_start || n_points == 0) return std::nullopt;
  if (t_no + 1 >= n_points) {
    return t == t_start ? std::optional<TimeBracket>(
                              TimeBracket{t_no, t_start, t_start})
                        : std::nullopt;
  }
  // Mirror BracketTime's forward scan exactly (including its behaviour over
  // a non-monotone sequence) so cached and live brackets never diverge.
  for (uint32_t i = t_no; i + 1 < n_points && i + 1 < times.size(); ++i) {
    if (t <= times[i + 1]) return TimeBracket{i, times[i], times[i + 1]};
  }
  return std::nullopt;
}

uint64_t UtcqDecoder::DecodeReferenceInto(size_t j, uint32_t ref_idx,
                                          DecodedInstance* out) const {
  const TrajMeta& meta = cc_.meta(j);
  const uint64_t start = meta.refs[ref_idx].offset;
  BitReader r = cc_.ref_reader();
  r.Seek(start);
  return ReadReference(cc_, r, meta.n_points, out) ? r.position() - start : 0;
}

uint64_t UtcqDecoder::DecodeNonReferenceInto(size_t j, uint32_t nref_idx,
                                             const DecodedInstance& ref,
                                             DecodedInstance* out) const {
  const TrajMeta& meta = cc_.meta(j);
  const uint64_t start = meta.nrefs[nref_idx].offset;
  BitReader r = cc_.nref_reader();
  r.Seek(start);
  return ReadNonReference(cc_, r, meta.n_points, ref, out)
             ? r.position() - start
             : 0;
}

std::optional<traj::TrajectoryInstance> UtcqDecoder::ToInstance(
    const DecodedInstance& d) const {
  traj::TrajectoryInstance inst;
  std::vector<uint8_t> flags;
  if (!ToInstanceInto(d, &inst, &flags)) return std::nullopt;
  return inst;
}

bool UtcqDecoder::ToInstanceInto(const DecodedInstance& d,
                                 traj::TrajectoryInstance* out,
                                 std::vector<uint8_t>* flags) const {
  UntrimTimeFlags(d.tflag_trimmed, d.entries.size(), flags);
  return traj::ReconstructInstanceInto(net_, d.sv, d.entries, *flags, d.rds,
                                       d.p, out);
}

traj::DecodedTraj UtcqDecoder::DecodeTraj(size_t j) const {
  const TrajMeta& meta = cc_.meta(j);
  traj::DecodedTraj dt;
  dt.times = DecodeTimes(j);
  dt.ref_insts.resize(meta.refs.size());
  dt.nref_insts.resize(meta.nrefs.size());
  // References are kept in decoded (improved-TED) form for the duration of
  // the walk: every non-reference expands against its reference's entries,
  // not against the reconstructed instance.
  // Non-references are transient, so one scratch instance serves them all.
  std::vector<DecodedInstance> refs(meta.refs.size());
  for (uint32_t r = 0; r < meta.refs.size(); ++r) {
    DecodeReferenceInto(j, r, &refs[r]);
    dt.ref_insts[r] = ToInstance(refs[r]);
  }
  DecodedInstance scratch;
  for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
    DecodeNonReferenceInto(j, k, refs[meta.nrefs[k].ref_pos], &scratch);
    dt.nref_insts[k] = ToInstance(scratch);
  }
  return dt;
}

traj::UncertainCorpus UtcqDecoder::DecompressAll() const {
  // One walk over the streams: each trajectory is reconstructed as it is
  // decoded, and an instance that does not reconstruct keeps its slot
  // default.
  traj::UncertainCorpus corpus;
  corpus.reserve(cc_.num_trajectories());
  std::vector<TrajMeta> metas;
  DeriveMetas(cc_, &metas, nullptr,
              [&](std::vector<traj::Timestamp>& times,
                  std::span<const DecodedInstance> instances) {
                traj::UncertainTrajectory& tu = corpus.emplace_back();
                tu.id = corpus.size() - 1;
                tu.times.swap(times);
                tu.instances.resize(instances.size());
                for (size_t w = 0; w < instances.size(); ++w) {
                  if (auto inst = ToInstance(instances[w])) {
                    tu.instances[w] = std::move(*inst);
                  }
                }
                return true;
              });
  return corpus;
}

bool DeriveMetas(const CorpusView& cc, std::vector<TrajMeta>* metas,
                 std::string* error, const DerivedTrajVisitor& visit) {
  metas->clear();
  BitReader t = cc.t_reader();
  BitReader structure(cc.structure_span());
  BitReader ref = cc.ref_reader();
  BitReader nref = cc.nref_reader();
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::vector<traj::Timestamp> times;
  std::vector<DecodedInstance> insts;  // by original position; only grows
  while (t.position() < t.size_bits()) {
    // The reason names the trajectory, which is built only on failure.
    const auto traj = [metas] {
      return "trajectory " + std::to_string(metas->size() - 1);
    };
    TrajMeta& m = metas->emplace_back();
    if (structure.position() == structure.size_bits()) {
      return fail(traj() + ": T stream holds bits past the last structure "
                           "record");
    }
    m.t_pos = t.position();
    if (!ReadTimes(cc, t, &times, &m.t_syncs)) {
      return fail(traj() + ": T block runs past the end of the T stream");
    }
    m.n_points = static_cast<uint32_t>(times.size());
    m.t_first = times.front();
    m.t_last = times.back();

    // Structure record: instance count, the reference bitmap, then each
    // non-reference's reference position (the encoder's order).
    const uint64_t n_inst = common::GetVarint(structure);
    const char* const kPastStructure =
        ": structure record runs past the end of the structure stream";
    if (structure.overflow() || n_inst > structure.remaining()) {
      return fail(traj() + kPastStructure);
    }
    m.roles.resize(n_inst);
    uint32_t n_refs = 0;
    uint32_t n_nrefs = 0;
    for (auto& role : m.roles) {
      const bool is_ref = structure.GetBit();
      role = {is_ref, is_ref ? n_refs++ : n_nrefs++};
    }
    m.refs.resize(n_refs);
    m.nrefs.resize(n_nrefs);
    const int ref_bits = BitsFor(n_refs > 0 ? n_refs - 1 : 0);
    for (uint32_t w = 0; w < n_inst; ++w) {
      const auto [is_ref, idx] = m.roles[w];
      if (is_ref) {
        m.refs[idx].orig_index = w;
        continue;
      }
      NrefMeta& nm = m.nrefs[idx];
      nm.orig_index = w;
      nm.ref_pos = static_cast<uint32_t>(structure.GetBits(ref_bits));
      if (nm.ref_pos >= n_refs) {
        return fail(traj() + ": non-reference " + std::to_string(idx) +
                    " names a reference the trajectory does not have");
      }
    }
    if (structure.overflow()) return fail(traj() + kPastStructure);

    // Each block starts where the previous one ends.
    if (insts.size() < n_inst) insts.resize(n_inst);
    for (uint32_t r = 0; r < n_refs; ++r) {
      RefMeta& rm = m.refs[r];
      rm.offset = ref.position();
      DecodedInstance& d = insts[rm.orig_index];
      if (!ReadReference(cc, ref, m.n_points, &d, &rm.d_pos)) {
        return fail(traj() + ": reference " + std::to_string(r) +
                    " overflows the ref stream");
      }
      rm.e_len = static_cast<uint32_t>(d.entries.size());
      rm.p_quantized = static_cast<float>(d.p);
    }
    for (uint32_t k = 0; k < n_nrefs; ++k) {
      NrefMeta& nm = m.nrefs[k];
      nm.offset = nref.position();
      DecodedInstance& d = insts[nm.orig_index];
      if (!ReadNonReference(cc, nref, m.n_points,
                            insts[m.refs[nm.ref_pos].orig_index], &d)) {
        return fail(traj() + ": non-reference " + std::to_string(k) +
                    " overflows the nref stream or does not decode");
      }
      nm.e_len = static_cast<uint32_t>(d.entries.size());
      nm.p_quantized = static_cast<float>(d.p);
    }
    if (visit && !visit(times, std::span(insts.data(), n_inst))) {
      return false;
    }
  }
  // Every stream ends exactly where its last block does: the structure
  // records' instance counts name every ref and nref block.
  const std::pair<const char*, const BitReader*> ends[] = {
      {"structure", &structure}, {"ref", &ref}, {"nref", &nref}};
  for (const auto& [name, r] : ends) {
    if (r->position() != r->size_bits()) {
      return fail(std::string(name) + " stream holds " +
                  std::to_string(r->size_bits() - r->position()) +
                  " bits past the blocks of its " +
                  std::to_string(metas->size()) + " trajectories");
    }
  }
  metas->shrink_to_fit();  // the count was unknown until now: drop the slack
  return true;
}

}  // namespace utcq::core
