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

std::vector<traj::Timestamp> UtcqDecoder::DecodeTimes(size_t j) const {
  std::vector<traj::Timestamp> times;
  DecodeTimesInto(j, &times);
  return times;
}

uint64_t UtcqDecoder::DecodeTimesInto(
    size_t j, std::vector<traj::Timestamp>* out) const {
  out->clear();
  const TrajMeta& meta = cc_.meta(j);
  BitReader r = cc_.t_reader();
  r.Seek(meta.t_pos);
  const uint64_t n = common::GetVarint(r);
  const auto t0 = static_cast<traj::Timestamp>(r.GetBits(17));
  // Streams may come from an untrusted archive: every delta costs at least
  // one bit, so a count beyond the remaining bits is corrupt, not large.
  if (n > 0 && n - 1 > r.remaining()) return 0;
  // SIAR expansion fused into the decode loop: accumulating each timestamp
  // as its delta comes off the stream skips the intermediate delta vector
  // an explicit SiarExpand call would allocate per trajectory.
  out->reserve(std::max<uint64_t>(n, 1));
  out->push_back(t0);  // SiarExpand emitted t0 even for an empty delta list
  traj::Timestamp t = t0;
  const int64_t interval = cc_.params().default_interval_s;
  // Deltas come off the stream through the batched kernel, a chunk per
  // call; a short chunk means overflow latched mid-stream, which discards
  // the whole sequence.
  int64_t deltas[128];
  uint64_t left = n > 0 ? n - 1 : 0;
  while (left > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(left, std::size(deltas)));
    const size_t got = strategies::DecodeIeg(r, deltas, chunk);
    for (size_t i = 0; i < got; ++i) {
      t += interval + deltas[i];
      out->push_back(t);
    }
    if (got < chunk) {
      out->clear();
      return 0;
    }
    left -= chunk;
  }
  return r.position() - meta.t_pos;
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
  // contract on the declaration); the bounds guards make a crafted table
  // degrade to the unseeked scan instead of reading out of range.
  for (auto it = meta.t_syncs.rbegin(); it != meta.t_syncs.rend(); ++it) {
    if (it->entry > t_no && it->entry + 1 < meta.n_points && it->t < t &&
        it->bit <= r.size_bits()) {
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

uint64_t UtcqDecoder::DecodeRangeInto(size_t j, uint32_t first, uint32_t last,
                                      std::vector<traj::Timestamp>* out,
                                      SeekStats* seek) const {
  out->clear();
  const TrajMeta& meta = cc_.meta(j);
  if (meta.n_points == 0 || first >= meta.n_points || first > last) return 0;
  if (last >= meta.n_points) last = meta.n_points - 1;

  BitReader r = cc_.t_reader();

  // Start state: the latest sync at or before `first`, else the block
  // header (count varint + 17-bit t0). The guards mirror BracketTime's —
  // a crafted table degrades to the header start, never an out-of-range
  // read.
  uint32_t entry = 0;
  traj::Timestamp t = 0;
  uint64_t start_bit = meta.t_pos;
  bool from_sync = false;
  for (auto it = meta.t_syncs.rbegin(); it != meta.t_syncs.rend(); ++it) {
    if (it->entry <= first && it->entry < meta.n_points &&
        it->bit <= r.size_bits()) {
      entry = it->entry;
      t = it->t;
      start_bit = it->bit;
      from_sync = true;
      break;
    }
  }
  r.Seek(start_bit);
  if (from_sync) {
    if (seek != nullptr) ++seek->sync_seeks;
  } else {
    const uint64_t n = common::GetVarint(r);
    if (n != meta.n_points) return 0;  // stream/meta disagree: corrupt
    t = static_cast<traj::Timestamp>(r.GetBits(17));
  }

  const int64_t interval = cc_.params().default_interval_s;
  if (entry >= first) out->push_back(t);  // entry == first by construction
  int64_t deltas[128];
  while (entry < last) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(last - entry, std::size(deltas)));
    const size_t got = strategies::DecodeIeg(r, deltas, want);
    for (size_t i = 0; i < got; ++i) {
      t += interval + deltas[i];
      ++entry;
      if (entry >= first) out->push_back(t);
    }
    if (got < want) {  // overflow latched mid-stream: reject, as DecodeTimes
      out->clear();
      return 0;
    }
  }
  const uint64_t bits = r.position() - start_bit;
  if (seek != nullptr) seek->bits_read += bits;
  return bits;
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
  const RefMeta& rm = meta.refs[ref_idx];
  // Reset, keeping the vectors' capacity: a decode loop that threads one
  // DecodedInstance through many instances allocates only while the
  // buffers are still growing toward the corpus maximum.
  DecodedInstance& d = *out;
  d.entries.clear();
  d.tflag_trimmed.clear();
  d.rds.clear();
  d.p = 0.0;
  BitReader r = cc_.ref_reader();
  r.Seek(rm.offset);
  d.sv = static_cast<network::VertexId>(r.GetBits(32));
  const uint64_t e_len = common::GetVarint(r);
  // Untrusted-stream guard: each entry costs >= 1 bit (entry_bits >= 1).
  if (e_len > r.remaining()) return 0;
  d.entries.resize(e_len);
  const int entry_bits = cc_.entry_bits();
  for (uint32_t& e : d.entries) {
    e = static_cast<uint32_t>(r.GetBits(entry_bits));
  }
  const size_t trimmed = e_len >= 2 ? e_len - 2 : 0;
  d.tflag_trimmed.resize(trimmed);
  strategies::UnpackBits(r, d.tflag_trimmed.data(), d.tflag_trimmed.size());
  // The per-point rd codes go through the batched kernel, not one
  // out-of-line PddpCodec::Decode call per point.
  const common::PddpCodec& dc = cc_.d_codec();
  d.rds.resize(meta.n_points);
  strategies::PddpRun(r, dc.length_field_bits(), dc.max_code_bits(),
                      d.rds.data(), d.rds.size());
  const common::PddpCodec& pc = cc_.p_codec();
  d.p = strategies::PddpDecode(r, pc.length_field_bits(), pc.max_code_bits());
  return r.position() - rm.offset;
}

uint64_t UtcqDecoder::DecodeNonReferenceInto(size_t j, uint32_t nref_idx,
                                             const DecodedInstance& ref,
                                             DecodedInstance* out) const {
  const TrajMeta& meta = cc_.meta(j);
  const NrefMeta& nm = meta.nrefs[nref_idx];
  // Same capacity-preserving reset as DecodeReferenceInto; `ref` must not
  // alias `out` (the expansion reads ref's entries while writing out's).
  DecodedInstance& d = *out;
  d.entries.clear();
  d.tflag_trimmed.clear();
  d.rds.clear();
  d.p = 0.0;
  d.sv = ref.sv;  // SV(Nref) is omitted: identical to the reference's

  BitReader r = cc_.nref_reader();
  r.Seek(nm.offset);

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
      d.entries.push_back(
          static_cast<uint32_t>(r.GetBits(cc_.entry_bits())));
      continue;
    }
    if (s > ref_e_len) break;  // corrupt factor start
    const uint32_t l = static_cast<uint32_t>(r.GetBits(l_bits)) + 1;
    if (l > ref_e_len - s) break;  // corrupt copy length
    d.entries.insert(d.entries.end(), ref.entries.begin() + s,
                     ref.entries.begin() + s + l);
    if (d.entries.size() < e_len) {
      d.entries.push_back(
          static_cast<uint32_t>(r.GetBits(cc_.entry_bits())));
    }
  }

  // --- T' ---
  // Sized from the entries actually materialized, not the raw e_len: a
  // crafted length field whose E block the loop above cut short must not
  // become a giant tflag allocation (each literal bit below costs one
  // stream bit, but resize/reserve would pay up front).
  const size_t trimmed_len =
      d.entries.size() >= 2 ? d.entries.size() - 2 : 0;
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
      if (h > r.remaining() + trimmed_len + 1) break;
      d.tflag_trimmed.reserve(trimmed_len);
      for (uint64_t k = 0; k < h && !r.overflow(); ++k) {
        const uint32_t s = static_cast<uint32_t>(r.GetBits(ts_bits));
        const uint32_t l = static_cast<uint32_t>(r.GetBits(tl_bits));
        if (s > rtl || l > rtl - s) break;  // corrupt factor
        d.tflag_trimmed.insert(d.tflag_trimmed.end(),
                               ref.tflag_trimmed.begin() + s,
                               ref.tflag_trimmed.begin() + s + l);
        if (k + 1 < h) {
          if (s + l >= rtl) break;  // inferred mismatch needs ref[s + l]
          // Inferred mismatch: NOT ref[s + l].
          d.tflag_trimmed.push_back(ref.tflag_trimmed[s + l] ? 0 : 1);
        }
      }
      if (d.tflag_trimmed.size() < trimmed_len) {
        d.tflag_trimmed.push_back(r.GetBits(1) != 0 ? 1 : 0);  // final M
      }
      break;
    }
  }

  // --- D diffs ---
  const uint64_t h_d = common::GetVarint(r);
  if (h_d > r.remaining()) return 0;  // each diff costs >= 1 bit
  const int pos_bits = BitsFor(meta.n_points > 0 ? meta.n_points - 1 : 0);
  const common::PddpCodec& dc = cc_.d_codec();
  d.rds = ref.rds;
  for (uint64_t k = 0; k < h_d && !r.overflow(); ++k) {
    const uint32_t pos = static_cast<uint32_t>(r.GetBits(pos_bits));
    const double rd = strategies::PddpDecode(r, dc.length_field_bits(),
                                             dc.max_code_bits());
    if (pos < d.rds.size()) d.rds[pos] = rd;
  }

  const common::PddpCodec& pc = cc_.p_codec();
  d.p = strategies::PddpDecode(r, pc.length_field_bits(), pc.max_code_bits());
  return r.position() - nm.offset;
}

DecodedInstance UtcqDecoder::DecodeByOriginal(size_t j, uint32_t w) const {
  const TrajMeta& meta = cc_.meta(j);
  const auto [is_ref, idx] = meta.roles[w];
  DecodedInstance d;
  if (is_ref) {
    DecodeReferenceInto(j, idx, &d);
    return d;
  }
  DecodedInstance ref;
  DecodeReferenceInto(j, meta.nrefs[idx].ref_pos, &ref);
  DecodeNonReferenceInto(j, idx, ref, &d);
  return d;
}

std::optional<traj::TrajectoryInstance> UtcqDecoder::ToInstance(
    const DecodedInstance& d) const {
  const auto full = UntrimTimeFlags(d.tflag_trimmed, d.entries.size());
  return traj::ReconstructInstance(net_, d.sv, d.entries, full, d.rds, d.p);
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

bool UtcqDecoder::DecodeTrajectoryInto(size_t j, traj::UncertainTrajectory* tu,
                                       std::vector<DecodedInstance>* refs,
                                       DecodedInstance* scratch) const {
  const TrajMeta& meta = cc_.meta(j);
  DecodeTimesInto(j, &tu->times);
  tu->instances.resize(meta.roles.size());
  // Decode references once, then expand their non-references. `refs` only
  // ever grows, keeping each slot's capacity.
  if (refs->size() < meta.refs.size()) refs->resize(meta.refs.size());
  bool ok = true;
  const auto place = [&](const DecodedInstance& d, uint32_t orig_index) {
    auto inst = ToInstance(d);
    if (inst.has_value()) {
      tu->instances[orig_index] = std::move(*inst);
    } else {
      ok = false;
    }
  };
  for (uint32_t r = 0; r < meta.refs.size(); ++r) {
    DecodeReferenceInto(j, r, &(*refs)[r]);
    place((*refs)[r], meta.refs[r].orig_index);
  }
  for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
    DecodeNonReferenceInto(j, k, (*refs)[meta.nrefs[k].ref_pos], scratch);
    place(*scratch, meta.nrefs[k].orig_index);
  }
  return ok;
}

traj::UncertainCorpus UtcqDecoder::DecompressAll() const {
  traj::UncertainCorpus corpus;
  corpus.reserve(cc_.num_trajectories());
  // Decoded improved-TED forms are transient here (only the reconstructed
  // instances survive), so one set of scratch buffers serves the whole
  // corpus.
  std::vector<DecodedInstance> refs;
  DecodedInstance scratch;
  for (size_t j = 0; j < cc_.num_trajectories(); ++j) {
    traj::UncertainTrajectory tu;
    tu.id = j;
    DecodeTrajectoryInto(j, &tu, &refs, &scratch);
    corpus.push_back(std::move(tu));
  }
  return corpus;
}

}  // namespace utcq::core
