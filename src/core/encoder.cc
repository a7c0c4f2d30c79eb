#include "core/encoder.h"

#include <algorithm>
#include <optional>

#include "common/exp_golomb.h"
#include "common/varint.h"
#include "core/fjd.h"
#include "core/improved_ted.h"
#include "core/pivot.h"
#include "core/referential.h"

namespace utcq::core {

using common::BitsFor;
using common::BitWriter;

namespace {

/// Writes the E-factor list of a non-reference (Section 4.4 widths):
/// S: ceil(log2(|E(ref)|+1)) bits (the value |E(ref)| is the case-B
/// sentinel); L-1: ceil(log2(|E(ref)|)) bits; M: entry_bits. M presence on
/// the final factor is implied by the decoded length.
void EncodeEFactors(BitWriter& w, const std::vector<EFactor>& factors,
                    uint32_t ref_e_len, int entry_bits) {
  const int s_bits = BitsFor(ref_e_len);
  const int l_bits = BitsFor(ref_e_len > 0 ? ref_e_len - 1 : 0);
  for (const EFactor& f : factors) {
    if (f.case_b) {
      w.PutBits(ref_e_len, s_bits);
      w.PutBits(*f.m, entry_bits);
      continue;
    }
    w.PutBits(f.s, s_bits);
    w.PutBits(f.l - 1, l_bits);
    if (f.m.has_value()) w.PutBits(*f.m, entry_bits);
  }
}

void EncodeTflagCom(BitWriter& w, const TflagCom& com,
                    const std::vector<uint8_t>& target_trimmed,
                    uint32_t ref_trimmed_len) {
  w.PutBits(static_cast<uint64_t>(com.mode), 2);
  switch (com.mode) {
    case TflagMode::kIdentical:
      return;
    case TflagMode::kLiteral:
      for (const uint8_t b : target_trimmed) w.PutBit(b != 0);
      return;
    case TflagMode::kFactors:
      break;
  }
  const int s_bits =
      BitsFor(ref_trimmed_len > 0 ? ref_trimmed_len - 1 : 0);
  const int l_bits = BitsFor(ref_trimmed_len);
  common::PutVarint(w, com.factors.size());
  for (const TFactor& f : com.factors) {
    w.PutBits(f.s, s_bits);
    w.PutBits(f.l, l_bits);
  }
  if (com.last_has_m) w.PutBit(com.last_m != 0);
}

}  // namespace

CompressedCorpus UtcqCompressor::Begin() const {
  CompressedCorpus out;
  out.params_ = params_;
  out.entry_bits_ = BitsFor(std::max<uint32_t>(net_.max_out_degree(), 1));
  out.d_codec_ = common::PddpCodec(params_.eta_d);
  out.p_codec_ = common::PddpCodec(params_.eta_p);
  return out;
}

CompressedCorpus UtcqCompressor::Compress(
    const traj::UncertainCorpus& corpus) const {
  CompressedCorpus out = Begin();
  for (const traj::UncertainTrajectory& tu : corpus) {
    AppendTrajectory(tu, &out);
  }
  return out;
}

void UtcqCompressor::AppendTrajectory(
    const traj::UncertainTrajectory& tu, CompressedCorpus* out,
    std::vector<NrefFactorLayout>* /*unused*/) const {
  AppendTrajectory(tu, out);
}

void UtcqCompressor::AppendTrajectory(const traj::UncertainTrajectory& tu,
                                      CompressedCorpus* corpus_out) const {
  CompressedCorpus& out = *corpus_out;
  common::MemoryTracker mem;
  auto quantize_d = [&](double v) { return out.d_codec_.Quantize(v); };

  {
    const size_t n_inst = tu.instances.size();

    // --- improved TED representations (processed one trajectory at a time,
    // which is why UTCQ's working set stays small) ---
    std::vector<InstanceRepr> reprs;
    reprs.reserve(n_inst);
    std::vector<std::vector<uint32_t>> entry_seqs;
    entry_seqs.reserve(n_inst);
    size_t traj_mem = 0;
    for (const auto& inst : tu.instances) {
      reprs.push_back(BuildInstanceRepr(net_, inst));
      entry_seqs.push_back(reprs.back().entries);
      traj_mem += reprs.back().entries.size() * 8 +
                  reprs.back().tflag_trimmed.size() +
                  reprs.back().rds.size() * 8;
    }

    // --- pivots, FJD score matrix, Algorithm 1 ---
    ReferencePlan plan;
    if (n_inst <= 1 || params_.disable_referential) {
      plan.ref_of.assign(n_inst, -1);
      for (uint32_t w = 0; w < n_inst; ++w) plan.references.push_back(w);
    } else {
      const auto pivots =
          SelectPivots(entry_seqs, params_.num_pivots, /*seed_instance=*/0);
      const auto pivot_reprs = RepresentAgainstPivots(entry_seqs, pivots);
      std::vector<double> probs(n_inst);
      std::vector<uint32_t> svs(n_inst);
      for (size_t w = 0; w < n_inst; ++w) {
        probs[w] = reprs[w].p;
        svs[w] = reprs[w].sv;
      }
      size_t pivot_mem = 0;
      for (const auto& per_pivot : pivot_reprs) {
        for (const auto& com : per_pivot) pivot_mem += com.factors.size() * 8;
      }
      traj_mem += pivot_mem + n_inst * n_inst * 8;  // + score matrix
      const auto sm = BuildScoreMatrix(pivot_reprs, probs, svs);
      plan = SelectReferences(sm);
    }
    // Canonicalize: references in original instance order, so the role
    // bitmap below determines reference positions without explicit ids.
    {
      std::vector<uint32_t> sorted = plan.references;
      std::sort(sorted.begin(), sorted.end());
      std::vector<int32_t> new_pos(n_inst, -1);
      for (uint32_t r = 0; r < sorted.size(); ++r) {
        new_pos[sorted[r]] = static_cast<int32_t>(r);
      }
      for (uint32_t w = 0; w < n_inst; ++w) {
        if (plan.ref_of[w] >= 0) {
          plan.ref_of[w] = new_pos[plan.references[plan.ref_of[w]]];
        }
      }
      plan.references = std::move(sorted);
    }
    common::ScopedMemory scope(&mem, traj_mem);

    TrajMeta meta;
    meta.n_points = static_cast<uint32_t>(tu.times.size());
    meta.t_first = tu.times.front();
    meta.t_last = tu.times.back();
    meta.roles.assign(n_inst, {false, 0});

    // --- T: SIAR + improved Exp-Golomb ---
    meta.t_pos = out.t_stream_.size_bits();
    {
      const size_t before = out.t_stream_.size_bits();
      common::PutVarint(out.t_stream_, tu.times.size());
      out.t_stream_.PutBits(static_cast<uint64_t>(tu.times.front()), 17);
      // Sync points ride in the meta, never in the stream: the T bits are
      // byte-identical with syncs on or off, so append-built and
      // batch-built corpora stay bit-identical regardless of K.
      const uint32_t sync_k = params_.t_sync_interval;
      uint32_t entry = 0;
      for (const int64_t d :
           SiarDeltas(tu.times, params_.default_interval_s)) {
        common::PutImprovedExpGolomb(out.t_stream_, d);
        ++entry;  // this delta expanded times[entry]
        // A sync at the final entry would start a scan with no deltas
        // left; only record restart states that still have stream ahead.
        if (sync_k > 0 && entry % sync_k == 0 &&
            entry + 1 < tu.times.size()) {
          meta.t_syncs.push_back(
              {entry, tu.times[entry], out.t_stream_.size_bits()});
        }
      }
      out.compressed_bits_.t_bits += out.t_stream_.size_bits() - before;
    }

    // --- structure: instance roles (counted into E, DESIGN §2):
    // a 1-bit-per-instance reference bitmap, then for each non-reference
    // its reference's position among the (orig-ordered) references ---
    {
      const size_t before = out.structure_stream_.size_bits();
      common::PutVarint(out.structure_stream_, n_inst);
      for (uint32_t w = 0; w < n_inst; ++w) {
        out.structure_stream_.PutBit(plan.ref_of[w] < 0);
      }
      const int ref_bits = BitsFor(
          plan.references.empty() ? 0 : plan.references.size() - 1);
      for (uint32_t w = 0; w < n_inst; ++w) {
        if (plan.ref_of[w] >= 0) {
          out.structure_stream_.PutBits(
              static_cast<uint64_t>(plan.ref_of[w]), ref_bits);
        }
      }
      out.compressed_bits_.e_bits +=
          out.structure_stream_.size_bits() - before;
    }

    // --- references ---
    for (uint32_t r = 0; r < plan.references.size(); ++r) {
      const uint32_t w = plan.references[r];
      const InstanceRepr& repr = reprs[w];
      RefMeta rm;
      rm.orig_index = w;
      rm.offset = out.ref_stream_.size_bits();
      rm.e_len = static_cast<uint32_t>(repr.entries.size());

      size_t before = out.ref_stream_.size_bits();
      out.ref_stream_.PutBits(repr.sv, 32);
      common::PutVarint(out.ref_stream_, repr.entries.size());
      for (const uint32_t e : repr.entries) {
        out.ref_stream_.PutBits(e, out.entry_bits_);
      }
      out.compressed_bits_.e_bits += out.ref_stream_.size_bits() - before;

      before = out.ref_stream_.size_bits();
      for (const uint8_t b : repr.tflag_trimmed) {
        out.ref_stream_.PutBit(b != 0);
      }
      out.compressed_bits_.tflag_bits += out.ref_stream_.size_bits() - before;

      rm.d_pos = out.ref_stream_.size_bits();
      before = out.ref_stream_.size_bits();
      for (const double rd : repr.rds) {
        out.d_codec_.Encode(out.ref_stream_, rd);
      }
      out.compressed_bits_.d_bits += out.ref_stream_.size_bits() - before;

      before = out.ref_stream_.size_bits();
      out.p_codec_.Encode(out.ref_stream_, repr.p);
      out.compressed_bits_.p_bits += out.ref_stream_.size_bits() - before;
      rm.p_quantized = static_cast<float>(out.p_codec_.Quantize(repr.p));

      meta.roles[w] = {true, r};
      meta.refs.push_back(rm);
    }

    // --- non-references ---
    // One occurrence index per reference, built on its first member and
    // shared by its whole Rrs.
    std::vector<std::optional<SymbolIndex>> ref_index(plan.references.size());
    for (uint32_t w = 0; w < n_inst; ++w) {
      if (plan.ref_of[w] < 0) continue;
      const uint32_t ref_pos = static_cast<uint32_t>(plan.ref_of[w]);
      const InstanceRepr& ref = reprs[plan.references[ref_pos]];
      const InstanceRepr& repr = reprs[w];

      NrefMeta nm;
      nm.orig_index = w;
      nm.ref_pos = ref_pos;
      nm.offset = out.nref_stream_.size_bits();
      nm.e_len = static_cast<uint32_t>(repr.entries.size());

      size_t before = out.nref_stream_.size_bits();
      common::PutVarint(out.nref_stream_, repr.entries.size());
      if (!ref_index[ref_pos]) ref_index[ref_pos].emplace(ref.entries);
      const auto e_factors = FactorizeE(*ref_index[ref_pos], repr.entries);
      EncodeEFactors(out.nref_stream_, e_factors,
                     static_cast<uint32_t>(ref.entries.size()),
                     out.entry_bits_);
      out.compressed_bits_.e_bits += out.nref_stream_.size_bits() - before;

      before = out.nref_stream_.size_bits();
      const auto t_com = FactorizeTflag(ref.tflag_trimmed, repr.tflag_trimmed);
      EncodeTflagCom(out.nref_stream_, t_com, repr.tflag_trimmed,
                     static_cast<uint32_t>(ref.tflag_trimmed.size()));
      out.compressed_bits_.tflag_bits +=
          out.nref_stream_.size_bits() - before;

      before = out.nref_stream_.size_bits();
      const auto d_diff = DiffD(ref.rds, repr.rds, quantize_d);
      common::PutVarint(out.nref_stream_, d_diff.size());
      const int pos_bits =
          BitsFor(meta.n_points > 0 ? meta.n_points - 1 : 0);
      for (const DFactor& f : d_diff) {
        out.nref_stream_.PutBits(f.pos, pos_bits);
        out.d_codec_.Encode(out.nref_stream_, f.rd);
      }
      out.compressed_bits_.d_bits += out.nref_stream_.size_bits() - before;

      before = out.nref_stream_.size_bits();
      out.p_codec_.Encode(out.nref_stream_, repr.p);
      out.compressed_bits_.p_bits += out.nref_stream_.size_bits() - before;
      nm.p_quantized = static_cast<float>(out.p_codec_.Quantize(repr.p));

      meta.roles[w] = {false, static_cast<uint32_t>(meta.nrefs.size())};
      meta.nrefs.push_back(nm);
    }

    out.metas_.push_back(std::move(meta));
  }

  out.peak_memory_ = std::max(out.peak_memory_, mem.peak_bytes());
}

}  // namespace utcq::core
