#ifndef UTCQ_CORE_CORPUS_VIEW_H_
#define UTCQ_CORE_CORPUS_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitstream.h"
#include "common/pddp.h"
#include "core/corpus_meta.h"

namespace utcq::core {

/// Immutable, non-owning read-side of a UTCQ-compressed corpus.
///
/// The write side (UtcqCompressor -> CompressedCorpus) produces four
/// append-only bit streams plus per-trajectory metas. Everything downstream
/// — UtcqDecoder, StiuIndex construction, UtcqQueryProcessor — consumes this
/// view instead, so the same decode and query code runs over a corpus that
/// was compressed seconds ago (spans borrow the live BitWriters) or loaded
/// from an archive file (spans borrow the mapped section buffers). The view
/// is a handful of pointers; copy it freely. Whatever owns the bytes and the
/// metas must outlive every view and reader derived from it.
class CorpusView {
 public:
  CorpusView() = default;
  CorpusView(const UtcqParams& params, int entry_bits, common::BitSpan t,
             common::BitSpan ref, common::BitSpan nref,
             common::BitSpan structure, const TrajMeta* metas,
             size_t num_trajectories)
      : params_(params),
        entry_bits_(entry_bits),
        d_codec_(params.eta_d),
        p_codec_(params.eta_p),
        t_(t),
        ref_(ref),
        nref_(nref),
        structure_(structure),
        metas_(metas),
        num_trajectories_(num_trajectories) {}

  const UtcqParams& params() const { return params_; }
  int entry_bits() const { return entry_bits_; }
  const common::PddpCodec& d_codec() const { return d_codec_; }
  const common::PddpCodec& p_codec() const { return p_codec_; }

  const common::BitSpan& t_span() const { return t_; }
  const common::BitSpan& ref_span() const { return ref_; }
  const common::BitSpan& nref_span() const { return nref_; }
  const common::BitSpan& structure_span() const { return structure_; }

  common::BitReader t_reader() const { return common::BitReader(t_); }
  common::BitReader ref_reader() const { return common::BitReader(ref_); }
  common::BitReader nref_reader() const { return common::BitReader(nref_); }

  size_t num_trajectories() const { return num_trajectories_; }
  const TrajMeta& meta(size_t j) const { return metas_[j]; }

  /// The same streams over other metas (a walk deriving them appends as it
  /// goes), without rebuilding the codecs.
  CorpusView WithMetas(const TrajMeta* metas, size_t num_trajectories) const {
    CorpusView v = *this;
    v.metas_ = metas;
    v.num_trajectories_ = num_trajectories;
    return v;
  }

  /// Total compressed payload in bits (all four streams).
  uint64_t total_bits() const {
    return t_.size_bits + ref_.size_bits + nref_.size_bits +
           structure_.size_bits;
  }

 private:
  UtcqParams params_{};
  int entry_bits_ = 4;
  common::PddpCodec d_codec_{1.0 / 128.0};
  common::PddpCodec p_codec_{1.0 / 512.0};
  common::BitSpan t_;
  common::BitSpan ref_;
  common::BitSpan nref_;
  common::BitSpan structure_;
  const TrajMeta* metas_ = nullptr;
  size_t num_trajectories_ = 0;
};

}  // namespace utcq::core

#endif  // UTCQ_CORE_CORPUS_VIEW_H_
