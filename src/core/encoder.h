#ifndef UTCQ_CORE_ENCODER_H_
#define UTCQ_CORE_ENCODER_H_

#include <cstdint>
#include <vector>

#include "common/bitstream.h"
#include "common/memory_tracker.h"
#include "common/pddp.h"
#include "core/corpus_meta.h"
#include "core/corpus_view.h"
#include "core/reference_selection.h"
#include "network/road_network.h"
#include "traj/types.h"

namespace utcq::core {

/// The write-side product of UTCQ compression: self-framing bit streams
/// being appended by the compressor, plus the per-entity bit positions the
/// query processor navigates with. Compressed-size accounting covers every
/// stream bit (framing included); the metas are index-side state, reported
/// with the StIU size.
///
/// This class owns mutable BitWriters and is the only part of the system
/// that does; everything on the read path (decoder, StIU builder, query
/// processor, archive writer) consumes the immutable CorpusView borrowed
/// from it via view(). A view stays valid for the lifetime of this object,
/// as the streams are append-only and sealed once Compress returns.
class CompressedCorpus {
 public:
  const UtcqParams& params() const { return params_; }
  int entry_bits() const { return entry_bits_; }
  const common::PddpCodec& d_codec() const { return d_codec_; }
  const common::PddpCodec& p_codec() const { return p_codec_; }

  const common::BitWriter& t_stream() const { return t_stream_; }
  const common::BitWriter& ref_stream() const { return ref_stream_; }
  const common::BitWriter& nref_stream() const { return nref_stream_; }
  const common::BitWriter& structure_stream() const {
    return structure_stream_;
  }

  size_t num_trajectories() const { return metas_.size(); }
  const TrajMeta& meta(size_t j) const { return metas_[j]; }
  const std::vector<TrajMeta>& metas() const { return metas_; }

  const traj::ComponentSizes& compressed_bits() const {
    return compressed_bits_;
  }
  size_t peak_memory_bytes() const { return peak_memory_; }

  /// Total compressed payload in bits (all four streams).
  uint64_t total_bits() const {
    return t_stream_.size_bits() + ref_stream_.size_bits() +
           nref_stream_.size_bits() + structure_stream_.size_bits();
  }

  /// Immutable read-side borrowing this corpus's bytes. The corpus must
  /// outlive the view.
  CorpusView view() const {
    return CorpusView(params_, entry_bits_, t_stream_.span(),
                      ref_stream_.span(), nref_stream_.span(),
                      structure_stream_.span(), metas_.data(), metas_.size());
  }

  /// The read path is written against CorpusView; a live corpus converts
  /// implicitly so call sites need not care which side they hold.
  operator CorpusView() const { return view(); }

 private:
  friend class UtcqCompressor;

  UtcqParams params_{};
  int entry_bits_ = 4;
  common::PddpCodec d_codec_{1.0 / 128.0};
  common::PddpCodec p_codec_{1.0 / 512.0};
  common::BitWriter t_stream_;
  common::BitWriter ref_stream_;
  common::BitWriter nref_stream_;
  common::BitWriter structure_stream_;
  std::vector<TrajMeta> metas_;
  traj::ComponentSizes compressed_bits_;
  size_t peak_memory_ = 0;
};

/// The UTCQ compressor: improved TED representation, pivot selection, FJD
/// score matrix, greedy reference selection, then binary encoding of
/// references and referential non-references (Sections 4.1-4.4).
class UtcqCompressor {
 public:
  UtcqCompressor(const network::RoadNetwork& net, UtcqParams params)
      : net_(net), params_(params) {}

  /// Compresses the corpus.
  CompressedCorpus Compress(const traj::UncertainCorpus& corpus) const;

  /// Incremental entry points for streaming ingestion. Begin initializes an
  /// empty corpus (params, entry width, codecs); each AppendTrajectory
  /// encodes one trajectory onto its streams. Compress(corpus) is exactly
  /// Begin + one AppendTrajectory per trajectory — nothing in the encoding
  /// of a trajectory depends on its neighbours — so an append-built corpus
  /// is bit-identical to the batch build of the same trajectory sequence
  /// (the invariant the live-shard flush path rests on).
  CompressedCorpus Begin() const;
  void AppendTrajectory(const traj::UncertainTrajectory& tu,
                        CompressedCorpus* out) const;
  /// Layout-ignoring shim for bench/e2e; ROADMAP item 6 deletes it.
  void AppendTrajectory(const traj::UncertainTrajectory& tu,
                        CompressedCorpus* out,
                        std::vector<NrefFactorLayout>* layouts) const;

 private:
  const network::RoadNetwork& net_;
  UtcqParams params_;
};

}  // namespace utcq::core

#endif  // UTCQ_CORE_ENCODER_H_
