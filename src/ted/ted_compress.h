#ifndef UTCQ_TED_TED_COMPRESS_H_
#define UTCQ_TED_TED_COMPRESS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitstream.h"
#include "common/memory_tracker.h"
#include "common/pddp.h"
#include "network/road_network.h"
#include "ted/ted_view.h"
#include "traj/types.h"

namespace utcq::ted {

/// Configuration of the TED baseline, as adapted by the paper's Section 6.1:
/// matrix (multiple-bases) compression of E is kept, bitmap compression of
/// T' is omitted (its compression ratio row is 1 in Table 8).
struct TedParams {
  double eta_d = 1.0 / 128.0;
  double eta_p = 1.0 / 512.0;
  bool matrix_compression = true;
};

/// A group of equal-length E codes packed as an A x B matrix with
/// *multiple bases* (step iii of Section 2.3): column c gets base
/// b_c = max_c + 1 and each row packs as the mixed-radix number
/// sum_c d_c * prod_{c'<c} b_{c'} in ceil(log2(prod b_c)) bits, exploiting
/// that the high bits of the fixed-width codes are usually 0. The
/// multiprecision encode/decode per row is what makes the baseline's
/// compression slow and its decode-heavy queries slower still.
struct TedGroup {
  uint32_t entry_count = 0;  // B
  uint32_t rows = 0;         // A
  std::vector<uint32_t> col_bases;
  int row_width_bits = 0;
  common::BitWriter codes;
};

/// Sentinel: the instance's E codes live in the plain stream, not a group
/// (small groups whose per-column header would not amortize).
inline constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

/// Bit positions of one compressed instance within the corpus streams.
struct TedInstanceMeta {
  uint64_t sv_pos = 0;
  uint32_t group = kNoGroup;  // matrix mode when != kNoGroup
  uint32_t row = 0;
  uint64_t e_pos = 0;  // plain mode
  uint32_t e_len = 0;
  uint64_t tflag_pos = 0;
  uint64_t d_pos = 0;
  uint32_t n_locs = 0;
  uint64_t p_pos = 0;
  float p_quantized = 0.0f;  // cached for index construction
};

struct TedTrajMeta {
  uint64_t t_pos = 0;
  uint32_t n_points = 0;
  traj::Timestamp t_first = 0;
  traj::Timestamp t_last = 0;
  std::vector<TedInstanceMeta> instances;
};

/// The write-side product of TED compression. Decode paths live on
/// TedCorpusView (the baseline's immutable read-side); the DecodeTimes /
/// DecodeInstance members remain as convenience wrappers that delegate to a
/// freshly borrowed view.
class TedCompressed {
 public:
  /// Immutable read-side borrowing this corpus's bytes; the corpus must
  /// outlive the view.
  TedCorpusView view() const;

  /// The read path is written against TedCorpusView; a live corpus converts
  /// implicitly so call sites need not care which side they hold.
  operator TedCorpusView() const { return view(); }

  /// Decodes the shared time sequence of trajectory `traj_idx`.
  std::vector<traj::Timestamp> DecodeTimes(size_t traj_idx) const;

  /// Fully decodes one instance (the baseline's query granularity).
  std::optional<traj::TrajectoryInstance> DecodeInstance(
      const network::RoadNetwork& net, size_t traj_idx,
      size_t inst_idx) const;

  size_t num_trajectories() const { return metas_.size(); }
  const TedTrajMeta& meta(size_t i) const { return metas_[i]; }
  const TedParams& params() const { return params_; }

  /// Per-component compressed bits (Table 8 accounting; SV and framing are
  /// folded into E, matching DESIGN.md §2).
  const traj::ComponentSizes& compressed_bits() const {
    return compressed_bits_;
  }
  size_t peak_memory_bytes() const { return peak_memory_; }

 private:
  friend class TedCompressor;

  TedParams params_{};
  int entry_bits_ = 4;
  common::PddpCodec d_codec_{1.0 / 128.0};
  common::PddpCodec p_codec_{1.0 / 512.0};
  common::BitWriter t_stream_;
  common::BitWriter sv_stream_;
  common::BitWriter e_plain_;
  common::BitWriter tflag_stream_;
  common::BitWriter d_stream_;
  common::BitWriter p_stream_;
  std::vector<TedGroup> groups_;
  std::vector<TedTrajMeta> metas_;
  traj::ComponentSizes compressed_bits_;
  size_t peak_memory_ = 0;
};

/// Compresses a corpus with the (adapted) TED pipeline. The grouped code
/// matrices are materialized corpus-wide before packing — the memory
/// behaviour the paper observes ("TED has to load all the E(.) for the
/// preparation of matrix transformation and partitioning").
class TedCompressor {
 public:
  TedCompressor(const network::RoadNetwork& net, TedParams params)
      : net_(net), params_(params) {}

  TedCompressed Compress(const traj::UncertainCorpus& corpus) const;

 private:
  const network::RoadNetwork& net_;
  TedParams params_;
};

}  // namespace utcq::ted

#endif  // UTCQ_TED_TED_COMPRESS_H_
