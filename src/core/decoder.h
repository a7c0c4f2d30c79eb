#ifndef UTCQ_CORE_DECODER_H_
#define UTCQ_CORE_DECODER_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/corpus_view.h"
#include "traj/decoded.h"
#include "traj/interpolate.h"
#include "traj/types.h"

namespace utcq::core {

/// A decoded instance in improved-TED form.
struct DecodedInstance {
  network::VertexId sv = network::kInvalidVertex;
  std::vector<uint32_t> entries;
  std::vector<uint8_t> tflag_trimmed;
  std::vector<double> rds;
  double p = 0.0;
};

/// Decode paths over a CorpusView: full per-instance decoding for
/// round-trip tests, and the partial entry points the query processor uses
/// (time bracketing from a temporal tuple, reference-then-non-reference
/// expansion). The view is held by value — a decoder works identically over
/// a live CompressedCorpus (which converts implicitly) and over a corpus
/// reopened from an archive file; the bytes' owner must outlive the decoder.
class UtcqDecoder {
 public:
  UtcqDecoder(const network::RoadNetwork& net, CorpusView cc)
      : net_(net), cc_(cc) {}

  /// Decodes the full shared time sequence of trajectory `j`.
  std::vector<traj::Timestamp> DecodeTimes(size_t j) const;

  /// DecodeTimes into a caller-owned buffer (cleared first). Decode-heavy
  /// loops reuse one buffer across trajectories so the per-call allocation
  /// disappears once its capacity has grown to the corpus maximum.
  /// Returns the number of stream bits consumed (0 when the stream was
  /// rejected as corrupt) — the unit the partial-decode counters report.
  uint64_t DecodeTimesInto(size_t j, std::vector<traj::Timestamp>* out) const;

  /// Per-call seek accounting for the sync-point entry points below.
  struct SeekStats {
    uint64_t bits_read = 0;   // stream bits this call consumed
    uint32_t sync_seeks = 0;  // starts upgraded through TrajMeta::t_syncs
  };

  /// Partial T decompression: starting from a temporal-index tuple
  /// (t_no, t_start, t_pos), finds i with t_i <= t <= t_{i+1}. Returns
  /// (i, t_i, t_{i+1}); nullopt when t falls outside the remaining span.
  ///
  /// When the trajectory carries a sync table (DESIGN.md §16), the scan start
  /// is upgraded to the latest sync point with entry > t_no and t strictly
  /// below the query time, so the walk reads at most ~K deltas instead of
  /// everything after the temporal tuple. The strict `sync.t < t`
  /// comparison is load-bearing: on a query time exactly equal to a sample
  /// time the full scan brackets at the *previous* entry, and a seek
  /// landing on the equal sample would skip it (the §16 boundary
  /// contract, pinned by decoder_test).
  struct TimeBracket {
    size_t index;
    traj::Timestamp t0;
    traj::Timestamp t1;
  };
  std::optional<TimeBracket> BracketTime(size_t j, traj::Timestamp t,
                                         uint32_t t_no,
                                         traj::Timestamp t_start,
                                         uint64_t t_pos,
                                         SeekStats* seek = nullptr) const;

  /// Decodes times[first .. last] (inclusive; clamped to the trajectory's
  /// n_points) into `out` (cleared, capacity kept), seeking through the
  /// sync table to the latest sync at or before `first` instead of
  /// expanding from the block start. Allocation-free beyond `out`'s
  /// growth; deltas decode through the batched strategies::DecodeIeg.
  /// Returns the stream bits consumed; on a corrupt stream `out` is left
  /// empty.
  uint64_t DecodeRangeInto(size_t j, uint32_t first, uint32_t last,
                           std::vector<traj::Timestamp>* out,
                           SeekStats* seek = nullptr) const;

  /// BracketTime over an already-expanded time sequence: same scan, same
  /// results, no bitstream walk. `times` must be trajectory j's full
  /// DecodeTimes output (n_points entries) for the brackets to agree.
  static std::optional<TimeBracket> BracketInTimes(
      const std::vector<traj::Timestamp>& times, uint32_t n_points,
      traj::Timestamp t, uint32_t t_no, traj::Timestamp t_start);

  /// The two instance decoders. `d`'s vectors are cleared (capacity kept)
  /// and refilled, so a loop that decodes many instances through one
  /// DecodedInstance stops paying an allocation per instance. Both return
  /// the stream bits consumed (0 on a rejected corrupt stream), feeding
  /// the partial-decode byte accounting.
  uint64_t DecodeReferenceInto(size_t j, uint32_t ref_idx,
                               DecodedInstance* d) const;
  uint64_t DecodeNonReferenceInto(size_t j, uint32_t nref_idx,
                                  const DecodedInstance& ref,
                                  DecodedInstance* d) const;

  /// Rebuilds a TrajectoryInstance (path + locations) from a decoded form.
  std::optional<traj::TrajectoryInstance> ToInstance(
      const DecodedInstance& d) const;
  /// ToInstance into `out`, with `flags` as scratch, both reused across
  /// calls; false when the decoded form does not reconstruct.
  bool ToInstanceInto(const DecodedInstance& d, traj::TrajectoryInstance* out,
                      std::vector<uint8_t>* flags) const;

  /// Decodes trajectory `j` in full — shared times plus every reference and
  /// non-reference expanded to an instance — into the alpha-independent
  /// handle the serving layer caches (slot layout documented on
  /// traj::DecodedTraj).
  traj::DecodedTraj DecodeTraj(size_t j) const;

  /// Full corpus decompression (round-trip tests), through DeriveMetas's
  /// walk over the streams.
  traj::UncertainCorpus DecompressAll() const;

  const CorpusView& view() const { return cc_; }

 private:
  const network::RoadNetwork& net_;
  CorpusView cc_;
};

/// What DeriveMetas hands its visitor per trajectory, right after appending
/// the trajectory's meta: its times (the visitor may swap them out; the
/// walk refills the buffer) and its instances in improved-TED form at their
/// original positions. Returning false stops the walk; the visitor sets
/// the reason.
using DerivedTrajVisitor =
    std::function<bool(std::vector<traj::Timestamp>& times,
                       std::span<const DecodedInstance> instances)>;

/// Rebuilds every TrajMeta of the corpus whose streams `cc` views (its own
/// metas are not read) exactly as the encoder recorded them, in one
/// sequential walk over the T, structure, ref and nref streams (DESIGN.md
/// §6): each block starts where the previous one ends, and the sync tables
/// follow the encoder's rule for cc.params().t_sync_interval. Returns false
/// with a reason in `*error`, naming the trajectory, when a block runs past
/// its stream or does not decode, a non-reference names a missing
/// reference, or a stream holds bits past its last block.
bool DeriveMetas(const CorpusView& cc, std::vector<TrajMeta>* metas,
                 std::string* error,
                 const DerivedTrajVisitor& visit = nullptr);

}  // namespace utcq::core

#endif  // UTCQ_CORE_DECODER_H_
