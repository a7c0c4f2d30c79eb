#ifndef UTCQ_CORE_QUERY_H_
#define UTCQ_CORE_QUERY_H_

#include <vector>

#include "core/decoder.h"
#include "core/stiu_index.h"
#include "network/geometry.h"
#include "traj/query_types.h"

namespace utcq::core {

/// Counters making the filtering lemmas' effectiveness observable
/// (bench/e2e reports them as its range.* metrics).
struct QueryStats {
  uint64_t candidates = 0;
  uint64_t pruned_lemma1 = 0;  // when: p_max gate on non-references
  uint64_t pruned_lemma2 = 0;  // range: subpath containment/disjointness
  uint64_t pruned_lemma4 = 0;  // range: region probability mass below alpha
  uint64_t accepted_lemma3 = 0;  // range: early accept
  uint64_t instances_decoded = 0;
  /// Compressed stream bits the query actually consumed (T-stream bracket
  /// scans, reference/non-reference expansion, lazy time decodes). This is
  /// the partial-decode cost metric: comparable across the seek path and a
  /// metered full decode, unlike in-memory handle sizes.
  uint64_t stream_bits_read = 0;
  /// Bracket scans whose start was upgraded through a v3 sync table.
  uint64_t sync_seeks = 0;
  /// StIU spatial tuples read by candidate generation: for Range, every
  /// tuple in tq's partition rows of the query's regions at every level,
  /// inactive trajectories' included; for When, the trajectory's runs.
  /// Whether the index prunes at all, against the full region-list total.
  uint64_t tuples_scanned = 0;
  /// Range: tuples of those read (ref tuples whose reference passes, and
  /// nref tuples) skipped because their time window misses tq.
  uint64_t window_rejected = 0;
};

/// Lemma 2 classification of a travelled subpath against a query region.
enum class SubpathRelation { kInside, kDisjoint, kPartial };

/// Relation of the subpath travelled between locations i and i+1 of `inst`
/// against `re`, using the full bracketing edges as a conservative superset.
/// Degenerate instances (empty path, or a location pointing past the path)
/// classify as kDisjoint: a subpath that touches no edge overlaps nothing.
/// Against a zero-area `re` every other subpath is kPartial.
SubpathRelation ClassifySubpath(const network::RoadNetwork& net,
                                const traj::TrajectoryInstance& inst, size_t i,
                                const network::Rect& re);

/// Probabilistic where / when / range queries over a compressed corpus,
/// using the StIU index for candidate generation and partial decompression
/// and Lemmas 1-4 for pruning (Sections 5.3-5.4).
///
/// Consumes the immutable CorpusView, so the same processor serves a corpus
/// still held by its compressor and one reopened from an archive file — the
/// compress→save→exit→open→query lifecycle runs through this one class.
class UtcqQueryProcessor {
 public:
  UtcqQueryProcessor(const network::RoadNetwork& net, CorpusView cc,
                     const StiuIndex& index)
      : net_(net), index_(index), decoder_(net, cc) {}

  /// where(Tu^j, t, alpha) — Definition 10.
  std::vector<traj::WhereHit> Where(size_t traj_idx, traj::Timestamp t,
                                    double alpha,
                                    QueryStats* stats = nullptr) const;

  /// when(Tu^j, <edge, rd>, alpha) — Definition 11.
  std::vector<traj::WhenHit> When(size_t traj_idx, network::EdgeId edge,
                                  double rd, double alpha,
                                  QueryStats* stats = nullptr) const;

  /// range(Tu, RE, tq, alpha) — Definition 12.
  traj::RangeResult Range(const network::Rect& region, traj::Timestamp tq,
                          double alpha, QueryStats* stats = nullptr) const;

  /// Cached variants: identical hits in identical order, but every decode
  /// is served from the pre-expanded handle (the serving layer's cache)
  /// instead of the bitstreams. `dt` must be decoder().DecodeTraj(traj_idx)
  /// output; a handle whose shape disagrees with the trajectory's meta
  /// falls back to inline decoding.
  std::vector<traj::WhereHit> Where(size_t traj_idx, traj::Timestamp t,
                                    double alpha, const traj::DecodedTraj& dt,
                                    QueryStats* stats = nullptr) const;
  std::vector<traj::WhenHit> When(size_t traj_idx, network::EdgeId edge,
                                  double rd, double alpha,
                                  const traj::DecodedTraj& dt,
                                  QueryStats* stats = nullptr) const;

  /// Range with a decoded-trajectory provider: candidate generation and the
  /// Lemma 1-4 pruning cascade are unchanged, but trajectories the provider
  /// can supply skip the per-member bitstream decodes. The provider may be
  /// empty or return nullptr per trajectory (inline decode for those); it
  /// is only consulted for candidates that survive every meta/index-level
  /// rejection, so a decode-on-miss provider never decodes a trajectory
  /// the uncached path would have dismissed without decoding.
  traj::RangeResult Range(const network::Rect& region, traj::Timestamp tq,
                          double alpha, const traj::DecodedProvider& provider,
                          QueryStats* stats = nullptr) const;

  /// Index-only test of whether any instance of trajectory `traj_idx` has
  /// StIU tuples near `edge` — exactly the condition under which When can
  /// return hits. False means When answers empty with zero decodes; the
  /// serving layer checks this before paying a full decode for the handle.
  bool MayPassEdge(size_t traj_idx, network::EdgeId edge) const;

  const UtcqDecoder& decoder() const { return decoder_; }

 private:
  std::vector<traj::WhereHit> WhereImpl(size_t traj_idx, traj::Timestamp t,
                                        double alpha,
                                        const traj::DecodedTraj* dt,
                                        QueryStats* stats) const;
  std::vector<traj::WhenHit> WhenImpl(size_t traj_idx, network::EdgeId edge,
                                      double rd, double alpha,
                                      const traj::DecodedTraj* dt,
                                      QueryStats* stats) const;
  traj::RangeResult RangeImpl(const network::Rect& region, traj::Timestamp tq,
                              double alpha,
                              const traj::DecodedProvider* provider,
                              QueryStats* stats) const;

  /// Decodes the instances of trajectory `j` whose quantized probability is
  /// >= alpha, reusing each reference decode across its Rrs. With `dt` the
  /// instances come from the handle instead.
  std::vector<std::pair<uint32_t, traj::TrajectoryInstance>>
  DecodeQualifying(size_t j, double alpha, const traj::DecodedTraj* dt,
                   QueryStats* stats) const;

  /// The decoder's view is the single copy of the corpus read-side.
  const CorpusView& cc() const { return decoder_.view(); }

  const network::RoadNetwork& net_;
  const StiuIndex& index_;
  UtcqDecoder decoder_;
};

}  // namespace utcq::core

#endif  // UTCQ_CORE_QUERY_H_
