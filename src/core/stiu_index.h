#ifndef UTCQ_CORE_STIU_INDEX_H_
#define UTCQ_CORE_STIU_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "core/corpus_view.h"
#include "network/grid_index.h"
#include "traj/types.h"

namespace utcq::core {

struct StiuParams {
  uint32_t cells_per_side = 32;       // spatial grid (Table 7: 8^2..128^2)
  int64_t time_partition_s = 1800;    // Table 7: 10..60 minutes
};

/// Spatio-temporal Information based Uncertain Trajectory Index
/// (Section 5.2). Built during compression: temporal tuples point into the
/// SIAR-coded T stream so where/range queries decode only the deltas after
/// the partition start; spatial tuples carry the final-vertex anchors plus
/// the p_total / p_max aggregates Lemmas 1-4 prune with.
///
/// The index is persistable: Serialize writes every tuple list to a byte
/// stream (the archive's StIU section) and the deserializing constructor
/// rebuilds an identical index against a grid reconstructed from the stored
/// cells_per_side — nothing in the loaded index depends on the original
/// uncompressed corpus.
///
/// Layout (DESIGN.md §7): each region's ref and nref tuple lists are kept
/// partition-major, ordered by (first time partition of the owning
/// trajectory, trajectory id). Bucket b holds the trajectories whose first
/// partition is b; bucket num_partitions() is a sentinel for trajectories
/// in no partition. Both constructors derive the order, so an index loaded
/// from a section in any tuple order answers identically. A bucket
/// directory per list kind records each list's non-empty buckets, so a
/// bucket window's bounds never search the tuples themselves.
class StiuIndex {
 public:
  /// (t.start, t.no, t.pos) of Section 5.2's temporal part.
  struct TemporalTuple {
    traj::Timestamp t_start = 0;
    uint32_t t_no = 0;
    uint64_t t_pos = 0;  // absolute bit position of the (t_no+1)-th delta
  };

  /// Tuple of a reference w.r.t. a region (first form: the reference passes
  /// the region; second form, ref_passes = false: only members of its Rrs
  /// do — the paper's fv.id = infinity case).
  /// Field order packs the tuple into 40 bytes (ref_passes fills the gap
  /// before d_pos); the section format is field by field and unaffected.
  struct RefTuple {
    uint32_t traj = 0;
    uint32_t ref_idx = 0;
    network::VertexId fv_id = network::kInvalidVertex;
    uint32_t fv_no = 0;   // entry index of the region's first edge in E(ref)
    uint32_t d_no = 0;    // gamma(fv_no): locations at or before that entry
    bool ref_passes = false;
    uint64_t d_pos = 0;   // bit position of the bracketing D code
    float p_total = 0.0f;
    float p_max = 0.0f;   // max non-reference probability in the region
  };

  /// Tuple of a non-reference w.r.t. a region.
  struct NrefTuple {
    uint32_t traj = 0;
    uint32_t nref_idx = 0;
    network::VertexId rv_id = network::kInvalidVertex;
    uint32_t rv_no = 0;   // entry index of the region's first edge in E(nref)
    uint64_t ma_pos = 0;  // bit offset of the factor containing that entry
  };

  /// Builds the index during compression (needs the uncompressed corpus for
  /// the spatial aggregates and the factor layouts for ma.pos). Trajectory
  /// j of the index is *trajs[j], borrowed for the constructor's duration,
  /// so a shard indexes its members in place without copying them.
  StiuIndex(const network::RoadNetwork& net, const network::GridIndex& grid,
            std::span<const traj::UncertainTrajectory* const> trajs,
            const CorpusView& cc,
            const std::vector<std::vector<NrefFactorLayout>>& layouts,
            StiuParams params);
  /// Same, over every trajectory of `corpus` in order.
  StiuIndex(const network::RoadNetwork& net, const network::GridIndex& grid,
            const traj::UncertainCorpus& corpus, const CorpusView& cc,
            const std::vector<std::vector<NrefFactorLayout>>& layouts,
            StiuParams params);

  /// Rebuilds an index from a Serialize()d byte stream (the archive's StIU
  /// section). `grid` must have been constructed with the cells_per_side
  /// recorded alongside the section; region-count mismatches latch
  /// `in.ok()` false and leave the index empty.
  StiuIndex(const network::GridIndex& grid, common::ByteReader& in);

  /// Writes params and every tuple list; the exact inverse of the reading
  /// constructor.
  void Serialize(common::ByteWriter& out) const;
  /// Counts the bytes Serialize would write, without writing them.
  void Serialize(common::ByteCounter& out) const;

  const network::GridIndex& grid() const { return grid_; }
  const StiuParams& params() const { return params_; }
  int64_t time_partition_s() const { return params_.time_partition_s; }

  /// Number of trajectories the index covers (TemporalOf's valid range).
  size_t num_trajectories() const { return temporal_.size(); }

  /// Temporal tuples of trajectory `j`, ordered by t_start.
  const std::vector<TemporalTuple>& TemporalOf(size_t j) const {
    return temporal_[j];
  }

  /// Best tuple to start a partial T decode for time `t` (the latest tuple
  /// with t_start <= t), or the first tuple when t precedes them all.
  const TemporalTuple& TemporalTupleFor(size_t j, traj::Timestamp t) const;

  /// Trajectories whose time span intersects the partition containing `t`
  /// (clamped into the day, see traj::DayPartition).
  const std::vector<uint32_t>& TrajectoriesAt(traj::Timestamp t) const;

  size_t num_partitions() const { return partition_trajs_.size(); }

  /// Largest number of partitions, first to last, any trajectory is listed
  /// in (0 when none is listed anywhere).
  uint32_t max_span() const { return max_span_; }

  /// Whole tuple lists of region `re`, in partition-major order.
  const std::vector<RefTuple>& RefTuplesIn(network::RegionId re) const {
    return region_refs_[re];
  }
  const std::vector<NrefTuple>& NrefTuplesIn(network::RegionId re) const {
    return region_nrefs_[re];
  }

  /// The tuples of region `re` whose bucket lies in [lo, hi): one slice of
  /// the partition-major list, bounded through the bucket directory.
  std::span<const RefTuple> RefTuplesInBuckets(network::RegionId re,
                                               size_t lo, size_t hi) const;
  std::span<const NrefTuple> NrefTuplesInBuckets(network::RegionId re,
                                                 size_t lo, size_t hi) const;

  /// The slice of region `re`'s list holding every tuple of every
  /// trajectory in TrajectoriesAt(t): buckets [p - max_span() + 1, p] for
  /// t's partition p. It may also hold tuples of inactive trajectories.
  std::span<const RefTuple> RefTuplesLiveAt(network::RegionId re,
                                            traj::Timestamp t) const;
  std::span<const NrefTuple> NrefTuplesLiveAt(network::RegionId re,
                                              traj::Timestamp t) const;

  /// Every tuple of trajectory `j` in region `re`, in list order.
  std::span<const RefTuple> RefTuplesOf(network::RegionId re,
                                        uint32_t j) const;
  std::span<const NrefTuple> NrefTuplesOf(network::RegionId re,
                                          uint32_t j) const;

  size_t SizeBytes() const;
  size_t temporal_size_bytes() const;
  size_t spatial_size_bytes() const;
  /// Bytes of the two bucket directories (runs plus region offsets).
  size_t directory_size_bytes() const;

 private:
  template <typename Out>
  void SerializeTo(Out& out) const;

  /// One non-empty bucket of a partition-major list: its id and the index
  /// of its first tuple.
  struct BucketRun {
    uint32_t bucket = 0;
    uint32_t first = 0;
  };

  /// The non-empty buckets of every region list of one kind, flattened:
  /// region re's runs are runs[offsets[re], offsets[re + 1]), ascending.
  /// At most one run per tuple.
  struct BucketDirectory {
    std::vector<BucketRun> runs;
    std::vector<uint32_t> offsets;  // [region + 1]
  };

  /// Derives first_partition_ and max_span_ from partition_trajs_,
  /// reorders every region list partition-major and builds both bucket
  /// directories.
  void OrderByPartition();

  /// Bucket of trajectory `j`'s tuples: its first partition, or the
  /// sentinel num_partitions() (also for ids the index does not cover).
  size_t BucketOf(uint32_t j) const;

  /// The directory of `lists`, built in one counting and one filling pass.
  template <typename Tuple>
  BucketDirectory BuildDirectory(
      const std::vector<std::vector<Tuple>>& lists) const;

  /// Tuples of `tuples` (region `re`'s list, described by `dir`) in
  /// buckets [lo, hi).
  template <typename Tuple>
  static std::span<const Tuple> InBuckets(const std::vector<Tuple>& tuples,
                                          const BucketDirectory& dir,
                                          network::RegionId re, size_t lo,
                                          size_t hi);

  /// Bucket range [lo, hi) scanned for tuples live at `t`.
  std::pair<size_t, size_t> LiveBuckets(traj::Timestamp t) const;

  const network::GridIndex& grid_;
  StiuParams params_;
  std::vector<std::vector<TemporalTuple>> temporal_;   // [traj]
  std::vector<std::vector<uint32_t>> partition_trajs_; // [partition]
  std::vector<std::vector<RefTuple>> region_refs_;     // [region]
  std::vector<std::vector<NrefTuple>> region_nrefs_;   // [region]
  std::vector<uint32_t> first_partition_;              // [traj]
  uint32_t max_span_ = 0;
  BucketDirectory ref_dir_;
  BucketDirectory nref_dir_;
};

}  // namespace utcq::core

#endif  // UTCQ_CORE_STIU_INDEX_H_
