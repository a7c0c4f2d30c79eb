#ifndef UTCQ_CORE_STIU_INDEX_H_
#define UTCQ_CORE_STIU_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/corpus_view.h"
#include "network/grid_index.h"
#include "traj/types.h"

namespace utcq::core {

struct StiuParams {
  uint32_t cells_per_side = 32;       // spatial grid (Table 7: 8^2..128^2)
  int64_t time_partition_s = 1800;    // Table 7: 10..60 minutes
};

/// Spatio-temporal Information based Uncertain Trajectory Index
/// (Section 5.2): temporal tuples point into the SIAR-coded T stream so
/// where/range queries decode only the deltas after the partition start;
/// spatial tuples name the instances that pass a region plus the p_max
/// aggregate Lemmas 1-4 prune with. The paper's entry-point fields (fv, d,
/// rv, ma) are not kept: nothing here decodes an instance from a region's
/// entry point (DESIGN.md §7).
///
/// One builder serves compression and open: Append each trajectory in id
/// order, from the uncompressed corpus at build time or decoded from an
/// archive on open, then Finish. Archives store only the parameters
/// (DESIGN.md §6), so the index is derived from the streams it indexes.
///
/// Layout (DESIGN.md §7): partition-major. Each trajectory's ref and nref
/// tuples are copied into the time partitions its partition list spans and
/// grouped by (partition, region), so the tuples of one partition over a run
/// of consecutive regions are one contiguous slice, in trajectory-id order
/// within a region. A trajectory spanning more than kMaxCopies partitions is
/// stored at the first coarser level, whose partitions are kMaxCopies^level
/// partitions wide, where it spans at most kMaxCopies. A tuple is kept in
/// its trajectory's first (home) partition and in each further one its time
/// window meets: the layout holds at most kMaxCopies times the tuples of
/// the region lists.
class StiuIndex {
 public:
  /// (t.start, t.no, t.pos) of Section 5.2's temporal part.
  struct TemporalTuple {
    traj::Timestamp t_start = 0;
    uint32_t t_no = 0;
    uint64_t t_pos = 0;  // absolute bit position of the (t_no+1)-th delta
    bool operator==(const TemporalTuple&) const = default;
  };

  /// Closed window of day time holding every instant at which a tuple's
  /// instance can be inside the tuple's region (DESIGN.md §7), in 2 s
  /// units: the low end floored, the high end ceiled. lo 0 is unbounded
  /// below and hi kOpen unbounded above; the default is unbounded, and
  /// Empty() holds no instant.
  struct TimeWindow {
    static constexpr uint16_t kOpen = UINT16_MAX;
    uint16_t lo = 0;
    uint16_t hi = kOpen;

    static constexpr TimeWindow Empty() { return {kOpen, 0}; }
    /// The window of [from, to], 0 <= from <= to < kSecondsPerDay.
    static constexpr TimeWindow Of(traj::Timestamp from, traj::Timestamp to) {
      return {static_cast<uint16_t>(from / 2),
              static_cast<uint16_t>((to + 1) / 2)};
    }
    /// The smallest window holding both.
    TimeWindow Hull(TimeWindow o) const {
      return {std::min(lo, o.lo), std::max(hi, o.hi)};
    }
    /// Whether the window holds an instant of [from, to].
    bool Meets(traj::Timestamp from, traj::Timestamp to) const {
      return (lo == 0 || to >= 2 * traj::Timestamp{lo}) &&
             (hi == kOpen || from <= 2 * traj::Timestamp{hi});
    }
    bool Holds(traj::Timestamp t) const { return Meets(t, t); }
    bool operator==(const TimeWindow&) const = default;
  };

  /// Tuple of a reference group w.r.t. a region (first form: the reference
  /// passes the region; second form, ref_passes() false: only members of
  /// its Rrs do — the paper's fv.id = infinity case). `window` is the
  /// reference's own, Empty() in the second form. 16 bytes.
  struct RefTuple {
    static constexpr uint32_t kRefPasses = 1u << 31;
    uint32_t traj = 0;
    uint32_t ref = 0;    // ref_idx, with kRefPasses set when it passes
    float p_max = 0.0f;  // max non-reference probability in the region
    TimeWindow window = TimeWindow::Empty();
    uint32_t ref_idx() const { return ref & ~kRefPasses; }
    bool ref_passes() const { return (ref & kRefPasses) != 0; }
    bool operator==(const RefTuple&) const = default;
  };

  /// Tuple of a non-reference w.r.t. a region. 12 bytes.
  struct NrefTuple {
    uint32_t traj = 0;
    uint32_t nref_idx = 0;
    TimeWindow window;
    bool operator==(const NrefTuple&) const = default;
  };

  /// An empty index over `grid`, recording RecordedParams(grid, params):
  /// Append every trajectory, then Finish before any query.
  StiuIndex(const network::GridIndex& grid, StiuParams params);
  /// Appends every trajectory of `corpus` in order, then Finishes.
  StiuIndex(const network::GridIndex& grid,
            const traj::UncertainCorpus& corpus, const CorpusView& cc,
            StiuParams params);
  /// Layout-ignoring shim for bench/e2e; ROADMAP item 6 deletes it.
  StiuIndex(const network::RoadNetwork& net, const network::GridIndex& grid,
            const traj::UncertainCorpus& corpus, const CorpusView& cc,
            const std::vector<std::vector<NrefFactorLayout>>& layouts,
            StiuParams params);

  /// Adds trajectory num_trajectories() of `cc`, whose times and instances
  /// (at their original positions) are `tu`. Each (region, trajectory) run
  /// of ref tuples is ascending in ref_idx. Windows come from the times and
  /// each location's path_index.
  void Append(const traj::UncertainTrajectory& tu, const CorpusView& cc);
  /// Derives the partition-major layout from the appended region lists and
  /// frees them: levels and home slots from the partition lists, then one
  /// counting and one filling pass.
  void Finish();

  /// Array-for-array equality: parameters, temporal tuples, partition
  /// lists, levels, home slots, cells and both tuple arrays.
  bool operator==(const StiuIndex& other) const;

  /// The parameters an index over `grid` built with `params` records: the
  /// grid's cells_per_side and a time partition of at least 1 s.
  static StiuParams RecordedParams(const network::GridIndex& grid,
                                   StiuParams params);

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
  /// with t_start strictly before t), or the first tuple when none precedes
  /// t. Strictness keeps the bracket the full scan's when t is a tuple's
  /// sample time: the scan brackets it at the previous entry.
  const TemporalTuple& TemporalTupleFor(size_t j, traj::Timestamp t) const;

  /// Trajectories whose time span intersects the partition containing `t`
  /// (clamped into the day, see traj::DayPartition).
  const std::vector<uint32_t>& TrajectoriesAt(traj::Timestamp t) const;

  size_t num_partitions() const { return partition_trajs_.size(); }

  /// Copies of one trajectory's tuples the layout holds at most, and the
  /// factor by which each level's partitions are wider than the last's.
  static constexpr uint32_t kMaxCopies = 4;

  /// Levels that hold tuples; level l's partitions are kMaxCopies^l
  /// partitions wide. 0 when the index covers no trajectory.
  size_t num_levels() const { return level_first_.size() - 1; }

  /// Tuples of one level's partition over a run of regions.
  struct TupleRun {
    std::span<const RefTuple> refs;
    std::span<const NrefTuple> nrefs;
  };

  /// The tuples of regions [first, last] in the level-`level` partition
  /// containing `t`: one contiguous slice per kind, by region, then by
  /// trajectory id. Over every level it holds, each at most once, every
  /// tuple of each trajectory in TrajectoriesAt(t) whose window may hold t,
  /// plus the copies in their trajectory's home partition; it may hold
  /// tuples of inactive trajectories.
  TupleRun TuplesAt(size_t level, traj::Timestamp t, network::RegionId first,
                    network::RegionId last) const;

  /// Every tuple of trajectory `j` < num_trajectories() in region `re`, in
  /// appended order: its run in the cell of its home slot.
  TupleRun TuplesOf(network::RegionId re, uint32_t j) const;

  /// Region `re`'s tuples, each once: gathered from every slot's cell of
  /// `re`, in slot then id order. O(slots x log + tuples), for tools and
  /// tests, not queries.
  std::vector<RefTuple> RefTuplesIn(network::RegionId re) const;
  std::vector<NrefTuple> NrefTuplesIn(network::RegionId re) const;

  /// Every tuple the layout holds, copies included.
  std::span<const RefTuple> ref_tuples() const { return refs_; }
  std::span<const NrefTuple> nref_tuples() const { return nrefs_; }

  size_t SizeBytes() const;
  size_t temporal_size_bytes() const;
  /// Bytes of the layout: tuples, copies included, and cells.
  size_t spatial_size_bytes() const;

 private:
  /// The tuples of one (slot, region): they run from this cell's firsts to
  /// the next cell's. Cells are ordered by (slot, region); one past the
  /// last cell of every slot is a valid cell (the next slot's first, or the
  /// end sentinel).
  struct Cell {
    network::RegionId region = 0;
    uint32_t ref_first = 0;
    uint32_t nref_first = 0;
    bool operator==(const Cell&) const = default;
  };

  /// Index of slot `slot`'s cell for region `re`, or SIZE_MAX.
  size_t CellOf(size_t slot, network::RegionId re) const;

  /// The tuples of cells [lo, hi) of one kind.
  template <typename Tuple>
  std::span<const Tuple> Slice(const std::vector<Tuple>& tuples,
                               uint32_t Cell::*first, size_t lo,
                               size_t hi) const;

  /// Region `re`'s tuples of one kind, each from its home slot's cell.
  template <typename Tuple>
  std::vector<Tuple> Gather(const std::vector<Tuple>& tuples,
                            uint32_t Cell::*first, network::RegionId re) const;

  const network::GridIndex& grid_;
  StiuParams params_;
  std::vector<std::vector<TemporalTuple>> temporal_;   // [traj]
  std::vector<std::vector<uint32_t>> partition_trajs_; // [partition]
  // Region-major lists Append fills in id order and Finish turns into the
  // layout, and Append's reused per-trajectory scratch: the regions the
  // trajectory visits in first-visit order (a visit is a slot), each
  // region's slot, the last instance that visited each slot, and one
  // aggregate per (slot, ref), and the window of each edge of the
  // instance being walked.
  struct Scratch {
    struct GroupAgg {
      float p_max = 0.0f;  // over non-references only
      TimeWindow window = TimeWindow::Empty();  // the reference's own
      bool ref_passes = false;
      bool present = false;
    };
    std::vector<TimeWindow> edge_window;  // [path index]
    std::vector<network::RegionId> visited;
    std::vector<uint32_t> slot_of;  // [region]
    std::vector<uint32_t> last_visitor;
    std::vector<GroupAgg> agg;
  };
  std::vector<std::vector<RefTuple>> region_refs_;     // [region]
  std::vector<std::vector<NrefTuple>> region_nrefs_;   // [region]
  Scratch scratch_;
  std::vector<uint32_t> home_slot_;                    // [traj]
  // Slots number the partitions of every level, level after level: level
  // l's partition q is slot level_first_[l] + q.
  std::vector<uint32_t> level_first_{0};               // [level + 1]
  std::vector<uint32_t> slot_cells_{0};                // [slot + 1]
  std::vector<Cell> cells_{Cell{}};                    // + end sentinel
  std::vector<RefTuple> refs_;
  std::vector<NrefTuple> nrefs_;
};

/// The open walk (DESIGN.md §6), the one way an index is derived from
/// streams: DeriveMetas over the streams `cc` views (its own metas are not
/// read), reconstructing each trajectory's instances over
/// index->grid().network() into one reused trajectory and appending it to
/// `*index`, which must be empty; then Finish. Fails as DeriveMetas does,
/// or naming the first instance that does not reconstruct; `*index` is then
/// unfinished.
bool DeriveMetasAndIndex(const CorpusView& cc, std::vector<TrajMeta>* metas,
                         StiuIndex* index, std::string* error);

}  // namespace utcq::core

#endif  // UTCQ_CORE_STIU_INDEX_H_
