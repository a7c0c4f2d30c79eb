#ifndef UTCQ_TESTS_STIU_SECTIONS_H_
#define UTCQ_TESTS_STIU_SECTIONS_H_

// Older writers' StIU sections, the partition-major layout oracle and the
// index equality check shared by the StIU suites (stiu_test, query_test,
// archive_test, differential_test).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/stiu_index.h"

namespace utcq::test {

/// A ref tuple in the pre-v4 (tag 7) shape: the four fields the index
/// keeps plus the five it no longer computes. Test-only: it lets a suite
/// write the sections v1-v3 writers wrote.
struct LegacyRefTuple {
  uint32_t traj = 0;
  uint32_t ref_idx = 0;
  uint32_t fv_id = 0xFFFFFFFFu;
  uint32_t fv_no = 0;
  uint32_t d_no = 0;
  bool ref_passes = false;
  uint64_t d_pos = 0;
  float p_total = 0.0f;
  float p_max = 0.0f;
};

/// A nref tuple in the pre-v4 shape: the two kept fields plus three more.
struct LegacyNrefTuple {
  uint32_t traj = 0;
  uint32_t nref_idx = 0;
  uint32_t rv_id = 0xFFFFFFFFu;
  uint32_t rv_no = 0;
  uint64_t ma_pos = 0;
};

/// Every list of a StIU tuple section, read back from an index through its
/// public accessors. Write() emits the lists in the shape v4 writers stored
/// (tag 10) and WriteLegacy() in the shape v1-v3 writers stored (tag 7), so
/// suites can build older writers' images, honest or hostile. Tuples carry
/// the legacy fields, which Of() leaves at their defaults and Write() drops.
struct StiuSection {
  uint32_t cells_per_side = 0;
  int64_t time_partition_s = 1;
  std::vector<std::vector<core::StiuIndex::TemporalTuple>> temporal;
  std::vector<std::vector<uint32_t>> partitions;
  std::vector<std::vector<LegacyRefTuple>> refs;
  std::vector<std::vector<LegacyNrefTuple>> nrefs;

  static StiuSection Of(const core::StiuIndex& index) {
    StiuSection s;
    s.cells_per_side = index.params().cells_per_side;
    s.time_partition_s = index.time_partition_s();
    for (size_t j = 0; j < index.num_trajectories(); ++j) {
      s.temporal.push_back(index.TemporalOf(j));
    }
    for (size_t p = 0; p < index.num_partitions(); ++p) {
      s.partitions.push_back(index.TrajectoriesAt(
          static_cast<traj::Timestamp>(p) * index.time_partition_s()));
    }
    for (network::RegionId re = 0; re < index.grid().num_regions(); ++re) {
      auto& refs = s.refs.emplace_back();
      for (const auto& rt : index.RefTuplesIn(re)) {
        refs.push_back({.traj = rt.traj,
                        .ref_idx = rt.ref_idx(),
                        .ref_passes = rt.ref_passes(),
                        .p_max = rt.p_max});
      }
      auto& nrefs = s.nrefs.emplace_back();
      for (const auto& nt : index.NrefTuplesIn(re)) {
        nrefs.push_back({.traj = nt.traj, .nref_idx = nt.nref_idx});
      }
    }
    return s;
  }

  /// The tag-10 section bytes.
  std::vector<uint8_t> Write() const { return WriteShape(/*legacy=*/false); }

  /// The same lists as a tag-7 section, legacy fields included.
  std::vector<uint8_t> WriteLegacy() const {
    return WriteShape(/*legacy=*/true);
  }

 private:
  std::vector<uint8_t> WriteShape(bool legacy) const {
    common::ByteWriter out;
    out.PutVarint(cells_per_side);
    out.PutSignedVarint(time_partition_s);
    out.PutVarint(temporal.size());
    out.PutVarint(partitions.size());
    out.PutVarint(refs.size());
    for (const auto& tuples : temporal) {
      out.PutVarint(tuples.size());
      traj::Timestamp prev_start = 0;
      for (const auto& t : tuples) {
        out.PutVarint(static_cast<uint64_t>(t.t_start - prev_start));
        prev_start = t.t_start;
        out.PutVarint(t.t_no);
        out.PutVarint(t.t_pos);
      }
    }
    for (const auto& trajs : partitions) {
      out.PutVarint(trajs.size());
      for (const uint32_t j : trajs) out.PutVarint(j);
    }
    for (const auto& tuples : refs) {
      out.PutVarint(tuples.size());
      for (const auto& rt : tuples) {
        out.PutVarint(rt.traj);
        out.PutVarint(rt.ref_idx);
        if (legacy) {
          out.PutU32(rt.fv_id);
          out.PutVarint(rt.fv_no);
          out.PutVarint(rt.d_no);
          out.PutVarint(rt.d_pos);
          out.PutF32(rt.p_total);
        }
        out.PutF32(rt.p_max);
        out.PutU8(rt.ref_passes ? 1 : 0);
      }
    }
    for (const auto& tuples : nrefs) {
      out.PutVarint(tuples.size());
      for (const auto& nt : tuples) {
        out.PutVarint(nt.traj);
        out.PutVarint(nt.nref_idx);
        if (legacy) {
          out.PutU32(nt.rv_id);
          out.PutVarint(nt.rv_no);
          out.PutVarint(nt.ma_pos);
        }
      }
    }
    return out.Release();
  }
};

/// First and last partition listing each trajectory, read back through
/// TrajectoriesAt alone, so the checks below do not trust the index's own
/// bookkeeping.
inline std::vector<std::pair<size_t, size_t>> Membership(
    const core::StiuIndex& index) {
  const size_t n = index.num_trajectories();
  std::vector<std::pair<size_t, size_t>> span(n, {index.num_partitions(), 0});
  for (size_t p = 0; p < index.num_partitions(); ++p) {
    const auto t = static_cast<traj::Timestamp>(p) * index.time_partition_s();
    for (const uint32_t j : index.TrajectoriesAt(t)) {
      span[j].first = std::min(span[j].first, p);
      span[j].second = p;
    }
  }
  return span;
}

/// The layout rule, restated: a trajectory listed from partition `first`
/// to `last` is stored at the finest level l where those partitions fall
/// into at most kMaxCopies partitions kMaxCopies^l wide, one copy in each.
inline size_t LevelOf(size_t first, size_t last) {
  size_t l = 0;
  while ((last >> (2 * l)) - (first >> (2 * l)) >= 4) ++l;
  return l;
}

/// Whether a tuple window holds an instant of [from, to], restated from
/// its encoding: 2 s units, lo 0 unbounded below, hi 0xFFFF unbounded
/// above.
inline bool WindowMeets(core::StiuIndex::TimeWindow w, traj::Timestamp from,
                        traj::Timestamp to) {
  const traj::Timestamp lo = w.lo == 0 ? INT64_MIN : 2 * traj::Timestamp{w.lo};
  const traj::Timestamp hi =
      w.hi == 0xFFFF ? INT64_MAX : 2 * traj::Timestamp{w.hi};
  return lo <= to && from <= hi;
}

/// The copy rule: whether the level-`level` partition holding partition
/// `p` must carry a tuple with window `w` of a trajectory listed from
/// partition `first` to `last`. It must when the trajectory sits at that
/// level, its partitions there span p's, and p's is its home, the one
/// holding `first`, or has a time span the window meets; the level's first
/// and last partitions run on past the day, as DayPartition clamps.
inline bool Carries(std::pair<size_t, size_t> membership, size_t partitions,
                    int64_t partition_s, size_t level, size_t p,
                    core::StiuIndex::TimeWindow w) {
  const auto [first, last] = membership;
  const size_t shift = 2 * level;
  const size_t q = p >> shift;
  if (first >= partitions || LevelOf(first, last) != level ||
      q < (first >> shift) || q > (last >> shift)) {
    return false;
  }
  if (q == (first >> shift)) return true;
  const traj::Timestamp from =
      static_cast<traj::Timestamp>(q << shift) * partition_s;
  const traj::Timestamp to =
      q == ((partitions - 1) >> shift)
          ? INT64_MAX
          : static_cast<traj::Timestamp>((q + 1) << shift) * partition_s - 1;
  return WindowMeets(w, from, to);
}

/// Field-by-field equality of two tuple sequences.
inline void ExpectSameTuples(std::span<const core::StiuIndex::RefTuple> got,
                             std::span<const core::StiuIndex::RefTuple> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].traj, want[k].traj) << "position " << k;
    EXPECT_EQ(got[k].ref_idx(), want[k].ref_idx()) << "position " << k;
    EXPECT_EQ(got[k].p_max, want[k].p_max) << "position " << k;
    EXPECT_EQ(got[k].ref_passes(), want[k].ref_passes()) << "position " << k;
    EXPECT_EQ(got[k].window, want[k].window) << "position " << k;
  }
}
inline void ExpectSameTuples(
    std::span<const core::StiuIndex::NrefTuple> got,
    std::span<const core::StiuIndex::NrefTuple> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].traj, want[k].traj) << "position " << k;
    EXPECT_EQ(got[k].nref_idx, want[k].nref_idx) << "position " << k;
    EXPECT_EQ(got[k].window, want[k].window) << "position " << k;
  }
}

/// Region `re`'s tuples of both kinds in id order (each trajectory's in the
/// order it was appended), from the RefTuplesIn / NrefTuplesIn gathers.
inline std::pair<std::vector<core::StiuIndex::RefTuple>,
                 std::vector<core::StiuIndex::NrefTuple>>
RegionLists(const core::StiuIndex& index, network::RegionId re) {
  auto refs = index.RefTuplesIn(re);
  auto nrefs = index.NrefTuplesIn(re);
  const auto by_id = [](const auto& a, const auto& b) { return a.traj < b.traj; };
  std::stable_sort(refs.begin(), refs.end(), by_id);
  std::stable_sort(nrefs.begin(), nrefs.end(), by_id);
  return {std::move(refs), std::move(nrefs)};
}

/// The layout against an oracle built from TrajectoriesAt and the region
/// lists alone:
/// - every trajectory is listed in at least one partition;
/// - num_levels() is one past the deepest level any trajectory needs;
/// - TuplesAt(level, t, first, last) is exactly the tuples of regions
///   [first, last] the level's partition around t must carry (Carries), by
///   region then id: per region, per grid row and over the whole grid, at
///   every partition (every 37th past 48 partitions);
/// - TuplesOf(re, j) is j's tuples of region re;
/// - the layout holds at most kMaxCopies copies of the region lists.
inline void ExpectLayoutMatchesOracle(const core::StiuIndex& index) {
  const auto membership = Membership(index);
  const size_t n = index.num_trajectories();
  const size_t partitions = index.num_partitions();
  const auto regions = index.grid().num_regions();
  const auto side = index.grid().cells_per_side();
  std::vector<std::vector<core::StiuIndex::RefTuple>> refs(regions);
  std::vector<std::vector<core::StiuIndex::NrefTuple>> nrefs(regions);
  size_t stored_refs = 0;
  size_t stored_nrefs = 0;
  for (network::RegionId re = 0; re < regions; ++re) {
    std::tie(refs[re], nrefs[re]) = RegionLists(index, re);
    stored_refs += refs[re].size();
    stored_nrefs += nrefs[re].size();
  }
  for (size_t j = 0; j < n; ++j) {
    ASSERT_LT(membership[j].first, partitions) << "trajectory " << j;
  }
  EXPECT_LE(index.ref_tuples().size(),
            core::StiuIndex::kMaxCopies * stored_refs);
  EXPECT_LE(index.nref_tuples().size(),
            core::StiuIndex::kMaxCopies * stored_nrefs);

  size_t levels = 0;
  for (const auto& [first, last] : membership) {
    levels = std::max(levels, LevelOf(first, last) + 1);
  }
  ASSERT_EQ(index.num_levels(), levels);

  for (size_t p = 0; p < partitions; p += partitions <= 48 ? 1 : 37) {
    const auto t = static_cast<traj::Timestamp>(p) * index.time_partition_s();
    for (size_t level = 0; level <= levels; ++level) {
      SCOPED_TRACE("partition " + std::to_string(p) + " level " +
                   std::to_string(level));
      const auto carries = [&](const auto& tuple) {
        return Carries(membership[tuple.traj], partitions,
                       index.time_partition_s(), level, p, tuple.window);
      };
      const auto expect_run = [&](network::RegionId first,
                                  network::RegionId last) {
        std::vector<core::StiuIndex::RefTuple> want_refs;
        std::vector<core::StiuIndex::NrefTuple> want_nrefs;
        for (network::RegionId re = first; re <= last; ++re) {
          for (const auto& rt : refs[re]) {
            if (carries(rt)) want_refs.push_back(rt);
          }
          for (const auto& nt : nrefs[re]) {
            if (carries(nt)) want_nrefs.push_back(nt);
          }
        }
        const auto got = index.TuplesAt(level, t, first, last);
        SCOPED_TRACE("regions " + std::to_string(first) + ".." +
                     std::to_string(last));
        ExpectSameTuples(got.refs, want_refs);
        ExpectSameTuples(got.nrefs, want_nrefs);
      };
      for (network::RegionId re = 0; re < regions; ++re) expect_run(re, re);
      for (network::RegionId row = 0; row < side; ++row) {
        expect_run(row * side, row * side + side - 1);
      }
      expect_run(side / 2, regions - 1);
    }
  }

  for (network::RegionId re = 0; re < regions; ++re) {
    for (uint32_t j = 0; j < n; ++j) {
      std::vector<core::StiuIndex::RefTuple> want_refs;
      std::vector<core::StiuIndex::NrefTuple> want_nrefs;
      for (const auto& rt : refs[re]) {
        if (rt.traj == j) want_refs.push_back(rt);
      }
      for (const auto& nt : nrefs[re]) {
        if (nt.traj == j) want_nrefs.push_back(nt);
      }
      SCOPED_TRACE("region " + std::to_string(re) + " trajectory " +
                   std::to_string(j));
      const auto got = index.TuplesOf(re, j);
      ExpectSameTuples(got.refs, want_refs);
      ExpectSameTuples(got.nrefs, want_nrefs);
    }
  }
}

/// Two indexes equal array for array (StiuIndex::operator==), with the
/// first difference in the public views named when they do not.
inline void ExpectSameIndex(const core::StiuIndex& got,
                            const core::StiuIndex& want) {
  ASSERT_EQ(got.num_trajectories(), want.num_trajectories());
  EXPECT_EQ(got.time_partition_s(), want.time_partition_s());
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  for (size_t j = 0; j < want.num_trajectories(); ++j) {
    ASSERT_EQ(got.TemporalOf(j), want.TemporalOf(j)) << "trajectory " << j;
  }
  for (size_t p = 0; p < want.num_partitions(); ++p) {
    const auto t = static_cast<traj::Timestamp>(p) * want.time_partition_s();
    ASSERT_EQ(got.TrajectoriesAt(t), want.TrajectoriesAt(t))
        << "partition " << p;
  }
  ASSERT_EQ(got.num_levels(), want.num_levels());
  ExpectSameTuples(got.ref_tuples(), want.ref_tuples());
  ExpectSameTuples(got.nref_tuples(), want.nref_tuples());
  EXPECT_TRUE(got == want) << "home slots or cells differ";
}

}  // namespace utcq::test

#endif  // UTCQ_TESTS_STIU_SECTIONS_H_
