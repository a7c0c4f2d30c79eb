#ifndef UTCQ_TESTS_STIU_SECTIONS_H_
#define UTCQ_TESTS_STIU_SECTIONS_H_

// StIU section surgery and the bucket-directory oracle shared by the suites
// that load crafted or older-writer StIU sections (stiu_test, query_test,
// archive_test).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/stiu_index.h"

namespace utcq::test {

/// Region-list order a re-emitted StIU section is written in.
enum class ListOrder {
  kAsIndexed,     // the index's own (partition-major) order
  kIdAscending,   // the order writers used before lists went partition-major
  kIdDescending,  // an order no writer emits
};

/// Every list of a StIU section, read back from a loaded index through its
/// public accessors. Tests mutate the lists and Write() them back out in the
/// layout StiuIndex::Serialize emits, which is how crafted sections and
/// older writers' sections are built.
struct StiuSection {
  uint32_t cells_per_side = 0;
  int64_t time_partition_s = 1;
  std::vector<std::vector<core::StiuIndex::TemporalTuple>> temporal;
  std::vector<std::vector<uint32_t>> partitions;
  std::vector<std::vector<core::StiuIndex::RefTuple>> refs;
  std::vector<std::vector<core::StiuIndex::NrefTuple>> nrefs;

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
      s.refs.push_back(index.RefTuplesIn(re));
      s.nrefs.push_back(index.NrefTuplesIn(re));
    }
    return s;
  }

  /// The section bytes, every region list stable-sorted into `order` (each
  /// trajectory's tuples keep their relative order).
  std::vector<uint8_t> Write(ListOrder order = ListOrder::kAsIndexed) const {
    const auto ordered = [order](auto tuples) {
      std::stable_sort(tuples.begin(), tuples.end(),
                       [order](const auto& a, const auto& b) {
                         switch (order) {
                           case ListOrder::kIdAscending: return a.traj < b.traj;
                           case ListOrder::kIdDescending: return a.traj > b.traj;
                           case ListOrder::kAsIndexed: break;
                         }
                         return false;
                       });
      return tuples;
    };
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
    for (const auto& list : refs) {
      const auto tuples = ordered(list);
      out.PutVarint(tuples.size());
      for (const auto& rt : tuples) {
        out.PutVarint(rt.traj);
        out.PutVarint(rt.ref_idx);
        out.PutU32(rt.fv_id);
        out.PutVarint(rt.fv_no);
        out.PutVarint(rt.d_no);
        out.PutVarint(rt.d_pos);
        out.PutF32(rt.p_total);
        out.PutF32(rt.p_max);
        out.PutU8(rt.ref_passes ? 1 : 0);
      }
    }
    for (const auto& list : nrefs) {
      const auto tuples = ordered(list);
      out.PutVarint(tuples.size());
      for (const auto& nt : tuples) {
        out.PutVarint(nt.traj);
        out.PutVarint(nt.nref_idx);
        out.PutU32(nt.rv_id);
        out.PutVarint(nt.rv_no);
        out.PutVarint(nt.ma_pos);
      }
    }
    return out.Release();
  }
};

/// Bucket of every trajectory, read back through TrajectoriesAt alone: the
/// first partition listing it, else the sentinel num_partitions().
inline std::vector<size_t> FirstPartitions(const core::StiuIndex& index) {
  const size_t n = index.num_trajectories();
  std::vector<size_t> first(n, index.num_partitions());
  for (size_t p = index.num_partitions(); p-- > 0;) {
    const auto t = static_cast<traj::Timestamp>(p) * index.time_partition_s();
    for (const uint32_t j : index.TrajectoriesAt(t)) {
      if (j < n) first[j] = p;
    }
  }
  return first;
}

/// `slices(lo, hi)` (a directory lookup on `tuples`) equals a binary search
/// over the owners' buckets for every bucket window when there are few
/// partitions, else for every single bucket (the sentinel included), every
/// live window [p - max_span + 1, p] and every prefix and suffix.
template <typename Tuple, typename Slices>
void ExpectSlicesMatchOracle(const std::vector<Tuple>& tuples,
                             const std::vector<size_t>& first,
                             size_t partitions, size_t max_span,
                             const Slices& slices) {
  const auto bucket = [&](const Tuple& t) {
    return t.traj < first.size() ? first[t.traj] : partitions;
  };
  ASSERT_TRUE(std::is_sorted(tuples.begin(), tuples.end(),
                             [&](const Tuple& a, const Tuple& b) {
                               return bucket(a) < bucket(b);
                             }));
  // starts[b]: index of the first tuple whose bucket is >= b.
  std::vector<size_t> starts(partitions + 2);
  for (size_t b = 0; b < starts.size(); ++b) {
    starts[b] = static_cast<size_t>(
        std::partition_point(tuples.begin(), tuples.end(),
                             [&](const Tuple& t) { return bucket(t) < b; }) -
        tuples.begin());
  }
  const size_t end = partitions + 1;  // one past the sentinel
  const auto expect = [&](size_t lo, size_t hi) {
    const auto got = slices(lo, hi);
    const size_t want = hi > lo ? starts[hi] - starts[lo] : 0;
    ASSERT_EQ(got.size(), want) << "buckets [" << lo << ", " << hi << ")";
    if (want > 0) {
      ASSERT_EQ(static_cast<size_t>(got.data() - tuples.data()), starts[lo])
          << "buckets [" << lo << ", " << hi << ")";
    }
  };
  if (partitions <= 48) {
    for (size_t lo = 0; lo <= end; ++lo) {
      for (size_t hi = 0; hi <= end; ++hi) expect(lo, hi);
    }
    return;
  }
  for (size_t b = 0; b < end; ++b) {
    expect(b, b + 1);
    expect(b + 1 > max_span ? b + 1 - max_span : 0, b + 1);
    expect(0, b + 1);
    expect(b, end);
  }
}

/// Every region's ref and nref directory slices match the oracle.
inline void ExpectDirectoryMatchesOracle(const core::StiuIndex& index) {
  const auto first = FirstPartitions(index);
  const size_t partitions = index.num_partitions();
  for (network::RegionId re = 0; re < index.grid().num_regions(); ++re) {
    SCOPED_TRACE("region " + std::to_string(re));
    ExpectSlicesMatchOracle(
        index.RefTuplesIn(re), first, partitions, index.max_span(),
        [&](size_t lo, size_t hi) {
          return index.RefTuplesInBuckets(re, lo, hi);
        });
    ExpectSlicesMatchOracle(
        index.NrefTuplesIn(re), first, partitions, index.max_span(),
        [&](size_t lo, size_t hi) {
          return index.NrefTuplesInBuckets(re, lo, hi);
        });
  }
}

}  // namespace utcq::test

#endif  // UTCQ_TESTS_STIU_SECTIONS_H_
