#include "core/stiu_index.h"

#include <algorithm>
#include <cstdint>

#include "common/exp_golomb.h"
#include "common/varint.h"
#include "core/improved_ted.h"

namespace utcq::core {

namespace {

/// Trajectory `j`'s run inside an id-sorted bucket.
template <typename Tuple>
std::span<const Tuple> RunOf(std::span<const Tuple> bucket, uint32_t j) {
  const auto [first, last] =
      std::ranges::equal_range(bucket, j, {}, &Tuple::traj);
  return {first, last};
}

std::vector<const traj::UncertainTrajectory*> AddressesOf(
    const traj::UncertainCorpus& corpus) {
  std::vector<const traj::UncertainTrajectory*> out;
  out.reserve(corpus.size());
  for (const traj::UncertainTrajectory& tu : corpus) out.push_back(&tu);
  return out;
}

}  // namespace

StiuIndex::StiuIndex(const network::GridIndex& grid,
                     const traj::UncertainCorpus& corpus,
                     const CorpusView& cc, StiuParams params)
    : StiuIndex(grid, AddressesOf(corpus), cc, params) {}

StiuIndex::StiuIndex(
    const network::RoadNetwork& /*net*/, const network::GridIndex& grid,
    const traj::UncertainCorpus& corpus, const CorpusView& cc,
    const std::vector<std::vector<NrefFactorLayout>>& /*layouts*/,
    StiuParams params)
    : StiuIndex(grid, corpus, cc, params) {}

StiuIndex::StiuIndex(const network::GridIndex& grid,
                     std::span<const traj::UncertainTrajectory* const> trajs,
                     const CorpusView& cc, StiuParams params)
    : grid_(grid), params_(params) {
  params_.time_partition_s = std::max<int64_t>(params_.time_partition_s, 1);
  const size_t partitions =
      static_cast<size_t>((traj::kSecondsPerDay + params_.time_partition_s - 1) /
                          params_.time_partition_s);
  temporal_.resize(trajs.size());
  partition_trajs_.resize(partitions);
  region_refs_.resize(grid.num_regions());
  region_nrefs_.resize(grid.num_regions());

  // Per-trajectory scratch, reused: the regions the trajectory visits in
  // first-visit order (a visit is a slot), each region's slot, the last
  // instance that visited each slot, and one aggregate per (slot, ref).
  constexpr uint32_t kNone = UINT32_MAX;
  struct GroupAgg {
    float p_max = 0.0f;  // over non-references only
    bool ref_passes = false;
    bool present = false;
  };
  std::vector<network::RegionId> visited;
  std::vector<uint32_t> slot_of(grid.num_regions(), kNone);
  std::vector<uint32_t> last_visitor;
  std::vector<GroupAgg> agg;

  for (size_t j = 0; j < trajs.size(); ++j) {
    const traj::UncertainTrajectory& tu = *trajs[j];
    const TrajMeta& meta = cc.meta(j);

    // ---- temporal tuples: bit positions into the SIAR-coded T stream ----
    {
      // Skip the header (n varint + 17-bit t0) to find the first delta.
      common::BitReader r = cc.t_reader();
      r.Seek(meta.t_pos);
      common::GetVarint(r);
      r.GetBits(17);
      uint64_t pos = r.position();

      const auto deltas =
          SiarDeltas(tu.times, cc.params().default_interval_s);
      int64_t last_partition = -1;
      for (size_t i = 0; i < tu.times.size(); ++i) {
        const int64_t p = tu.times[i] / params_.time_partition_s;
        if (p != last_partition) {
          temporal_[j].push_back(
              {tu.times[i], static_cast<uint32_t>(i), pos});
          last_partition = p;
        }
        if (i < deltas.size()) {
          pos += common::ImprovedExpGolombLength(deltas[i]);
        }
      }
      const size_t first_p = traj::DayPartition(
          tu.times.front(), params_.time_partition_s, partitions);
      const size_t last_p = traj::DayPartition(
          tu.times.back(), params_.time_partition_s, partitions);
      for (size_t p = first_p; p <= last_p; ++p) {
        partition_trajs_[p].push_back(static_cast<uint32_t>(j));
      }
    }

    // ---- spatial tuples ----
    // One NrefTuple per (region, non-reference) visit; one RefTuple per
    // (region, reference group) that any member visits.
    const size_t num_refs = meta.refs.size();
    visited.clear();
    last_visitor.clear();
    agg.clear();
    for (uint32_t w = 0; w < tu.instances.size(); ++w) {
      const traj::TrajectoryInstance& inst = tu.instances[w];
      const auto [is_ref, idx] = meta.roles[w];
      const uint32_t ref_pos = is_ref ? idx : meta.nrefs[idx].ref_pos;
      for (const network::EdgeId e : inst.path) {
        for (const network::RegionId re : grid.RegionsOfEdge(e)) {
          if (slot_of[re] == kNone) {
            slot_of[re] = static_cast<uint32_t>(visited.size());
            visited.push_back(re);
            last_visitor.push_back(kNone);
            agg.resize(agg.size() + num_refs);
          }
          const uint32_t slot = slot_of[re];
          if (last_visitor[slot] == w) continue;
          last_visitor[slot] = w;
          GroupAgg& a = agg[slot * num_refs + ref_pos];
          a.present = true;
          if (is_ref) {
            a.ref_passes = true;
          } else {
            a.p_max = std::max(a.p_max, meta.nrefs[idx].p_quantized);
            region_nrefs_[re].push_back({static_cast<uint32_t>(j), idx});
          }
        }
      }
    }
    for (uint32_t slot = 0; slot < visited.size(); ++slot) {
      for (uint32_t r = 0; r < num_refs; ++r) {
        const GroupAgg& a = agg[slot * num_refs + r];
        if (a.present) {
          region_refs_[visited[slot]].push_back(
              {static_cast<uint32_t>(j), r, a.p_max, a.ref_passes});
        }
      }
      slot_of[visited[slot]] = kNone;
    }
  }
  OrderByPartition();
}

StiuIndex::StiuIndex(const network::GridIndex& grid, common::ByteReader& in,
                     bool legacy_shape)
    : grid_(grid) {
  params_.cells_per_side = static_cast<uint32_t>(in.GetVarint());
  params_.time_partition_s =
      std::max<int64_t>(in.GetSignedVarint(), 1);

  const uint64_t num_trajs = in.GetVarint();
  const uint64_t num_partitions = in.GetVarint();
  const uint64_t num_regions = in.GetVarint();
  // An index only makes sense against the grid it was built over. Every
  // list below costs at least one payload byte per element, so any count
  // exceeding the remaining bytes is a corrupt length that would OOM
  // resize(); reject instead of allocating.
  const auto bad_count = [&in](uint64_t n) { return n > in.remaining(); };
  if (num_regions != grid.num_regions() || bad_count(num_trajs) ||
      bad_count(num_partitions) || !in.ok()) {
    in.Skip(in.remaining() + 1);  // latch ok() = false
    return;
  }

  temporal_.resize(num_trajs);
  for (auto& tuples : temporal_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    tuples.resize(n);
    traj::Timestamp prev_start = 0;
    for (auto& t : tuples) {
      t.t_start = prev_start + static_cast<traj::Timestamp>(in.GetVarint());
      prev_start = t.t_start;
      t.t_no = static_cast<uint32_t>(in.GetVarint());
      t.t_pos = in.GetVarint();
    }
  }
  partition_trajs_.resize(num_partitions);
  for (auto& trajs : partition_trajs_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    trajs.resize(n);
    for (auto& j : trajs) j = static_cast<uint32_t>(in.GetVarint());
  }
  region_refs_.resize(num_regions);
  for (auto& tuples : region_refs_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    tuples.resize(n);
    for (auto& rt : tuples) {
      rt.traj = static_cast<uint32_t>(in.GetVarint());
      rt.ref_idx = static_cast<uint32_t>(in.GetVarint());
      if (legacy_shape) {
        in.GetU32();     // fv_id
        in.GetVarint();  // fv_no
        in.GetVarint();  // d_no
        in.GetVarint();  // d_pos
        in.GetF32();     // p_total
      }
      rt.p_max = in.GetF32();
      rt.ref_passes = in.GetU8() != 0;
    }
  }
  region_nrefs_.resize(num_regions);
  for (auto& tuples : region_nrefs_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    tuples.resize(n);
    for (auto& nt : tuples) {
      nt.traj = static_cast<uint32_t>(in.GetVarint());
      nt.nref_idx = static_cast<uint32_t>(in.GetVarint());
      if (legacy_shape) {
        in.GetU32();     // rv_id
        in.GetVarint();  // rv_no
        in.GetVarint();  // ma_pos
      }
    }
  }
  if (!in.ok()) {
    temporal_.clear();
    partition_trajs_.clear();
    region_refs_.clear();
    region_nrefs_.clear();
  }
  OrderByPartition();
}

void StiuIndex::OrderByPartition() {
  const size_t partitions = partition_trajs_.size();
  first_partition_.assign(temporal_.size(), static_cast<uint32_t>(partitions));
  std::vector<uint32_t> last_partition(temporal_.size(), 0);
  for (size_t p = 0; p < partitions; ++p) {
    for (const uint32_t j : partition_trajs_[p]) {
      if (j >= first_partition_.size()) continue;  // names no trajectory
      first_partition_[j] =
          std::min(first_partition_[j], static_cast<uint32_t>(p));
      last_partition[j] = static_cast<uint32_t>(p);
    }
  }
  max_span_ = 0;
  for (size_t j = 0; j < first_partition_.size(); ++j) {
    if (first_partition_[j] < partitions) {
      max_span_ =
          std::max(max_span_, last_partition[j] - first_partition_[j] + 1);
    }
  }

  // Built lists come out in trajectory-id order, and sections from older
  // writers were stored that way; stable sorting keeps every trajectory's
  // tuples in their stored relative order.
  const auto by_key = [this](const auto& a, const auto& b) {
    return std::pair(BucketOf(a.traj), a.traj) <
           std::pair(BucketOf(b.traj), b.traj);
  };
  const auto order = [&](auto& tuples) {
    if (!std::is_sorted(tuples.begin(), tuples.end(), by_key)) {
      std::stable_sort(tuples.begin(), tuples.end(), by_key);
    }
  };
  for (auto& tuples : region_refs_) order(tuples);
  for (auto& tuples : region_nrefs_) order(tuples);
  ref_dir_ = BuildDirectory(region_refs_);
  nref_dir_ = BuildDirectory(region_nrefs_);
}

size_t StiuIndex::BucketOf(uint32_t j) const {
  return j < first_partition_.size() ? first_partition_[j]
                                     : partition_trajs_.size();
}

template <typename Tuple>
StiuIndex::BucketDirectory StiuIndex::BuildDirectory(
    const std::vector<std::vector<Tuple>>& lists) const {
  // A run starts wherever the owner's bucket changes along the list.
  const auto for_each_run = [this](const std::vector<Tuple>& tuples,
                                   const auto& emit) {
    size_t prev = SIZE_MAX;
    for (size_t k = 0; k < tuples.size(); ++k) {
      const size_t b = BucketOf(tuples[k].traj);
      if (b != prev) emit(b, k);
      prev = b;
    }
  };
  BucketDirectory dir;
  dir.offsets.assign(lists.size() + 1, 0);
  uint32_t total = 0;
  for (size_t re = 0; re < lists.size(); ++re) {
    for_each_run(lists[re], [&total](size_t, size_t) { ++total; });
    dir.offsets[re + 1] = total;
  }
  dir.runs.reserve(total);
  for (const auto& tuples : lists) {
    for_each_run(tuples, [&dir](size_t b, size_t k) {
      dir.runs.push_back({static_cast<uint32_t>(b), static_cast<uint32_t>(k)});
    });
  }
  return dir;
}

template <typename Tuple>
std::span<const Tuple> StiuIndex::InBuckets(const std::vector<Tuple>& tuples,
                                            const BucketDirectory& dir,
                                            network::RegionId re, size_t lo,
                                            size_t hi) {
  if (hi <= lo) return {};
  const std::span<const BucketRun> runs(dir.runs.data() + dir.offsets[re],
                                        dir.runs.data() + dir.offsets[re + 1]);
  // Index of the first tuple whose bucket is >= b.
  const auto start = [&](size_t b) -> size_t {
    const auto it = std::ranges::lower_bound(runs, b, {}, &BucketRun::bucket);
    return it == runs.end() ? tuples.size() : it->first;
  };
  const size_t first = start(lo);
  return {tuples.data() + first, start(hi) - first};
}

std::pair<size_t, size_t> StiuIndex::LiveBuckets(traj::Timestamp t) const {
  if (partition_trajs_.empty()) return {0, 0};
  const size_t p = traj::DayPartition(t, params_.time_partition_s,
                                      partition_trajs_.size());
  return {p + 1 > max_span_ ? p + 1 - max_span_ : 0, p + 1};
}

std::span<const StiuIndex::RefTuple> StiuIndex::RefTuplesInBuckets(
    network::RegionId re, size_t lo, size_t hi) const {
  return InBuckets(region_refs_[re], ref_dir_, re, lo, hi);
}

std::span<const StiuIndex::NrefTuple> StiuIndex::NrefTuplesInBuckets(
    network::RegionId re, size_t lo, size_t hi) const {
  return InBuckets(region_nrefs_[re], nref_dir_, re, lo, hi);
}

std::span<const StiuIndex::RefTuple> StiuIndex::RefTuplesLiveAt(
    network::RegionId re, traj::Timestamp t) const {
  const auto [lo, hi] = LiveBuckets(t);
  return RefTuplesInBuckets(re, lo, hi);
}

std::span<const StiuIndex::NrefTuple> StiuIndex::NrefTuplesLiveAt(
    network::RegionId re, traj::Timestamp t) const {
  const auto [lo, hi] = LiveBuckets(t);
  return NrefTuplesInBuckets(re, lo, hi);
}

std::span<const StiuIndex::RefTuple> StiuIndex::RefTuplesOf(
    network::RegionId re, uint32_t j) const {
  const size_t b = BucketOf(j);
  return RunOf(RefTuplesInBuckets(re, b, b + 1), j);
}

std::span<const StiuIndex::NrefTuple> StiuIndex::NrefTuplesOf(
    network::RegionId re, uint32_t j) const {
  const size_t b = BucketOf(j);
  return RunOf(NrefTuplesInBuckets(re, b, b + 1), j);
}

template <typename Out>
void StiuIndex::SerializeTo(Out& out) const {
  out.PutVarint(params_.cells_per_side);
  out.PutSignedVarint(params_.time_partition_s);

  out.PutVarint(temporal_.size());
  out.PutVarint(partition_trajs_.size());
  out.PutVarint(region_refs_.size());

  for (const auto& tuples : temporal_) {
    out.PutVarint(tuples.size());
    // t_start is monotone within a trajectory: delta-code it.
    traj::Timestamp prev_start = 0;
    for (const auto& t : tuples) {
      out.PutVarint(static_cast<uint64_t>(t.t_start - prev_start));
      prev_start = t.t_start;
      out.PutVarint(t.t_no);
      out.PutVarint(t.t_pos);
    }
  }
  for (const auto& trajs : partition_trajs_) {
    out.PutVarint(trajs.size());
    for (const uint32_t j : trajs) out.PutVarint(j);
  }
  for (const auto& tuples : region_refs_) {
    out.PutVarint(tuples.size());
    for (const auto& rt : tuples) {
      out.PutVarint(rt.traj);
      out.PutVarint(rt.ref_idx);
      out.PutF32(rt.p_max);
      out.PutU8(rt.ref_passes ? 1 : 0);
    }
  }
  for (const auto& tuples : region_nrefs_) {
    out.PutVarint(tuples.size());
    for (const auto& nt : tuples) {
      out.PutVarint(nt.traj);
      out.PutVarint(nt.nref_idx);
    }
  }
}

void StiuIndex::Serialize(common::ByteWriter& out) const { SerializeTo(out); }

void StiuIndex::Serialize(common::ByteCounter& out) const { SerializeTo(out); }

const StiuIndex::TemporalTuple& StiuIndex::TemporalTupleFor(
    size_t j, traj::Timestamp t) const {
  const auto& tuples = temporal_[j];
  // Latest tuple with t_start <= t.
  auto it = std::upper_bound(
      tuples.begin(), tuples.end(), t,
      [](traj::Timestamp v, const TemporalTuple& tup) { return v < tup.t_start; });
  if (it != tuples.begin()) --it;
  return *it;
}

const std::vector<uint32_t>& StiuIndex::TrajectoriesAt(
    traj::Timestamp t) const {
  static const std::vector<uint32_t> kEmpty;
  if (partition_trajs_.empty()) return kEmpty;
  return partition_trajs_[traj::DayPartition(t, params_.time_partition_s,
                                             partition_trajs_.size())];
}

size_t StiuIndex::temporal_size_bytes() const {
  size_t bytes = 0;
  for (const auto& v : temporal_) bytes += v.size() * sizeof(TemporalTuple);
  for (const auto& v : partition_trajs_) bytes += v.size() * sizeof(uint32_t);
  bytes += first_partition_.size() * sizeof(uint32_t);
  return bytes;
}

size_t StiuIndex::spatial_size_bytes() const {
  size_t bytes = 0;
  for (const auto& v : region_refs_) bytes += v.size() * sizeof(RefTuple);
  for (const auto& v : region_nrefs_) bytes += v.size() * sizeof(NrefTuple);
  return bytes;
}

size_t StiuIndex::directory_size_bytes() const {
  size_t bytes = 0;
  for (const BucketDirectory* dir : {&ref_dir_, &nref_dir_}) {
    bytes += dir->runs.size() * sizeof(BucketRun) +
             dir->offsets.size() * sizeof(uint32_t);
  }
  return bytes;
}

size_t StiuIndex::SizeBytes() const {
  return sizeof(*this) + temporal_size_bytes() + spatial_size_bytes() +
         directory_size_bytes();
}

}  // namespace utcq::core
