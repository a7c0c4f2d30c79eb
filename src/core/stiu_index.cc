#include "core/stiu_index.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "common/exp_golomb.h"
#include "common/varint.h"
#include "core/improved_ted.h"

namespace utcq::core {

namespace {

/// Level l's partitions are kMaxCopies^l = 1 << (kLevelShift * l) wide.
constexpr uint32_t kLevelShift = std::countr_zero(StiuIndex::kMaxCopies);
static_assert(StiuIndex::kMaxCopies == 1u << kLevelShift);

/// Whether `T` (a possibly const-ref tuple type) is a ref tuple.
template <typename T>
constexpr bool kIsRef =
    std::is_same_v<std::remove_cvref_t<T>, StiuIndex::RefTuple>;

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
  std::vector<std::vector<RefTuple>> region_refs(grid.num_regions());
  std::vector<std::vector<NrefTuple>> region_nrefs(grid.num_regions());

  // ---- temporal tuples: bit positions into the SIAR-coded T stream ----
  for (size_t j = 0; j < trajs.size(); ++j) {
    const traj::UncertainTrajectory& tu = *trajs[j];
    // Skip the header (n varint + 17-bit t0) to find the first delta.
    common::BitReader r = cc.t_reader();
    r.Seek(cc.meta(j).t_pos);
    common::GetVarint(r);
    r.GetBits(17);
    uint64_t pos = r.position();

    const auto deltas = SiarDeltas(tu.times, cc.params().default_interval_s);
    int64_t last_partition = -1;
    for (size_t i = 0; i < tu.times.size(); ++i) {
      const int64_t p = tu.times[i] / params_.time_partition_s;
      if (p != last_partition) {
        temporal_[j].push_back({tu.times[i], static_cast<uint32_t>(i), pos});
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
  // (region, reference group) that any member visits. Trajectories are
  // visited by (first partition, id), each at the first partition listing
  // it, so every region list comes out in stored order.
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
  std::vector<bool> done(trajs.size(), false);
  for (const std::vector<uint32_t>& listed : partition_trajs_) {
    for (const uint32_t j : listed) {
      if (done[j]) continue;
      done[j] = true;
      const traj::UncertainTrajectory& tu = *trajs[j];
      const TrajMeta& meta = cc.meta(j);
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
              region_nrefs[re].push_back({j, idx});
            }
          }
        }
      }
      for (uint32_t slot = 0; slot < visited.size(); ++slot) {
        for (uint32_t r = 0; r < num_refs; ++r) {
          const GroupAgg& a = agg[slot * num_refs + r];
          if (a.present) {
            region_refs[visited[slot]].push_back({j, r, a.p_max, a.ref_passes});
          }
        }
        slot_of[visited[slot]] = kNone;
      }
    }
  }
  DeriveLayout(std::move(region_refs), std::move(region_nrefs));
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
  std::vector<std::vector<RefTuple>> region_refs(num_regions);
  for (auto& tuples : region_refs) {
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
  std::vector<std::vector<NrefTuple>> region_nrefs(num_regions);
  for (auto& tuples : region_nrefs) {
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
    region_refs.clear();
    region_nrefs.clear();
  }
  DeriveLayout(std::move(region_refs), std::move(region_nrefs));
}

void StiuIndex::DeriveLayout(std::vector<std::vector<RefTuple>> region_refs,
                             std::vector<std::vector<NrefTuple>> region_nrefs) {
  const auto partitions = static_cast<uint32_t>(partition_trajs_.size());
  const size_t n = temporal_.size();
  first_partition_.assign(n, partitions);
  std::vector<uint32_t> last_partition(n, 0);
  for (uint32_t p = 0; p < partitions; ++p) {
    for (const uint32_t j : partition_trajs_[p]) {
      if (j >= n) continue;  // names no trajectory
      first_partition_[j] = std::min(first_partition_[j], p);
      last_partition[j] = p;
    }
  }

  // Level of each listed trajectory: the finest where its partitions,
  // first to last, fall into at most kMaxCopies of the level's.
  std::vector<uint8_t> level(n, 0);
  size_t levels = 0;
  for (size_t j = 0; j < n; ++j) {
    if (first_partition_[j] == partitions) continue;
    uint32_t l = 0;
    while ((last_partition[j] >> (kLevelShift * l)) -
               (first_partition_[j] >> (kLevelShift * l)) >=
           kMaxCopies) {
      ++l;
    }
    level[j] = static_cast<uint8_t>(l);
    levels = std::max<size_t>(levels, l + 1);
  }
  level_first_.assign(levels + 1, 0);
  for (size_t l = 0; l < levels; ++l) {
    level_first_[l + 1] =
        level_first_[l] + ((partitions - 1) >> (kLevelShift * l)) + 1;
  }
  const uint32_t unlisted = unlisted_slot();
  const size_t slots = size_t{unlisted} + 1;
  home_slot_.assign(n, unlisted);
  std::vector<uint8_t> copies(n, 1);
  for (size_t j = 0; j < n; ++j) {
    if (first_partition_[j] == partitions) continue;
    const uint32_t shift = kLevelShift * level[j];
    home_slot_[j] = level_first_[level[j]] + (first_partition_[j] >> shift);
    copies[j] = static_cast<uint8_t>((last_partition[j] >> shift) -
                                     (first_partition_[j] >> shift) + 1);
  }

  // Copies land in cells in list order, so the lists must be in stored
  // order first. Built lists are; sections from older writers, or crafted
  // ones, may not be, and stable sorting keeps every trajectory's tuples in
  // their stored relative order.
  const auto by_key = [this](const auto& a, const auto& b) {
    return KeyOf(a.traj) < KeyOf(b.traj);
  };
  const auto order = [&](auto& tuples) {
    if (!std::is_sorted(tuples.begin(), tuples.end(), by_key)) {
      std::stable_sort(tuples.begin(), tuples.end(), by_key);
    }
  };
  for (auto& tuples : region_refs) order(tuples);
  for (auto& tuples : region_nrefs) order(tuples);

  // Each tuple goes to every slot its trajectory spans. Regions are walked
  // in ascending order, so each slot's cells come out by region. The
  // counting pass sizes every array exactly; the filling pass writes them.
  const auto for_each_copy = [&](const auto& visit) {
    for (network::RegionId re = 0; re < region_refs.size(); ++re) {
      const auto copy = [&](const auto& t) {
        const uint32_t home = HomeSlot(t.traj);
        const uint32_t end = home + (t.traj < n ? copies[t.traj] : 1u);
        for (uint32_t s = home; s < end; ++s) visit(s, re, t);
      };
      for (const RefTuple& rt : region_refs[re]) copy(rt);
      for (const NrefTuple& nt : region_nrefs[re]) copy(nt);
    }
  };
  std::vector<uint32_t> ref_next(slots + 1, 0);
  std::vector<uint32_t> nref_next(slots + 1, 0);
  slot_cells_.assign(slots + 1, 0);
  std::vector<network::RegionId> open(slots, network::kInvalidRegion);
  for_each_copy([&](uint32_t s, network::RegionId re, const auto& t) {
    ++(kIsRef<decltype(t)> ? ref_next : nref_next)[s + 1];
    if (open[s] != re) {
      open[s] = re;
      ++slot_cells_[s + 1];
    }
  });
  for (size_t s = 0; s < slots; ++s) {
    ref_next[s + 1] += ref_next[s];
    nref_next[s + 1] += nref_next[s];
    slot_cells_[s + 1] += slot_cells_[s];
  }
  refs_.resize(ref_next[slots]);
  nrefs_.resize(nref_next[slots]);
  cells_.resize(slot_cells_[slots] + 1);
  cells_.back() = {network::kInvalidRegion, ref_next[slots], nref_next[slots]};
  std::vector<uint32_t> cell_next(slot_cells_.begin(), slot_cells_.end() - 1);
  open.assign(slots, network::kInvalidRegion);
  for_each_copy([&](uint32_t s, network::RegionId re, const auto& t) {
    if (open[s] != re) {
      open[s] = re;
      cells_[cell_next[s]++] = {re, ref_next[s], nref_next[s]};
    }
    if constexpr (kIsRef<decltype(t)>) {
      refs_[ref_next[s]++] = t;
    } else {
      nrefs_[nref_next[s]++] = t;
    }
  });
}

std::pair<uint32_t, uint32_t> StiuIndex::KeyOf(uint32_t j) const {
  return {j < first_partition_.size()
              ? first_partition_[j]
              : static_cast<uint32_t>(partition_trajs_.size()),
          j};
}

uint32_t StiuIndex::HomeSlot(uint32_t j) const {
  return j < home_slot_.size() ? home_slot_[j] : unlisted_slot();
}

size_t StiuIndex::CellOf(size_t slot, network::RegionId re) const {
  const auto first = cells_.begin() + slot_cells_[slot];
  const auto last = cells_.begin() + slot_cells_[slot + 1];
  const auto it = std::ranges::lower_bound(first, last, re, {}, &Cell::region);
  return it != last && it->region == re
             ? static_cast<size_t>(it - cells_.begin())
             : SIZE_MAX;
}

template <typename Tuple>
std::span<const Tuple> StiuIndex::Slice(const std::vector<Tuple>& tuples,
                                        uint32_t Cell::*first, size_t lo,
                                        size_t hi) const {
  return {tuples.data() + cells_[lo].*first,
          tuples.data() + cells_[hi].*first};
}

StiuIndex::TupleRun StiuIndex::TuplesAt(size_t level, traj::Timestamp t,
                                        network::RegionId first,
                                        network::RegionId last) const {
  if (level >= num_levels()) return {};
  const size_t p = traj::DayPartition(t, params_.time_partition_s,
                                      partition_trajs_.size());
  const size_t slot = level_first_[level] + (p >> (kLevelShift * level));
  const auto begin = cells_.begin() + slot_cells_[slot];
  const auto end = cells_.begin() + slot_cells_[slot + 1];
  const auto lo = std::ranges::lower_bound(begin, end, first, {}, &Cell::region);
  const auto hi = std::ranges::upper_bound(lo, end, last, {}, &Cell::region);
  const auto c_lo = static_cast<size_t>(lo - cells_.begin());
  const auto c_hi = static_cast<size_t>(hi - cells_.begin());
  return {Slice(refs_, &Cell::ref_first, c_lo, c_hi),
          Slice(nrefs_, &Cell::nref_first, c_lo, c_hi)};
}

StiuIndex::TupleRun StiuIndex::TuplesOf(network::RegionId re,
                                        uint32_t j) const {
  const size_t c = CellOf(HomeSlot(j), re);
  if (c == SIZE_MAX) return {};
  const auto run = [&](const auto& tuples, uint32_t Cell::*first) {
    const auto [lo, hi] = std::ranges::equal_range(
        Slice(tuples, first, c, c + 1), KeyOf(j), {},
        [this](const auto& t) { return KeyOf(t.traj); });
    return std::span(lo, hi);
  };
  return {run(refs_, &Cell::ref_first), run(nrefs_, &Cell::nref_first)};
}

template <typename Tuple>
void StiuIndex::StoredIn(const std::vector<Tuple>& tuples,
                         uint32_t Cell::*first, std::span<const CellAt> cells,
                         std::vector<Tuple>& out) const {
  out.clear();
  for (const CellAt& at : cells) {
    for (const Tuple& t : Slice(tuples, first, at.cell, at.cell + 1)) {
      if (HomeSlot(t.traj) == at.slot) out.push_back(t);
    }
  }
  // Each level's cells are in stored order; levels interleave.
  const auto by_key = [this](const Tuple& a, const Tuple& b) {
    return KeyOf(a.traj) < KeyOf(b.traj);
  };
  if (!std::is_sorted(out.begin(), out.end(), by_key)) {
    std::stable_sort(out.begin(), out.end(), by_key);
  }
}

std::vector<StiuIndex::CellAt> StiuIndex::CellsOfRegion(
    network::RegionId re) const {
  std::vector<CellAt> cells;
  for (size_t s = 0; s + 1 < slot_cells_.size(); ++s) {
    const size_t c = CellOf(s, re);
    if (c != SIZE_MAX) {
      cells.push_back({static_cast<uint32_t>(c), static_cast<uint32_t>(s)});
    }
  }
  return cells;
}

std::vector<StiuIndex::RefTuple> StiuIndex::RefTuplesIn(
    network::RegionId re) const {
  std::vector<RefTuple> out;
  StoredIn(refs_, &Cell::ref_first, CellsOfRegion(re), out);
  return out;
}

std::vector<StiuIndex::NrefTuple> StiuIndex::NrefTuplesIn(
    network::RegionId re) const {
  std::vector<NrefTuple> out;
  StoredIn(nrefs_, &Cell::nref_first, CellsOfRegion(re), out);
  return out;
}

template <typename Out>
void StiuIndex::SerializeTo(Out& out) const {
  out.PutVarint(params_.cells_per_side);
  out.PutSignedVarint(params_.time_partition_s);

  out.PutVarint(temporal_.size());
  out.PutVarint(partition_trajs_.size());
  out.PutVarint(grid_.num_regions());

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
  // Every region's cells in slot order, grouped by region (a counting
  // sort), so each region list is gathered from its own cells alone.
  const size_t regions = grid_.num_regions();
  std::vector<uint32_t> region_first(regions + 1, 0);
  for (size_t c = 0; c + 1 < cells_.size(); ++c) {
    ++region_first[cells_[c].region + 1];
  }
  for (size_t re = 0; re < regions; ++re) {
    region_first[re + 1] += region_first[re];
  }
  std::vector<CellAt> by_region(cells_.size() - 1);
  std::vector<uint32_t> next(region_first.begin(), region_first.end() - 1);
  for (uint32_t s = 0; s + 1 < slot_cells_.size(); ++s) {
    for (uint32_t c = slot_cells_[s]; c < slot_cells_[s + 1]; ++c) {
      by_region[next[cells_[c].region]++] = {c, s};
    }
  }
  const auto cells_of = [&](size_t re) {
    return std::span<const CellAt>(by_region.data() + region_first[re],
                                   by_region.data() + region_first[re + 1]);
  };
  std::vector<RefTuple> refs;
  for (size_t re = 0; re < regions; ++re) {
    StoredIn(refs_, &Cell::ref_first, cells_of(re), refs);
    out.PutVarint(refs.size());
    for (const auto& rt : refs) {
      out.PutVarint(rt.traj);
      out.PutVarint(rt.ref_idx);
      out.PutF32(rt.p_max);
      out.PutU8(rt.ref_passes ? 1 : 0);
    }
  }
  std::vector<NrefTuple> nrefs;
  for (size_t re = 0; re < regions; ++re) {
    StoredIn(nrefs_, &Cell::nref_first, cells_of(re), nrefs);
    out.PutVarint(nrefs.size());
    for (const auto& nt : nrefs) {
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
  return bytes;
}

size_t StiuIndex::spatial_size_bytes() const {
  return refs_.size() * sizeof(RefTuple) + nrefs_.size() * sizeof(NrefTuple) +
         cells_.size() * sizeof(Cell) +
         (first_partition_.size() + home_slot_.size() + level_first_.size() +
          slot_cells_.size()) *
             sizeof(uint32_t);
}

size_t StiuIndex::SizeBytes() const {
  return sizeof(*this) + temporal_size_bytes() + spatial_size_bytes();
}

}  // namespace utcq::core
