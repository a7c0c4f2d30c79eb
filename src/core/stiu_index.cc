#include "core/stiu_index.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/exp_golomb.h"
#include "common/varint.h"
#include "core/decoder.h"
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

using TimeWindow = StiuIndex::TimeWindow;

/// The window of each edge of `inst`'s path. Bracket b (locations b and
/// b+1, or location 0 alone) places the instance on edges path_index[b] - 1
/// .. path_index[b+1] between t_b and t_(b+1): the -1 because
/// PositionAtPathOffset puts a point at a shared vertex on the earlier edge.
/// An edge's window is the hull of the brackets whose span holds it, and an
/// edge no span holds gets Empty(). Times outside the day or running
/// backwards (`in_day` false), a location count other than the time count,
/// and a path_index that decreases or leaves the path make every window
/// unbounded.
void EdgeWindows(const std::vector<traj::Timestamp>& times, bool in_day,
                 const traj::TrajectoryInstance& inst,
                 std::vector<TimeWindow>* out) {
  const auto& locs = inst.locations;
  bool ordered = in_day && locs.size() == times.size();
  for (size_t i = 0; ordered && i < locs.size(); ++i) {
    ordered = locs[i].path_index < inst.path.size() &&
              (i == 0 || locs[i - 1].path_index <= locs[i].path_index);
  }
  if (!ordered) {
    out->assign(inst.path.size(), TimeWindow{});
    return;
  }
  out->assign(inst.path.size(), TimeWindow::Empty());
  const size_t n = times.size();
  for (size_t b = 0; b < std::max<size_t>(n, 2) - 1; ++b) {
    const size_t e = std::min(b + 1, n - 1);
    const TimeWindow window = TimeWindow::Of(times[b], times[e]);
    const uint32_t first = locs[b].path_index - (locs[b].path_index > 0);
    for (uint32_t k = first; k <= locs[e].path_index; ++k) {
      (*out)[k] = (*out)[k].Hull(window);
    }
  }
}

}  // namespace

StiuParams StiuIndex::RecordedParams(const network::GridIndex& grid,
                                     StiuParams params) {
  params.cells_per_side = grid.cells_per_side();
  params.time_partition_s = std::max<int64_t>(params.time_partition_s, 1);
  return params;
}

StiuIndex::StiuIndex(const network::GridIndex& grid, StiuParams params)
    : grid_(grid),
      params_(RecordedParams(grid, params)),
      region_refs_(grid.num_regions()),
      region_nrefs_(grid.num_regions()) {
  partition_trajs_.resize(static_cast<size_t>(
      (traj::kSecondsPerDay - 1) / params_.time_partition_s + 1));
}

StiuIndex::StiuIndex(const network::GridIndex& grid,
                     const traj::UncertainCorpus& corpus,
                     const CorpusView& cc, StiuParams params)
    : StiuIndex(grid, params) {
  for (const traj::UncertainTrajectory& tu : corpus) Append(tu, cc);
  Finish();
}

StiuIndex::StiuIndex(
    const network::RoadNetwork& /*net*/, const network::GridIndex& grid,
    const traj::UncertainCorpus& corpus, const CorpusView& cc,
    const std::vector<std::vector<NrefFactorLayout>>& /*layouts*/,
    StiuParams params)
    : StiuIndex(grid, corpus, cc, params) {}

void StiuIndex::Append(const traj::UncertainTrajectory& tu,
                       const CorpusView& cc) {
  const auto j = static_cast<uint32_t>(temporal_.size());
  const TrajMeta& meta = cc.meta(j);

  // ---- temporal tuples: bit positions into the SIAR-coded T stream ----
  // Skip the header (n varint + 17-bit t0) to find the first delta.
  common::BitReader r = cc.t_reader();
  r.Seek(meta.t_pos);
  common::GetVarint(r);
  r.GetBits(17);
  uint64_t pos = r.position();
  std::vector<TemporalTuple>& temporal = temporal_.emplace_back();
  const auto deltas = SiarDeltas(tu.times, cc.params().default_interval_s);
  int64_t last_partition = -1;
  for (size_t i = 0; i < tu.times.size(); ++i) {
    const int64_t p = tu.times[i] / params_.time_partition_s;
    if (p != last_partition) {
      temporal.push_back({tu.times[i], static_cast<uint32_t>(i), pos});
      last_partition = p;
    }
    if (i < deltas.size()) pos += common::ImprovedExpGolombLength(deltas[i]);
  }
  // Every trajectory is listed in at least its first partition, so each
  // has a home slot; times that run backwards list that partition alone.
  const size_t partitions = partition_trajs_.size();
  const size_t first_p = traj::DayPartition(
      tu.times.front(), params_.time_partition_s, partitions);
  const size_t last_p = std::max(
      first_p,
      traj::DayPartition(tu.times.back(), params_.time_partition_s, partitions));
  for (size_t p = first_p; p <= last_p; ++p) partition_trajs_[p].push_back(j);

  // ---- spatial tuples ----
  // One NrefTuple per (region, non-reference) visit; one RefTuple per
  // (region, reference group) that any member visits. Each tuple's window
  // is the hull of its instance's edge windows in the region.
  constexpr uint32_t kNone = UINT32_MAX;
  Scratch& sc = scratch_;
  sc.slot_of.resize(grid_.num_regions(), kNone);
  sc.visited.clear();
  sc.last_visitor.clear();
  sc.agg.clear();
  const size_t num_refs = meta.refs.size();
  const bool in_day = std::ranges::is_sorted(tu.times) &&
                      tu.times.front() >= 0 &&
                      tu.times.back() < traj::kSecondsPerDay;
  for (uint32_t w = 0; w < tu.instances.size(); ++w) {
    const auto [is_ref, idx] = meta.roles[w];
    const uint32_t ref_pos = is_ref ? idx : meta.nrefs[idx].ref_pos;
    const traj::TrajectoryInstance& inst = tu.instances[w];
    EdgeWindows(tu.times, in_day, inst, &sc.edge_window);
    for (size_t k = 0; k < inst.path.size(); ++k) {
      for (const network::RegionId re : grid_.RegionsOfEdge(inst.path[k])) {
        if (sc.slot_of[re] == kNone) {
          sc.slot_of[re] = static_cast<uint32_t>(sc.visited.size());
          sc.visited.push_back(re);
          sc.last_visitor.push_back(kNone);
          sc.agg.resize(sc.agg.size() + num_refs);
        }
        const uint32_t slot = sc.slot_of[re];
        Scratch::GroupAgg& a = sc.agg[slot * num_refs + ref_pos];
        if (sc.last_visitor[slot] != w) {
          sc.last_visitor[slot] = w;
          a.present = true;
          if (is_ref) {
            a.ref_passes = true;
          } else {
            a.p_max = std::max(a.p_max, meta.nrefs[idx].p_quantized);
            region_nrefs_[re].push_back({j, idx, TimeWindow::Empty()});
          }
        }
        // w is the slot's last visitor, so a non-reference's tuple is the
        // region list's last.
        TimeWindow& window =
            is_ref ? a.window : region_nrefs_[re].back().window;
        window = window.Hull(sc.edge_window[k]);
      }
    }
  }
  for (uint32_t slot = 0; slot < sc.visited.size(); ++slot) {
    for (uint32_t ref = 0; ref < num_refs; ++ref) {
      const Scratch::GroupAgg& a = sc.agg[slot * num_refs + ref];
      if (a.present) {
        region_refs_[sc.visited[slot]].push_back(
            {j, ref | (a.ref_passes ? RefTuple::kRefPasses : 0), a.p_max,
             a.window});
      }
    }
    sc.slot_of[sc.visited[slot]] = kNone;
  }
}

void StiuIndex::Finish() {
  const auto partitions = static_cast<uint32_t>(partition_trajs_.size());
  const size_t n = temporal_.size();
  std::vector<uint32_t> first_partition(n, partitions);
  std::vector<uint32_t> last_partition(n, 0);
  for (uint32_t p = 0; p < partitions; ++p) {
    for (const uint32_t j : partition_trajs_[p]) {
      first_partition[j] = std::min(first_partition[j], p);
      last_partition[j] = p;
    }
  }

  // Level of each trajectory: the finest where its partitions, first to
  // last, fall into at most kMaxCopies of the level's.
  std::vector<uint8_t> level(n, 0);
  size_t levels = 0;
  for (size_t j = 0; j < n; ++j) {
    uint32_t l = 0;
    while ((last_partition[j] >> (kLevelShift * l)) -
               (first_partition[j] >> (kLevelShift * l)) >=
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
  const size_t slots = level_first_.back();
  home_slot_.resize(n);
  std::vector<uint8_t> copies(n);
  for (size_t j = 0; j < n; ++j) {
    const uint32_t shift = kLevelShift * level[j];
    home_slot_[j] = level_first_[level[j]] + (first_partition[j] >> shift);
    copies[j] = static_cast<uint8_t>((last_partition[j] >> shift) -
                                     (first_partition[j] >> shift) + 1);
  }

  // Each tuple goes to its trajectory's home slot, and to each further slot
  // it spans whose time span its window meets (a level's last slot runs on
  // past the day, as DayPartition clamps). Regions are walked in ascending
  // order and each region list is in id order, so each slot's cells come
  // out by region, then id. The counting pass sizes every array exactly;
  // the filling pass writes them.
  const int64_t partition_s = params_.time_partition_s;
  const auto keeps = [&](uint32_t s, uint32_t j, TimeWindow window) {
    if (s == home_slot_[j]) return true;
    const uint32_t shift = kLevelShift * level[j];
    const int64_t q = s - level_first_[level[j]];
    const bool last = s + 1 == level_first_[level[j] + 1];
    const int64_t to =
        last ? INT64_MAX : ((q + 1) << shift) * partition_s - 1;
    return window.Meets((q << shift) * partition_s, to);
  };
  const auto for_each_copy = [&](const auto& visit) {
    for (network::RegionId re = 0; re < region_refs_.size(); ++re) {
      const auto copy = [&](const auto& t) {
        const uint32_t home = home_slot_[t.traj];
        for (uint32_t s = home; s < home + copies[t.traj]; ++s) {
          if (keeps(s, t.traj, t.window)) visit(s, re, t);
        }
      };
      for (const RefTuple& rt : region_refs_[re]) copy(rt);
      for (const NrefTuple& nt : region_nrefs_[re]) copy(nt);
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
  // Move-assign empty vectors: clear() would keep the capacity.
  region_refs_ = {};
  region_nrefs_ = {};
  scratch_ = {};
}

bool StiuIndex::operator==(const StiuIndex& other) const {
  return params_.cells_per_side == other.params_.cells_per_side &&
         params_.time_partition_s == other.params_.time_partition_s &&
         temporal_ == other.temporal_ &&
         partition_trajs_ == other.partition_trajs_ &&
         home_slot_ == other.home_slot_ && level_first_ == other.level_first_ &&
         slot_cells_ == other.slot_cells_ && cells_ == other.cells_ &&
         refs_ == other.refs_ && nrefs_ == other.nrefs_;
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
  const size_t c = CellOf(home_slot_[j], re);
  if (c == SIZE_MAX) return {};
  const auto run = [&](const auto& tuples, uint32_t Cell::*first) {
    const auto [lo, hi] = std::ranges::equal_range(
        Slice(tuples, first, c, c + 1), j, {}, [](const auto& t) { return t.traj; });
    return std::span(lo, hi);
  };
  return {run(refs_, &Cell::ref_first), run(nrefs_, &Cell::nref_first)};
}

template <typename Tuple>
std::vector<Tuple> StiuIndex::Gather(const std::vector<Tuple>& tuples,
                                     uint32_t Cell::*first,
                                     network::RegionId re) const {
  std::vector<Tuple> out;
  for (size_t s = 0; s + 1 < slot_cells_.size(); ++s) {
    const size_t c = CellOf(s, re);
    if (c == SIZE_MAX) continue;
    for (const Tuple& t : Slice(tuples, first, c, c + 1)) {
      if (home_slot_[t.traj] == s) out.push_back(t);
    }
  }
  return out;
}

std::vector<StiuIndex::RefTuple> StiuIndex::RefTuplesIn(
    network::RegionId re) const {
  return Gather(refs_, &Cell::ref_first, re);
}

std::vector<StiuIndex::NrefTuple> StiuIndex::NrefTuplesIn(
    network::RegionId re) const {
  return Gather(nrefs_, &Cell::nref_first, re);
}

const StiuIndex::TemporalTuple& StiuIndex::TemporalTupleFor(
    size_t j, traj::Timestamp t) const {
  const auto& tuples = temporal_[j];
  // Latest tuple with t_start < t: the first with t_start >= t, less one.
  auto it = std::lower_bound(tuples.begin(), tuples.end(), t,
                             [](const TemporalTuple& tup, traj::Timestamp v) {
                               return tup.t_start < v;
                             });
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
         (home_slot_.size() + level_first_.size() + slot_cells_.size()) *
             sizeof(uint32_t);
}

size_t StiuIndex::SizeBytes() const {
  return sizeof(*this) + temporal_size_bytes() + spatial_size_bytes();
}

bool DeriveMetasAndIndex(const CorpusView& cc, std::vector<TrajMeta>* metas,
                         StiuIndex* index, std::string* error) {
  const UtcqDecoder decoder(index->grid().network(), cc);
  // One reused trajectory: reconstruction refills its instances in place.
  traj::UncertainTrajectory tu;
  std::vector<uint8_t> flags;
  const auto append = [&](std::vector<traj::Timestamp>& times,
                          std::span<const DecodedInstance> instances) {
    tu.times.swap(times);
    tu.instances.resize(instances.size());
    for (size_t w = 0; w < instances.size(); ++w) {
      if (!decoder.ToInstanceInto(instances[w], &tu.instances[w], &flags)) {
        if (error != nullptr) {
          *error = "trajectory " + std::to_string(metas->size() - 1) +
                   ": instance " + std::to_string(w) +
                   " does not reconstruct";
        }
        return false;
      }
    }
    index->Append(tu, cc.WithMetas(metas->data(), metas->size()));
    return true;
  };
  if (!DeriveMetas(cc, metas, error, append)) return false;
  index->Finish();
  return true;
}

}  // namespace utcq::core
