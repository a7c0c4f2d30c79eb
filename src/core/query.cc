#include "core/query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

namespace utcq::core {

using network::Rect;
using traj::NetworkPosition;
using traj::Timestamp;
using traj::TrajectoryInstance;

namespace {

/// A handle is only trusted when its shape matches the trajectory's meta —
/// anything else (wrong trajectory, stale cache) decodes inline instead of
/// indexing out of bounds.
const traj::DecodedTraj* UsableHandle(const TrajMeta& meta,
                                      const traj::DecodedTraj* dt) {
  if (dt == nullptr) return nullptr;
  if (dt->times.size() != meta.n_points ||
      dt->ref_insts.size() != meta.refs.size() ||
      dt->nref_insts.size() != meta.nrefs.size()) {
    return nullptr;
  }
  return dt;
}

}  // namespace

SubpathRelation ClassifySubpath(const network::RoadNetwork& net,
                                const TrajectoryInstance& inst, size_t i,
                                const Rect& re) {
  const uint32_t from = inst.locations[i].path_index;
  const uint32_t to = i + 1 < inst.locations.size()
                          ? inst.locations[i + 1].path_index
                          : from;
  // Degenerate instances (empty path, a path_index past the path, or
  // non-monotone location ordering) leave the loop below with zero
  // iterations; all_inside would then report a subpath that touches no
  // edge as kInside. Nothing travelled means nothing overlaps RE.
  if (inst.path.empty() || from >= inst.path.size() || to < from) {
    return SubpathRelation::kDisjoint;
  }
  // A zero-area RE (a point or a line) meets a position on an edge only up
  // to rounding, so the exact segment tests cannot settle it: leave it to
  // the interpolated point test, the same test the oracle makes.
  if (re.width() <= 0.0 || re.height() <= 0.0) {
    return SubpathRelation::kPartial;
  }
  bool all_inside = true;
  bool any_intersect = false;
  for (uint32_t k = from; k <= to && k < inst.path.size(); ++k) {
    const auto& e = net.edge(inst.path[k]);
    const auto& a = net.vertex(e.from);
    const auto& b = net.vertex(e.to);
    if (!network::SegmentInsideRect(a.x, a.y, b.x, b.y, re)) {
      all_inside = false;
    }
    if (network::SegmentIntersectsRect(a.x, a.y, b.x, b.y, re)) {
      any_intersect = true;
    }
  }
  if (all_inside) return SubpathRelation::kInside;
  if (!any_intersect) return SubpathRelation::kDisjoint;
  return SubpathRelation::kPartial;
}

std::vector<std::pair<uint32_t, TrajectoryInstance>>
UtcqQueryProcessor::DecodeQualifying(size_t j, double alpha,
                                     const traj::DecodedTraj* dt,
                                     QueryStats* stats) const {
  std::vector<std::pair<uint32_t, TrajectoryInstance>> result;
  const TrajMeta& meta = cc().meta(j);

  if (dt != nullptr) {
    // Same instances in the same refs-then-nrefs order as the decode path
    // below, served from the handle.
    for (uint32_t r = 0; r < meta.refs.size(); ++r) {
      if (meta.refs[r].p_quantized >= alpha && dt->ref_insts[r].has_value()) {
        result.emplace_back(meta.refs[r].orig_index, *dt->ref_insts[r]);
      }
    }
    for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
      const NrefMeta& nm = meta.nrefs[k];
      if (nm.p_quantized >= alpha && dt->nref_insts[k].has_value()) {
        result.emplace_back(nm.orig_index, *dt->nref_insts[k]);
      }
    }
    return result;
  }

  // Which references must be materialized: their own probability passes, or
  // one of their Rrs members' does.
  std::vector<bool> need_ref(meta.refs.size(), false);
  for (uint32_t r = 0; r < meta.refs.size(); ++r) {
    if (meta.refs[r].p_quantized >= alpha) need_ref[r] = true;
  }
  for (const NrefMeta& nm : meta.nrefs) {
    if (nm.p_quantized >= alpha) need_ref[nm.ref_pos] = true;
  }

  std::vector<DecodedInstance> refs(meta.refs.size());
  for (uint32_t r = 0; r < meta.refs.size(); ++r) {
    if (!need_ref[r]) continue;
    const uint64_t bits = decoder_.DecodeReferenceInto(j, r, &refs[r]);
    if (stats != nullptr) {
      ++stats->instances_decoded;
      stats->stream_bits_read += bits;
    }
    if (meta.refs[r].p_quantized >= alpha) {
      const auto inst = decoder_.ToInstance(refs[r]);
      if (inst.has_value()) {
        result.emplace_back(meta.refs[r].orig_index, *inst);
      }
    }
  }
  DecodedInstance scratch;
  for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
    const NrefMeta& nm = meta.nrefs[k];
    if (nm.p_quantized < alpha) continue;
    const uint64_t bits =
        decoder_.DecodeNonReferenceInto(j, k, refs[nm.ref_pos], &scratch);
    if (stats != nullptr) {
      ++stats->instances_decoded;
      stats->stream_bits_read += bits;
    }
    const auto inst = decoder_.ToInstance(scratch);
    if (inst.has_value()) result.emplace_back(nm.orig_index, *inst);
  }
  return result;
}

std::vector<traj::WhereHit> UtcqQueryProcessor::Where(
    size_t traj_idx, Timestamp t, double alpha, QueryStats* stats) const {
  return WhereImpl(traj_idx, t, alpha, nullptr, stats);
}

std::vector<traj::WhereHit> UtcqQueryProcessor::Where(
    size_t traj_idx, Timestamp t, double alpha, const traj::DecodedTraj& dt,
    QueryStats* stats) const {
  return WhereImpl(traj_idx, t, alpha, &dt, stats);
}

std::vector<traj::WhereHit> UtcqQueryProcessor::WhereImpl(
    size_t traj_idx, Timestamp t, double alpha, const traj::DecodedTraj* dt,
    QueryStats* stats) const {
  std::vector<traj::WhereHit> hits;
  if (traj_idx >= cc().num_trajectories()) return hits;  // untrusted id
  const TrajMeta& meta = cc().meta(traj_idx);
  dt = UsableHandle(meta, dt);
  if (t < meta.t_first || t > meta.t_last) return hits;

  // Partial T decompression: start at the temporal tuple for t. With a
  // handle the expanded sequence replaces the bitstream scan.
  const auto& tuple = index_.TemporalTupleFor(traj_idx, t);
  UtcqDecoder::SeekStats seek;
  const auto bracket =
      dt != nullptr
          ? UtcqDecoder::BracketInTimes(dt->times, meta.n_points, t,
                                        tuple.t_no, tuple.t_start)
          : decoder_.BracketTime(traj_idx, t, tuple.t_no, tuple.t_start,
                                 tuple.t_pos, &seek);
  if (stats != nullptr) {
    stats->stream_bits_read += seek.bits_read;
    stats->sync_seeks += seek.sync_seeks;
  }
  if (!bracket.has_value()) return hits;

  // All qualifying instances share the bracket, so their positions batch
  // through the strategy layer's multi-instance interpolation.
  const auto qualifying = DecodeQualifying(traj_idx, alpha, dt, stats);
  std::vector<const TrajectoryInstance*> insts;
  insts.reserve(qualifying.size());
  for (const auto& [w, inst] : qualifying) insts.push_back(&inst);
  const auto positions = traj::PositionsInBracket(
      net_, insts, bracket->index, bracket->t0, bracket->t1, t);
  hits.reserve(qualifying.size());
  for (size_t k = 0; k < qualifying.size(); ++k) {
    hits.push_back(
        {qualifying[k].first, qualifying[k].second.probability, positions[k]});
  }
  return hits;
}

bool UtcqQueryProcessor::MayPassEdge(size_t traj_idx,
                                     network::EdgeId edge) const {
  // Mirrors WhenImpl's group construction: only reference-group tuples in
  // the edge's regions can seed candidates, so no tuple here means the
  // groups below would come up empty.
  if (traj_idx >= cc().num_trajectories()) return false;  // untrusted id
  const auto j = static_cast<uint32_t>(traj_idx);
  for (const network::RegionId re : index_.grid().RegionsOfEdge(edge)) {
    if (!index_.TuplesOf(re, j).refs.empty()) return true;
  }
  return false;
}

std::vector<traj::WhenHit> UtcqQueryProcessor::When(size_t traj_idx,
                                                    network::EdgeId edge,
                                                    double rd, double alpha,
                                                    QueryStats* stats) const {
  return WhenImpl(traj_idx, edge, rd, alpha, nullptr, stats);
}

std::vector<traj::WhenHit> UtcqQueryProcessor::When(
    size_t traj_idx, network::EdgeId edge, double rd, double alpha,
    const traj::DecodedTraj& dt, QueryStats* stats) const {
  return WhenImpl(traj_idx, edge, rd, alpha, &dt, stats);
}

std::vector<traj::WhenHit> UtcqQueryProcessor::WhenImpl(
    size_t traj_idx, network::EdgeId edge, double rd, double alpha,
    const traj::DecodedTraj* dt, QueryStats* stats) const {
  std::vector<traj::WhenHit> hits;
  if (traj_idx >= cc().num_trajectories()) return hits;  // untrusted id
  const TrajMeta& meta = cc().meta(traj_idx);
  dt = UsableHandle(meta, dt);

  // Any instance passing <edge, rd> has spatial tuples in the regions the
  // edge overlaps (grid-boundary quantization makes the point's own region
  // unreliable at cell borders, so consult the edge's region list).
  const auto& regions = index_.grid().RegionsOfEdge(edge);

  // Reference-group tuples of this trajectory near the query location,
  // merged across the edge's regions (Lemma 1 needs the max p_max). Flat
  // vectors: a trajectory rarely has more than a handful of groups.
  std::vector<StiuIndex::RefTuple> groups;
  std::vector<uint32_t> nref_candidates;
  const auto j = static_cast<uint32_t>(traj_idx);
  for (const network::RegionId re : regions) {
    const auto [refs, nrefs] = index_.TuplesOf(re, j);
    if (stats != nullptr) stats->tuples_scanned += refs.size() + nrefs.size();
    for (const auto& rt : refs) {
      bool merged = false;
      for (auto& g : groups) {
        if (g.ref_idx() == rt.ref_idx()) {
          g.p_max = std::max(g.p_max, rt.p_max);
          g.ref |= rt.ref;  // same ref_idx: ORs in ref_passes
          merged = true;
          break;
        }
      }
      if (!merged) groups.push_back(rt);
    }
    for (const auto& nt : nrefs) {
      if (std::find(nref_candidates.begin(), nref_candidates.end(),
                    nt.nref_idx) == nref_candidates.end()) {
        nref_candidates.push_back(nt.nref_idx);
      }
    }
  }
  if (groups.empty()) return hits;  // no instance of Tu^j passes the edge
  if (stats != nullptr) stats->candidates += groups.size();

  std::vector<Timestamp> times_storage;  // decoded lazily when no handle
  const std::vector<Timestamp>* times = dt != nullptr ? &dt->times : nullptr;
  auto ensure_times = [&]() -> const std::vector<Timestamp>& {
    if (times == nullptr) {
      const uint64_t bits = decoder_.DecodeTimesInto(traj_idx, &times_storage);
      if (stats != nullptr) stats->stream_bits_read += bits;
      times = &times_storage;
    }
    return *times;
  };

  for (const auto& tuple : groups) {
    const StiuIndex::RefTuple* rt = &tuple;
    const bool need_nrefs = rt->p_max >= alpha;
    if (!need_nrefs && stats != nullptr) ++stats->pruned_lemma1;
    const bool need_ref_eval =
        rt->ref_passes() && meta.refs[rt->ref_idx()].p_quantized >= alpha;
    if (!need_nrefs && !need_ref_eval) continue;  // Lemma 1 full skip

    // The reference's decoded form is only needed on the inline path (its
    // non-references expand against it); a handle already has everything.
    std::optional<DecodedInstance> ref;
    if (dt == nullptr) {
      ref.emplace();
      const uint64_t bits =
          decoder_.DecodeReferenceInto(traj_idx, rt->ref_idx(), &*ref);
      if (stats != nullptr) {
        ++stats->instances_decoded;
        stats->stream_bits_read += bits;
      }
    }
    // Quantized relative distances can pull the sampled span slightly off
    // the exact query position; widen by the D error bound.
    const double tol =
        2.0 * cc().params().eta_d * net_.edge(edge).length + 1e-6;
    if (need_ref_eval) {
      std::optional<TrajectoryInstance> inst_storage;
      const TrajectoryInstance* inst =
          traj::SlotOrDecode(dt, &traj::DecodedTraj::ref_insts, rt->ref_idx(),
                             inst_storage,
                             [&] { return decoder_.ToInstance(*ref); });
      if (inst != nullptr) {
        for (const Timestamp t : traj::TimesAtPosition(
                 net_, *inst, ensure_times(), edge, rd, tol)) {
          hits.push_back({meta.refs[rt->ref_idx()].orig_index,
                          inst->probability, t});
        }
      }
    }
    if (!need_nrefs) continue;
    // Only the Rrs members that pass these regions (their tuples name them).
    for (const uint32_t nref_idx : nref_candidates) {
      const NrefMeta& nm = meta.nrefs[nref_idx];
      if (nm.ref_pos != rt->ref_idx() || nm.p_quantized < alpha) continue;
      std::optional<TrajectoryInstance> inst_storage;
      const TrajectoryInstance* inst = traj::SlotOrDecode(
          dt, &traj::DecodedTraj::nref_insts, nref_idx, inst_storage, [&] {
            DecodedInstance d;
            const uint64_t bits =
                decoder_.DecodeNonReferenceInto(traj_idx, nref_idx, *ref, &d);
            if (stats != nullptr) {
              ++stats->instances_decoded;
              stats->stream_bits_read += bits;
            }
            return decoder_.ToInstance(d);
          });
      if (inst == nullptr) continue;
      for (const Timestamp t : traj::TimesAtPosition(
               net_, *inst, ensure_times(), edge, rd, tol)) {
        hits.push_back({nm.orig_index, inst->probability, t});
      }
    }
  }
  return hits;
}

traj::RangeResult UtcqQueryProcessor::Range(const Rect& region, Timestamp tq,
                                            double alpha,
                                            QueryStats* stats) const {
  return RangeImpl(region, tq, alpha, nullptr, stats);
}

traj::RangeResult UtcqQueryProcessor::Range(const Rect& region, Timestamp tq,
                                            double alpha,
                                            const traj::DecodedProvider& provider,
                                            QueryStats* stats) const {
  return RangeImpl(region, tq, alpha, &provider, stats);
}

traj::RangeResult UtcqQueryProcessor::RangeImpl(
    const Rect& region, Timestamp tq, double alpha,
    const traj::DecodedProvider* provider, QueryStats* stats) const {
  traj::RangeResult result;
  const auto retotal = index_.grid().RegionsInRect(region);

  // Active trajectories at tq as a bitmap with a per-word popcount prefix:
  // is_active is one bit test, and rank() numbers the active trajectories
  // densely in id order.
  const size_t n = index_.num_trajectories();
  std::vector<uint64_t> active((n + 63) / 64, 0);
  for (const uint32_t j : index_.TrajectoriesAt(tq)) {
    active[j >> 6] |= uint64_t{1} << (j & 63);
  }
  std::vector<uint32_t> rank_base(active.size());
  uint32_t num_active = 0;
  for (size_t w = 0; w < active.size(); ++w) {
    rank_base[w] = num_active;
    num_active += static_cast<uint32_t>(std::popcount(active[w]));
  }
  const auto is_active = [&](uint32_t j) {
    return ((active[j >> 6] >> (j & 63)) & 1) != 0;
  };
  const auto rank = [&](uint32_t j) {
    const uint64_t below = active[j >> 6] & ((uint64_t{1} << (j & 63)) - 1);
    return rank_base[j >> 6] + static_cast<uint32_t>(std::popcount(below));
  };

  // Candidate instances from the spatial tuples over retotal (a superset
  // of RE — Lemma 4's region). Per level, only tq's partition is read: one
  // contiguous run per grid row of retotal (consecutive region ids). A
  // tuple whose window misses tq names an instance that cannot be in its
  // region at tq, so it is skipped first; is_active then decides
  // membership. An active trajectory's first tuple
  // allocates its seen flags — one per non-reference, then one per
  // reference — and only then is its meta read, so the flags dedupe
  // instances seen from several regions.
  struct SeenFlags {
    uint32_t nrefs = UINT32_MAX;  // first non-reference flag; MAX = unseen
    uint32_t refs = 0;            // first reference flag
    uint32_t end = 0;
  };
  std::vector<SeenFlags> slots(num_active);
  std::vector<uint8_t> seen;
  const auto flags_of = [&](uint32_t j) -> const SeenFlags& {
    SeenFlags& s = slots[rank(j)];
    if (s.nrefs == UINT32_MAX) {
      const TrajMeta& meta = cc().meta(j);
      s.nrefs = static_cast<uint32_t>(seen.size());
      s.refs = s.nrefs + static_cast<uint32_t>(meta.nrefs.size());
      s.end = s.refs + static_cast<uint32_t>(meta.refs.size());
      seen.resize(s.end, 0);
    }
    return s;
  };
  uint64_t tuples_scanned = 0;
  uint64_t window_rejected = 0;
  for (size_t row = 0; row < retotal.size();) {
    size_t row_end = row + 1;
    while (row_end < retotal.size() &&
           retotal[row_end] == retotal[row_end - 1] + 1) {
      ++row_end;
    }
    for (size_t level = 0; level < index_.num_levels(); ++level) {
      const auto [refs, nrefs] = index_.TuplesAt(level, tq, retotal[row],
                                                 retotal[row_end - 1]);
      tuples_scanned += refs.size() + nrefs.size();
      for (const auto& rt : refs) {
        if (!rt.ref_passes()) continue;
        if (!rt.window.Holds(tq)) {
          ++window_rejected;
          continue;
        }
        if (!is_active(rt.traj)) continue;
        seen[flags_of(rt.traj).refs + rt.ref_idx()] = 1;
      }
      for (const auto& nt : nrefs) {
        if (!nt.window.Holds(tq)) {
          ++window_rejected;
          continue;
        }
        if (!is_active(nt.traj)) continue;
        seen[flags_of(nt.traj).nrefs + nt.nref_idx] = 1;
      }
    }
    row = row_end;
  }
  if (stats != nullptr) {
    stats->tuples_scanned += tuples_scanned;
    stats->window_rejected += window_rejected;
  }

  // Members as packed keys (traj | is_ref | idx), trajectory by trajectory
  // in id order, non-references then references, each by ascending index:
  // ascending key order, so the p_sum and overlap_p summation order below
  // (and any floating-point tie against alpha) is fixed.
  std::vector<uint64_t> members;
  uint32_t slot = 0;
  for (size_t w = 0; w < active.size(); ++w) {
    for (uint64_t bits = active[w]; bits != 0; bits &= bits - 1, ++slot) {
      const SeenFlags& s = slots[slot];
      if (s.nrefs == UINT32_MAX) continue;
      const uint64_t j = w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
      for (uint32_t f = s.nrefs; f < s.refs; ++f) {
        if (seen[f] != 0) members.push_back((j << 33) | (f - s.nrefs));
      }
      for (uint32_t f = s.refs; f < s.end; ++f) {
        if (seen[f] != 0) {
          members.push_back((j << 33) | (1ull << 32) | (f - s.refs));
        }
      }
    }
  }

  for (size_t lo = 0; lo < members.size();) {
    const uint32_t j = static_cast<uint32_t>(members[lo] >> 33);
    size_t hi = lo;
    double p_sum = 0.0;
    const TrajMeta& meta = cc().meta(j);
    while (hi < members.size() &&
           static_cast<uint32_t>(members[hi] >> 33) == j) {
      const bool is_ref = (members[hi] >> 32) & 1;
      const uint32_t idx = static_cast<uint32_t>(members[hi] & 0xFFFFFFFFu);
      p_sum += is_ref ? meta.refs[idx].p_quantized
                      : meta.nrefs[idx].p_quantized;
      ++hi;
    }
    const size_t begin = lo;
    lo = hi;
    if (stats != nullptr) ++stats->candidates;
    if (tq < meta.t_first || tq > meta.t_last) continue;

    // Lemma 4: total probability mass near RE cannot reach alpha.
    if (p_sum < alpha) {
      if (stats != nullptr) ++stats->pruned_lemma4;
      continue;
    }

    const auto& tuple = index_.TemporalTupleFor(j, tq);
    UtcqDecoder::SeekStats seek;
    const auto bracket = decoder_.BracketTime(j, tq, tuple.t_no,
                                              tuple.t_start, tuple.t_pos,
                                              &seek);
    if (stats != nullptr) {
      stats->stream_bits_read += seek.bits_read;
      stats->sync_seeks += seek.sync_seeks;
    }
    if (!bracket.has_value()) continue;

    // Pin the trajectory's handle only now that every index/meta-level
    // rejection has passed: a decode-on-miss provider (the engine's cache)
    // must never pay a full decode for a candidate the bracket was about
    // to discard. The shared_ptr guards the member walk against concurrent
    // eviction.
    std::shared_ptr<const traj::DecodedTraj> pinned;
    if (provider != nullptr && *provider) pinned = (*provider)(j);
    const traj::DecodedTraj* dt = UsableHandle(meta, pinned.get());

    // Decode members, references first (reused across their Rrs).
    std::vector<std::pair<uint32_t, DecodedInstance>> ref_cache;
    auto ref_of = [&](uint32_t r) -> const DecodedInstance& {
      for (const auto& [key, value] : ref_cache) {
        if (key == r) return value;
      }
      ref_cache.emplace_back(r, DecodedInstance{});
      const uint64_t bits =
          decoder_.DecodeReferenceInto(j, r, &ref_cache.back().second);
      if (stats != nullptr) {
        ++stats->instances_decoded;
        stats->stream_bits_read += bits;
      }
      return ref_cache.back().second;
    };

    // Members are processed in chunks of 8: decode + classify the chunk,
    // batch the kPartial positions through the strategy interpolation
    // kernel, then fold probabilities back in strict member order — the
    // overlap_p summation order (and so any floating-point tie against
    // alpha) is exactly the one-at-a-time walk's. Lemma 3's early accept
    // still stops the walk; it merely lands at chunk granularity, so up to
    // seven members past the accepting one get decoded (counted in stats)
    // without affecting the result.
    constexpr size_t kChunk = 8;
    double overlap_p = 0.0;
    bool accepted = false;
    for (size_t cb = begin; cb < hi && !accepted; cb += kChunk) {
      const size_t ce = std::min(cb + kChunk, hi);
      const size_t cn = ce - cb;
      double pvals[kChunk];
      const TrajectoryInstance* insts[kChunk];
      SubpathRelation rels[kChunk];
      std::array<std::optional<TrajectoryInstance>, kChunk> storage;
      for (size_t k = cb; k < ce; ++k) {
        const size_t c = k - cb;
        const bool is_ref = (members[k] >> 32) & 1;
        const uint32_t idx = static_cast<uint32_t>(members[k] & 0xFFFFFFFFu);
        if (is_ref) {
          pvals[c] = meta.refs[idx].p_quantized;
          insts[c] = traj::SlotOrDecode(
              dt, &traj::DecodedTraj::ref_insts, idx, storage[c],
              [&] { return decoder_.ToInstance(ref_of(idx)); });
        } else {
          pvals[c] = meta.nrefs[idx].p_quantized;
          insts[c] = traj::SlotOrDecode(
              dt, &traj::DecodedTraj::nref_insts, idx, storage[c], [&] {
                const DecodedInstance& ref = ref_of(meta.nrefs[idx].ref_pos);
                DecodedInstance d;
                const uint64_t bits =
                    decoder_.DecodeNonReferenceInto(j, idx, ref, &d);
                if (stats != nullptr) {
                  ++stats->instances_decoded;
                  stats->stream_bits_read += bits;
                }
                return decoder_.ToInstance(d);
              });
        }
        if (insts[c] == nullptr) {
          rels[c] = SubpathRelation::kDisjoint;
          continue;
        }
        rels[c] = ClassifySubpath(net_, *insts[c], bracket->index, region);
        if (stats != nullptr && rels[c] != SubpathRelation::kPartial) {
          ++stats->pruned_lemma2;
        }
      }

      // Only kPartial members need an interpolated point-in-region test.
      std::vector<const TrajectoryInstance*> partial_insts;
      std::vector<size_t> partial_slots;
      for (size_t c = 0; c < cn; ++c) {
        if (insts[c] != nullptr && rels[c] == SubpathRelation::kPartial) {
          partial_insts.push_back(insts[c]);
          partial_slots.push_back(c);
        }
      }
      const auto positions = traj::PositionsInBracket(
          net_, partial_insts, bracket->index, bracket->t0, bracket->t1, tq);
      bool in_region[kChunk] = {};
      for (size_t v = 0; v < partial_slots.size(); ++v) {
        const network::Vertex xy =
            net_.PointOnEdge(positions[v].edge, positions[v].ndist);
        in_region[partial_slots[v]] = region.Contains(xy.x, xy.y);
      }

      for (size_t c = 0; c < cn; ++c) {
        if (insts[c] == nullptr) continue;
        if (rels[c] == SubpathRelation::kInside ||
            (rels[c] == SubpathRelation::kPartial && in_region[c])) {
          overlap_p += pvals[c];
        }
        if (overlap_p >= alpha) {  // Lemma 3 early accept
          if (stats != nullptr) ++stats->accepted_lemma3;
          accepted = true;
          break;
        }
      }
    }
    if (accepted) result.push_back(j);
  }
  return result;
}

}  // namespace utcq::core
