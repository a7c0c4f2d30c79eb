#ifndef UTCQ_CORE_CORPUS_META_H_
#define UTCQ_CORE_CORPUS_META_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "traj/types.h"

namespace utcq::core {

/// UTCQ compression parameters (Table 7 defaults).
struct UtcqParams {
  double eta_d = 1.0 / 128.0;   // relative-distance error bound
  double eta_p = 1.0 / 512.0;   // probability error bound
  int num_pivots = 1;           // n_p (paper default: 1 on CD/HZ, 2 on DK)
  int64_t default_interval_s = 10;  // Ts for SIAR
  /// Ablation: encode every instance as a standalone reference (no pivot
  /// selection, no FJD, no referential factors). Isolates the contribution
  /// of the referential representation versus the improved TED + SIAR
  /// coding (DESIGN.md §5).
  bool disable_referential = false;
  /// Sync-point interval K for the T stream (DESIGN.md §16): every K
  /// decoded entries the encoder records a restart state in
  /// TrajMeta::t_syncs so BracketTime can seek instead of scanning from
  /// the trajectory's first delta. 0 disables sync points (pre-v3
  /// archives). Not part of the kParams archive payload — persisted in
  /// the v3 sync-index section alongside the tables it describes.
  uint32_t t_sync_interval = 32;
};

/// Bit positions of one compressed reference within the corpus streams.
struct RefMeta {
  uint32_t orig_index = 0;  // instance position within the trajectory
  uint64_t offset = 0;      // start of this reference in ref_stream
  uint32_t e_len = 0;
  uint64_t d_pos = 0;       // absolute bit position of the first D code
  float p_quantized = 0.0f;
};

/// Bit positions of one compressed non-reference.
struct NrefMeta {
  uint32_t orig_index = 0;
  uint32_t ref_pos = 0;  // position of its reference in TrajMeta::refs
  uint64_t offset = 0;   // start of this non-reference in nref_stream
  uint32_t e_len = 0;
  float p_quantized = 0.0f;
};

/// One T-stream sync point (DESIGN.md §16): the decoder restart state
/// right after expanding entry `entry`. `t` is the expanded timestamp of
/// that entry (the SIAR accumulator value) and `bit` is the absolute
/// t_stream position of the next delta — exactly the shape of
/// StiuIndex::TemporalTuple, but at a fixed entry cadence instead of time
/// partitions, so a seek lands within K entries of any bracket.
struct TSync {
  uint32_t entry = 0;     // index of the last decoded entry (>= 1)
  traj::Timestamp t = 0;  // times[entry]
  uint64_t bit = 0;       // absolute bit position of delta entry+1
};

struct TrajMeta {
  uint64_t t_pos = 0;  // start of this trajectory's block in t_stream
  uint32_t n_points = 0;
  traj::Timestamp t_first = 0;
  traj::Timestamp t_last = 0;
  std::vector<RefMeta> refs;
  std::vector<NrefMeta> nrefs;
  /// Per original instance: (is_reference, index into refs / nrefs).
  std::vector<std::pair<bool, uint32_t>> roles;
  /// T-stream skip table, ascending by entry (and by bit). Empty when the
  /// corpus was built with t_sync_interval == 0 or loaded from a pre-v3
  /// archive. Persisted in the archive's sync-index section, not in
  /// kMetas (§6 append-only rule: tag-6 payload shape is frozen).
  std::vector<TSync> t_syncs;
};

/// Empty shim for bench/e2e/replay.cc; ROADMAP item 6 deletes it.
struct NrefFactorLayout {};

}  // namespace utcq::core

#endif  // UTCQ_CORE_CORPUS_META_H_
