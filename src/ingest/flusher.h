#ifndef UTCQ_INGEST_FLUSHER_H_
#define UTCQ_INGEST_FLUSHER_H_

#include <functional>
#include <memory>
#include <string>

#include "archive/archive.h"
#include "ingest/live_shard.h"
#include "network/road_network.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "shard/sharded.h"

namespace utcq::ingest {

/// Publication steps of one Flush, in execution order. The declarative
/// crash matrix (tests/ingest_test.cc, DESIGN.md §11) injects a simulated
/// crash before/after each transition and asserts the on-disk invariant:
/// a reopen after a crash at any step sees either exactly the pre-flush
/// set (steps before the manifest swap) or exactly the post-flush set
/// (steps at or after it) — never a torn one.
enum class FlushStep : uint8_t {
  /// Nothing written yet; the generation archive is about to be saved.
  kBeforeArchiveWrite = 0,
  /// Generation archive on disk (atomically), manifest not yet swapped —
  /// the orphan-archive window; a retry simply overwrites the file.
  kAfterArchiveWrite = 1,
  /// Manifest swapped (the publication point) and the flusher's in-memory
  /// manifest committed to match; the set is not yet reopened.
  kAfterManifestSwap = 2,
  /// Post-flush set reopened; the corpus is about to be handed to the
  /// caller for tier publication (sealed-swap + live-trim).
  kBeforeHandoff = 3,
};

inline constexpr FlushStep kAllFlushSteps[] = {
    FlushStep::kBeforeArchiveWrite, FlushStep::kAfterArchiveWrite,
    FlushStep::kAfterManifestSwap, FlushStep::kBeforeHandoff};

/// Human-readable step name (crash-matrix failure messages).
const char* FlushStepName(FlushStep step);

/// Durability mechanism of the streaming tier (DESIGN.md §10): freezes a
/// live-shard snapshot into the next generation of an append-log archive
/// set — one §6 container per flush next to a §8 manifest whose shard s is
/// flush generation s, members the contiguous global ids it sealed.
///
/// Crash consistency is the write order: the generation's archive is
/// written (atomically) *first*, the manifest swap (atomic rename) is the
/// publication point *last*. A crash anywhere in between leaves the old
/// manifest naming only fully-written archives — a reopen sees exactly the
/// pre-flush set, never a torn one; the orphaned archive file is simply
/// overwritten by the retry. The pre-publish hook injects that crash in
/// tests.
///
/// Not internally synchronized: the owning service serializes flushes and
/// keeps the returned corpus for publication under its own tier lock.
class Flusher {
 public:
  /// `net` must be the network every generation was compressed against and
  /// must outlive the flusher and every corpus it opens. Flush attempts /
  /// failures / retries and a duration histogram are registered under
  /// `ingest.flush.*` in `registry` (DESIGN.md §15; nullptr = private
  /// registry); durations are timed against `clock` (nullptr = real).
  Flusher(const network::RoadNetwork& net, std::string manifest_path,
          obs::MetricRegistry* registry = nullptr,
          const obs::Clock* clock = nullptr);

  /// Opens the existing archive set. A missing manifest is a fresh, empty
  /// set (*sealed stays null); a present-but-invalid set fails.
  bool Open(std::string* error,
            std::shared_ptr<const shard::ShardedCorpus>* sealed);

  /// Writes `live` as the next generation and swaps the manifest. On
  /// success *new_sealed holds the reopened post-flush set (the caller
  /// publishes it together with LiveShard::DropFlushed). On failure —
  /// including a hook-injected crash — the on-disk set and this object
  /// still describe the pre-flush state, and nothing was lost from the
  /// live shard.
  bool Flush(const LiveSnapshot& live, std::string* error,
             std::shared_ptr<const shard::ShardedCorpus>* new_sealed);

  /// Crash-injection matrix for tests: invoked at every FlushStep in
  /// order; returning false aborts the flush right there, simulating a
  /// process crash at that publication step. Steps at or after
  /// kAfterManifestSwap abort *after* the on-disk swap, so the flush
  /// "fails" yet the generation is durably published — exactly the state
  /// a real crash leaves, and this object's manifest stays committed to
  /// match the disk (a later flush can never overwrite the published
  /// archive).
  using CrashHook = std::function<bool(FlushStep)>;
  void set_crash_hook(CrashHook hook) { hook_ = std::move(hook); }

  const std::string& manifest_path() const { return manifest_path_; }
  size_t num_generations() const { return manifest_.shards.size(); }
  /// Trajectories in the published sealed set.
  size_t num_sealed() const { return manifest_.num_trajectories(); }

 private:
  bool FlushInternal(const LiveSnapshot& live, std::string* error,
                     std::shared_ptr<const shard::ShardedCorpus>* new_sealed);

  const network::RoadNetwork& net_;
  std::string manifest_path_;
  archive::ShardManifest manifest_;  // the published set
  CrashHook hook_;

  /// Declared before the instrument pointers so they outlive every use.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  const obs::Clock* clock_ = nullptr;
  obs::Counter* flush_attempts_ = nullptr;
  obs::Counter* flush_failures_ = nullptr;
  obs::Counter* flush_retries_ = nullptr;
  obs::Histogram* flush_duration_ = nullptr;
  /// The previous Flush failed; the next attempt counts as a retry (the
  /// crash-recovery loop the crash matrix exercises). Unsynchronized like
  /// the rest of the flusher — the owning service serializes flushes.
  bool retry_pending_ = false;
};

}  // namespace utcq::ingest

#endif  // UTCQ_INGEST_FLUSHER_H_
