#include "ingest/flusher.h"

#include <filesystem>
#include <numeric>
#include <utility>

namespace utcq::ingest {

namespace {

/// Basename of a path — flush generations are recorded in the manifest
/// relative to its own directory, exactly like ShardedBuild::Save.
std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

const char* FlushStepName(FlushStep step) {
  switch (step) {
    case FlushStep::kBeforeArchiveWrite:
      return "before-archive-write";
    case FlushStep::kAfterArchiveWrite:
      return "after-archive-write";
    case FlushStep::kAfterManifestSwap:
      return "after-manifest-swap";
    case FlushStep::kBeforeHandoff:
      return "before-handoff";
  }
  return "unknown-step";
}

Flusher::Flusher(const network::RoadNetwork& net, std::string manifest_path,
                 obs::MetricRegistry* registry, const obs::Clock* clock)
    : net_(net), manifest_path_(std::move(manifest_path)) {
  manifest_.policy = static_cast<uint8_t>(shard::ShardPolicy::kAppendLog);
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricRegistry>();
    registry = owned_registry_.get();
  }
  clock_ = clock != nullptr ? clock : &obs::Clock::Real();
  flush_attempts_ = &registry->GetCounter("ingest.flush.attempts");
  flush_failures_ = &registry->GetCounter("ingest.flush.failures");
  flush_retries_ = &registry->GetCounter("ingest.flush.retries");
  flush_duration_ = &registry->GetHistogram("ingest.flush.duration_ns");
}

bool Flusher::Open(std::string* error,
                   std::shared_ptr<const shard::ShardedCorpus>* sealed) {
  std::error_code ec;
  if (!std::filesystem::exists(manifest_path_, ec)) {
    manifest_ = archive::ShardManifest{};
    manifest_.policy = static_cast<uint8_t>(shard::ShardPolicy::kAppendLog);
    sealed->reset();
    return true;
  }
  auto corpus = std::make_shared<shard::ShardedCorpus>();
  if (!corpus->Open(net_, manifest_path_, error)) return false;
  manifest_ = corpus->manifest();
  *sealed = std::move(corpus);
  return true;
}

bool Flusher::Flush(const LiveSnapshot& live, std::string* error,
                    std::shared_ptr<const shard::ShardedCorpus>* new_sealed) {
  flush_attempts_->Increment();
  if (retry_pending_) flush_retries_->Increment();
  bool ok = false;
  {
    const obs::ScopedTimer timer(*flush_duration_, *clock_);
    ok = FlushInternal(live, error, new_sealed);
  }
  if (!ok) flush_failures_->Increment();
  retry_pending_ = !ok;
  return ok;
}

bool Flusher::FlushInternal(
    const LiveSnapshot& live, std::string* error,
    std::shared_ptr<const shard::ShardedCorpus>* new_sealed) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (live.count() == 0) return fail("refusing to flush an empty live shard");
  const size_t base = manifest_.num_trajectories();
  if (live.base() != base) {
    return fail("live snapshot base disagrees with the sealed set");
  }

  // Crash matrix: the hook simulates a process crash at the given step.
  const auto crash = [&](FlushStep step) {
    return hook_ && !hook_(step);
  };
  const auto crashed = [&fail](FlushStep step) {
    return fail(std::string("flush aborted by crash hook at step ") +
                FlushStepName(step));
  };
  if (crash(FlushStep::kBeforeArchiveWrite)) {
    return crashed(FlushStep::kBeforeArchiveWrite);
  }

  const uint32_t gen = static_cast<uint32_t>(manifest_.shards.size());
  // Step 1: the generation's archive, atomically, *before* any publication.
  // A leftover file from a crashed previous attempt is simply overwritten.
  const archive::ArchiveWriter writer(live.corpus(), live.index().params());
  if (!writer.Save(shard::ShardArchivePath(manifest_path_, gen), error)) {
    return false;
  }

  // Injectable crash between archive write and manifest swap.
  if (crash(FlushStep::kAfterArchiveWrite)) {
    return crashed(FlushStep::kAfterArchiveWrite);
  }

  // Step 2: the manifest swap is the publication point.
  archive::ShardManifest next = manifest_;
  next.policy = static_cast<uint8_t>(shard::ShardPolicy::kAppendLog);
  next.time_partition_s = 0;
  archive::ShardManifest::Shard entry;
  entry.file = shard::ShardArchivePath(BaseName(manifest_path_), gen);
  entry.members.resize(live.count());
  std::iota(entry.members.begin(), entry.members.end(),
            static_cast<uint32_t>(base));
  next.shards.push_back(std::move(entry));
  if (!archive::SaveBytesAtomic(archive::EncodeShardManifest(next),
                                manifest_path_, error)) {
    return false;
  }

  // The swap published the generation: record it *before* the reopen (and
  // before any injected crash), so even a (freak) reopen failure can never
  // lead to a later flush overwriting an already-published archive file.
  manifest_ = std::move(next);

  if (crash(FlushStep::kAfterManifestSwap)) {
    return crashed(FlushStep::kAfterManifestSwap);
  }

  // Step 3: reopen the published set for the caller to swap in.
  auto corpus = std::make_shared<shard::ShardedCorpus>();
  if (!corpus->Open(net_, manifest_path_, error)) return false;

  if (crash(FlushStep::kBeforeHandoff)) {
    return crashed(FlushStep::kBeforeHandoff);
  }
  *new_sealed = std::move(corpus);
  return true;
}

}  // namespace utcq::ingest
