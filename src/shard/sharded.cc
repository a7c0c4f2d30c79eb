#include "shard/sharded.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace utcq::shard {

namespace {

/// Splits a manifest path into (directory prefix incl. trailing '/',
/// basename). Save records shard filenames relative to the directory and
/// Open resolves them against it — both sides must split identically.
std::pair<std::string, std::string> SplitDirBase(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return {"", path};
  return {path.substr(0, slash + 1), path.substr(slash + 1)};
}

void Accumulate(core::QueryStats* into, const core::QueryStats& from) {
  into->candidates += from.candidates;
  into->pruned_lemma1 += from.pruned_lemma1;
  into->pruned_lemma2 += from.pruned_lemma2;
  into->pruned_lemma4 += from.pruned_lemma4;
  into->accepted_lemma3 += from.accepted_lemma3;
  into->instances_decoded += from.instances_decoded;
  into->stream_bits_read += from.stream_bits_read;
  into->sync_seeks += from.sync_seeks;
  into->tuples_scanned += from.tuples_scanned;
  into->window_rejected += from.window_rejected;
}

}  // namespace

std::string ShardArchivePath(const std::string& manifest_path,
                             uint32_t shard) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".shard-%03u", shard);
  return manifest_path + suffix;
}

ShardPlan MakeShardPlan(const traj::UncertainCorpus& corpus,
                        const ShardOptions& opts) {
  ShardPlan plan;
  plan.policy = opts.policy;
  const uint32_t n = std::max<uint32_t>(1, opts.num_shards);
  const int64_t window = std::max<int64_t>(1, opts.time_window_s);
  plan.time_window_s = opts.policy == ShardPolicy::kTimePartition ? window : 0;
  plan.members.resize(n);
  for (uint32_t j = 0; j < corpus.size(); ++j) {
    uint32_t s = 0;
    switch (opts.policy) {
      case ShardPolicy::kAppendLog:
        // Not a planner policy — append-log sets are written generation by
        // generation by ingest::Flusher. A stray request gets the default
        // hash layout rather than a crash or a skewed single shard.
        [[fallthrough]];
      case ShardPolicy::kHash:
        // Sequential trajectory ids must not all land in the same few
        // shards, so the id is mixed before the modulo.
        s = static_cast<uint32_t>(common::SplitMix64(corpus[j].id) % n);
        break;
      case ShardPolicy::kTimePartition: {
        const traj::Timestamp t0 =
            corpus[j].times.empty() ? 0 : corpus[j].times.front();
        // Timestamps can be negative (day-relative clock); keep the modulo
        // in [0, n) rather than indexing members with a wrapped negative.
        int64_t m = (t0 / window) % static_cast<int64_t>(n);
        if (m < 0) m += n;
        s = static_cast<uint32_t>(m);
        break;
      }
    }
    plan.members[s].push_back(j);  // j ascending => members ascending
  }
  return plan;
}

uint64_t ShardedBuild::total_bits() const {
  uint64_t total = 0;
  for (const auto& s : shards) total += s->corpus.total_bits();
  return total;
}

traj::ComponentSizes ShardedBuild::compressed_bits() const {
  traj::ComponentSizes total;
  for (const auto& s : shards) total += s->corpus.compressed_bits();
  return total;
}

bool ShardedBuild::Save(const std::string& manifest_path,
                        std::string* error) const {
  const auto split = SplitDirBase(manifest_path);
  const std::string& dir = split.first;

  archive::ShardManifest manifest;
  manifest.policy = static_cast<uint8_t>(plan.policy);
  manifest.time_partition_s = plan.time_window_s;
  manifest.shards.resize(shards.size());
  for (uint32_t s = 0; s < shards.size(); ++s) {
    manifest.shards[s].file = ShardArchivePath(split.second, s);
    manifest.shards[s].members = plan.members[s];
  }
  // Each task serializes and durably writes one shard file (temp file,
  // fsync, rename, directory fsync) and writes only its own slots.
  std::vector<std::string> errors(shards.size());
  std::vector<uint8_t> saved(shards.size(), 0);
  common::ParallelFor(shards.size(), 0, [&](size_t s) {
    const archive::ArchiveWriter writer(shards[s]->corpus,
                                        shards[s]->index.get());
    saved[s] = writer.Save(dir + manifest.shards[s].file, &errors[s]);
  });
  for (size_t s = 0; s < shards.size(); ++s) {
    if (!saved[s]) {
      if (error != nullptr) *error = errors[s];
      return false;
    }
  }
  // The manifest is written last: it is the publication point of the set,
  // and it must never name a shard file that is not fully on disk.
  return archive::SaveBytesAtomic(archive::EncodeShardManifest(manifest),
                                  manifest_path, error);
}

ShardedCompressor::ShardedCompressor(const network::RoadNetwork& net,
                                     const network::GridIndex& grid,
                                     core::UtcqParams params,
                                     core::StiuParams index_params,
                                     ShardOptions opts)
    : net_(net),
      grid_(grid),
      params_(params),
      index_params_(index_params),
      opts_(opts) {
  index_params_.cells_per_side = grid.cells_per_side();
}

ShardedBuild ShardedCompressor::Compress(
    const traj::UncertainCorpus& corpus) const {
  ShardedBuild build;
  build.plan = MakeShardPlan(corpus, opts_);
  const uint32_t n = build.plan.num_shards();
  build.shards.resize(n);
  // Every shard is an independent single-threaded compression over shared
  // immutable inputs (network, grid, params, the corpus itself); the only
  // cross-thread writes are to each worker's own build.shards slot.
  // Begin + AppendTrajectory over the members is exactly Compress over a
  // copied sub-corpus, without the copy. ParallelFor runs this on the
  // persistent shared pool — the same workers that serve query fan-out —
  // so repeated builds pay no thread start-up.
  common::ParallelFor(n, opts_.num_threads, [&](size_t s) {
    const core::UtcqCompressor compressor(net_, params_);
    auto shard = std::make_unique<CompressedShard>();
    shard->corpus = compressor.Begin();
    for (const uint32_t j : build.plan.members[s]) {
      compressor.AppendTrajectory(corpus[j], &shard->corpus);
    }
    shard->index = std::make_unique<core::StiuIndex>(grid_, index_params_);
    const core::CorpusView cc = shard->corpus.view();
    for (const uint32_t j : build.plan.members[s]) {
      shard->index->Append(corpus[j], cc);
    }
    shard->index->Finish();
    build.shards[s] = std::move(shard);
  });
  return build;
}

bool ShardedCorpus::Open(const network::RoadNetwork& net,
                         const std::string& manifest_path,
                         std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::vector<uint8_t> bytes;
  if (!archive::ReadFileBytes(manifest_path, &bytes, error)) return false;
  archive::ShardManifest manifest;
  if (!DecodeShardManifest(bytes.data(), bytes.size(), &manifest, error)) {
    return false;
  }
  if (manifest.shards.empty()) return fail("manifest names no shards");

  const std::string dir = SplitDirBase(manifest_path).first;
  const size_t n = manifest.shards.size();

  // Shard files are read and their containers checked concurrently; each
  // task writes only its own slots. The checks then run in shard order, so
  // a bad set fails with the same (first) error a one-by-one open would
  // report.
  std::vector<archive::ArchivePayload> payloads(n);
  std::vector<std::string> errors(n);
  std::vector<uint8_t> decoded(n, 0);
  common::ParallelFor(n, 0, [&](size_t s) {
    std::vector<uint8_t> file;
    decoded[s] = archive::ReadFileBytes(dir + manifest.shards[s].file, &file,
                                        &errors[s]) &&
                 archive::DecodeArchive(file.data(), file.size(),
                                        &payloads[s], &errors[s]);
  });
  uint32_t cells = 0;
  for (size_t s = 0; s < n; ++s) {
    const archive::ShardManifest::Shard& entry = manifest.shards[s];
    if (!decoded[s]) return fail(errors[s]);
    if (payloads[s].stiu.empty()) {
      return fail("shard " + entry.file + " carries no StIU index");
    }
    if (cells == 0) {
      cells = payloads[s].stiu_params.cells_per_side;
    } else if (payloads[s].stiu_params.cells_per_side != cells) {
      return fail("shard " + entry.file +
                  " was indexed over a different grid resolution");
    }
  }

  // One walk per shard, concurrently, derives its metas and its index
  // (DESIGN.md §6); both are complete when Open returns.
  auto grid = std::make_unique<network::GridIndex>(net, cells);
  std::vector<std::unique_ptr<Shard>> shards(n);
  common::ParallelFor(n, 0, [&](size_t s) {
    auto shard = std::make_unique<Shard>();
    if (shard->reader.OpenPayload(std::move(payloads[s]), grid.get(),
                                  &shard->index,
                                  manifest.shards[s].members.size(),
                                  &errors[s])) {
      shard->queries = std::make_unique<core::UtcqQueryProcessor>(
          net, shard->reader.view(), *shard->index);
      shards[s] = std::move(shard);
    }
  });
  for (size_t s = 0; s < n; ++s) {
    if (shards[s] == nullptr) {
      return fail("shard " + manifest.shards[s].file + ": " + errors[s]);
    }
  }

  // Routing table: every global index must be claimed exactly once across
  // the member lists, or point queries would mis-route or walk off a shard.
  const size_t total = manifest.num_trajectories();
  constexpr uint32_t kUnrouted = UINT32_MAX;
  std::vector<std::pair<uint32_t, uint32_t>> route(total, {kUnrouted, 0});
  for (uint32_t s = 0; s < manifest.shards.size(); ++s) {
    const auto& members = manifest.shards[s].members;
    for (uint32_t local = 0; local < members.size(); ++local) {
      const uint32_t global = members[local];
      if (global >= total || route[global].first != kUnrouted) {
        return fail("manifest member lists do not partition the corpus");
      }
      route[global] = {s, local};
    }
  }

  net_ = &net;
  grid_ = std::move(grid);
  manifest_ = std::move(manifest);
  shards_ = std::move(shards);
  route_ = std::move(route);
  return true;
}

std::vector<traj::WhereHit> ShardedCorpus::Where(
    size_t traj_idx, traj::Timestamp t, double alpha,
    core::QueryStats* stats) const {
  // Untrusted / out-of-range ids (and the unopened corpus, whose routing
  // table is empty) answer empty instead of walking off the table.
  if (traj_idx >= route_.size()) return {};
  const auto [s, local] = route_[traj_idx];
  return shards_[s]->queries->Where(local, t, alpha, stats);
}

std::vector<traj::WhenHit> ShardedCorpus::When(size_t traj_idx,
                                               network::EdgeId edge, double rd,
                                               double alpha,
                                               core::QueryStats* stats) const {
  if (traj_idx >= route_.size()) return {};
  const auto [s, local] = route_[traj_idx];
  return shards_[s]->queries->When(local, edge, rd, alpha, stats);
}

traj::RangeResult ShardedCorpus::Range(const network::Rect& region,
                                       traj::Timestamp tq, double alpha,
                                       core::QueryStats* stats,
                                       unsigned num_threads,
                                       const ShardDecodedProvider& provider) const {
  std::vector<traj::RangeResult> partial(shards_.size());
  std::vector<core::QueryStats> shard_stats(shards_.size());
  common::ParallelFor(shards_.size(), num_threads, [&](size_t s) {
    core::QueryStats* sstats = stats != nullptr ? &shard_stats[s] : nullptr;
    if (provider) {
      const traj::DecodedProvider local_provider =
          [&provider, s](uint32_t local) {
            return provider(static_cast<uint32_t>(s), local);
          };
      partial[s] = shards_[s]->queries->Range(region, tq, alpha,
                                              local_provider, sstats);
    } else {
      partial[s] = shards_[s]->queries->Range(region, tq, alpha, sstats);
    }
  });

  traj::RangeResult merged;
  for (size_t s = 0; s < partial.size(); ++s) {
    for (const uint32_t local : partial[s]) {
      merged.push_back(manifest_.shards[s].members[local]);
    }
    if (stats != nullptr) Accumulate(stats, shard_stats[s]);
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

}  // namespace utcq::shard
