// Fuzz target: the §6 container decoder and everything a hostile archive
// can reach behind it — header/section/CRC validation, the walk that
// derives metas and sync tables from the SIAR / Exp-Golomb / PDDP streams,
// referential expansion and instance reconstruction, and the StIU index the
// same walk derives. An input that opens must decode without crashing,
// hanging or reading out of bounds; answers are free to be empty. An input
// that also carries a shard-manifest section (tag 8) opens as that set's
// first shard would: its derived trajectory count must be the listed one.
//
// Build flavors (CMake UTCQ_BUILD_FUZZERS): with Clang this links
// libFuzzer; elsewhere fuzz/standalone_main.cc replays corpus files.
// Seed corpus: fuzz/make_seed_corpus.cc writes archives from real saves.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "common/rng.h"
#include "core/decoder.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "network/generator.h"
#include "network/grid_index.h"

namespace {

/// The network every archive is opened against (corpus-independent state a
/// real caller provides). Deterministic and built once.
const utcq::network::RoadNetwork& Net() {
  static const utcq::network::RoadNetwork* net = [] {
    utcq::common::Rng rng(100);
    utcq::network::CityParams params;
    params.rows = 8;
    params.cols = 8;
    return new utcq::network::RoadNetwork(
        utcq::network::GenerateCity(rng, params));
  }();
  return *net;
}

/// Bounds keeping a single input's work proportional to its size: crafted
/// counts are either rejected by the decoder or clamped here, never a
/// timeout.
constexpr size_t kMaxTrajDecodes = 64;
constexpr uint32_t kMaxIndexCells = 64;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  utcq::archive::ArchivePayload payload;
  std::string error;
  if (!utcq::archive::DecodeArchive(data, size, &payload, &error)) return 0;

  // Open as the shard-set reader does: one walk derives the metas and,
  // over a grid of the archived resolution, the StIU index. Only the StIU
  // section's two parameters are read (the tuple lists of a v1-v4 section
  // never are), and of a v3-v5 sync section only K.
  std::optional<size_t> expected;
  utcq::archive::ShardManifest manifest;
  if (utcq::archive::DecodeShardManifest(data, size, &manifest, &error) &&
      !manifest.shards.empty()) {
    expected = manifest.shards[0].members.size();
  }
  const uint32_t cells = payload.stiu.empty()
                             ? 0
                             : payload.stiu_params.cells_per_side;
  std::unique_ptr<utcq::network::GridIndex> grid;
  if (cells > 0 && cells <= kMaxIndexCells) {
    grid = std::make_unique<utcq::network::GridIndex>(Net(), cells);
  }
  utcq::archive::ArchiveReader reader;
  std::unique_ptr<utcq::core::StiuIndex> index;
  if (!reader.OpenPayload(std::move(payload), grid.get(), &index, expected,
                          &error)) {
    return 0;
  }

  // The archive passed validation: everything reachable from it must now
  // be total. Decode a bounded number of trajectories in full, then drive
  // the seek entry points over the derived sync tables.
  const utcq::core::CorpusView view = reader.view();
  const utcq::core::UtcqDecoder decoder(Net(), view);
  const size_t n = std::min(view.num_trajectories(), kMaxTrajDecodes);
  std::vector<utcq::traj::Timestamp> window;
  utcq::core::UtcqDecoder::SeekStats seek;
  for (size_t j = 0; j < n; ++j) {
    const auto times = decoder.DecodeTimes(j);
    (void)decoder.DecodeTraj(j);
    if (!times.empty()) {
      (void)decoder.BracketTime(j, times[times.size() / 2], 0, times.front(),
                                view.meta(j).t_pos, &seek);
    }
    const auto last = static_cast<uint32_t>(view.meta(j).n_points);
    (void)decoder.DecodeRangeInto(j, last / 2, last, &window, &seek);
  }

  // Push queries through the full stack over the derived index.
  if (index != nullptr) {
    const utcq::core::UtcqQueryProcessor qp(Net(), view, *index);
    for (size_t j = 0; j < n; ++j) {
      (void)qp.Where(j, 43200, 0.25);
      (void)qp.When(j, 0, 0.5, 0.25);
    }
    // Range over the whole map and over its lower-left quarter, at times
    // that put tq in the day's first partition, at the last one, past
    // the day, and on the first partition of the coarse partition
    // holding mid-day at every layout level, so every level's rows run.
    const auto bbox = Net().bounding_box();
    const utcq::network::Rect whole{bbox.min_x, bbox.min_y, bbox.max_x,
                                    bbox.max_y};
    const utcq::network::Rect quarter{
        bbox.min_x, bbox.min_y, (bbox.min_x + bbox.max_x) / 2,
        (bbox.min_y + bbox.max_y) / 2};
    std::vector<utcq::traj::Timestamp> times = {-1, 0, 86399, 90000};
    size_t width = 1;  // partitions per partition of the level
    for (size_t level = 0; level < index->num_levels(); ++level) {
      times.push_back(static_cast<utcq::traj::Timestamp>(
                          index->num_partitions() / 2 / width * width) *
                      index->time_partition_s());
      width *= utcq::core::StiuIndex::kMaxCopies;
    }
    for (const utcq::traj::Timestamp tq : times) {
      (void)qp.Range(whole, tq, 0.25);
      (void)qp.Range(quarter, tq, 0.25);
    }
  }
  return 0;
}
