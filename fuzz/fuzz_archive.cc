// Fuzz target: the §6 container decoder and everything a hostile archive
// can reach behind it — header/section/CRC validation, meta bounds, the
// SIAR / Exp-Golomb / PDDP bitstream walks, referential expansion and
// instance reconstruction, and the StIU tuple deserialization. An input
// that opens must decode without crashing, hanging or reading out of
// bounds; answers are free to be empty.
//
// Build flavors (CMake UTCQ_BUILD_FUZZERS): with Clang this links
// libFuzzer; elsewhere fuzz/standalone_main.cc replays corpus files.
// Seed corpus: fuzz/make_seed_corpus.cc writes archives from real saves.

#include <cstdint>
#include <cstddef>
#include <memory>
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
  utcq::archive::DecodeArchive(data, size, &payload, &error);

  utcq::archive::ArchiveReader reader;
  if (!reader.OpenBytes(std::vector<uint8_t>(data, data + size), &error)) {
    return 0;
  }

  // The archive passed validation: everything reachable from it must now
  // be total. Decode a bounded number of trajectories in full, then drive
  // the v3 seek entry points — a validated-but-hostile sync table must
  // yield a clean bracket or nothing, never an out-of-bounds bit walk.
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

  // Reload the StIU tuples and push a query through the full stack.
  if (reader.has_index() && reader.index_cells_per_side() > 0 &&
      reader.index_cells_per_side() <= kMaxIndexCells) {
    const utcq::network::GridIndex grid(Net(), reader.index_cells_per_side());
    const auto index = reader.LoadIndex(grid, &error);
    if (index != nullptr) {
      const utcq::core::UtcqQueryProcessor qp(Net(), view, *index);
      for (size_t j = 0; j < n; ++j) {
        (void)qp.Where(j, 43200, 0.25);
        (void)qp.When(j, 0, 0.5, 0.25);
      }
      // Range over the whole map and over its lower-left quarter, at times
      // that put the live bucket window at the day's first partition, on a
      // partition boundary, at the last partition and past the day, so
      // the bucket directory and the max_span window edges run on
      // whatever partition lists the section crafted.
      const auto bbox = Net().bounding_box();
      const utcq::network::Rect whole{bbox.min_x, bbox.min_y, bbox.max_x,
                                      bbox.max_y};
      const utcq::network::Rect quarter{
          bbox.min_x, bbox.min_y, (bbox.min_x + bbox.max_x) / 2,
          (bbox.min_y + bbox.max_y) / 2};
      const utcq::traj::Timestamp boundary =
          static_cast<utcq::traj::Timestamp>(index->num_partitions() / 2) *
          index->time_partition_s();
      for (const utcq::traj::Timestamp tq :
           {utcq::traj::Timestamp{-1}, utcq::traj::Timestamp{0}, boundary,
            utcq::traj::Timestamp{86399}, utcq::traj::Timestamp{90000}}) {
        (void)qp.Range(whole, tq, 0.25);
        (void)qp.Range(quarter, tq, 0.25);
      }
    }
  }
  return 0;
}
