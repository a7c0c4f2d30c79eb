#ifndef UTCQ_CORE_UTCQ_H_
#define UTCQ_CORE_UTCQ_H_

#include <memory>
#include <string>

#include "core/decoder.h"
#include "core/encoder.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "network/grid_index.h"

namespace utcq::core {

/// Per-component and total compression ratios (Table 8 layout).
struct CompressionReport {
  double total = 0.0;
  double t = 0.0;
  double e = 0.0;
  double d = 0.0;
  double tflag = 0.0;
  double p = 0.0;
  uint64_t raw_bits = 0;
  uint64_t compressed_bits = 0;
  double seconds = 0.0;
  size_t peak_memory_bytes = 0;
};

CompressionReport MakeReport(const traj::ComponentSizes& raw,
                             const traj::ComponentSizes& compressed,
                             double seconds, size_t peak_memory);

/// One-stop UTCQ pipeline: compression, StIU construction, and the three
/// probabilistic query types, bundled behind the public API the examples
/// and tests use.
class UtcqSystem {
 public:
  /// Compresses `corpus` and builds the StIU index.
  /// The grid index must outlive the system.
  UtcqSystem(const network::RoadNetwork& net, const network::GridIndex& grid,
             const traj::UncertainCorpus& corpus, UtcqParams params,
             StiuParams index_params);

  const CompressedCorpus& compressed() const { return compressed_; }
  const StiuIndex& index() const { return *index_; }
  const UtcqQueryProcessor& queries() const { return *queries_; }
  UtcqDecoder decoder() const { return UtcqDecoder(net_, compressed_); }

  const CompressionReport& report() const { return report_; }
  size_t index_size_bytes() const { return index_->SizeBytes(); }

 private:
  const network::RoadNetwork& net_;
  CompressedCorpus compressed_;
  std::unique_ptr<StiuIndex> index_;
  std::unique_ptr<UtcqQueryProcessor> queries_;
  CompressionReport report_;
};

/// Formats a report as the Table 8 row layout (for the examples).
std::string FormatReport(const std::string& label,
                         const CompressionReport& report);

}  // namespace utcq::core

#endif  // UTCQ_CORE_UTCQ_H_
