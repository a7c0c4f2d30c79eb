#include "core/utcq.h"

#include <sstream>

#include "common/stopwatch.h"

namespace utcq::core {

namespace {

double Ratio(uint64_t raw, uint64_t compressed) {
  if (compressed == 0) return 0.0;
  return static_cast<double>(raw) / static_cast<double>(compressed);
}

}  // namespace

CompressionReport MakeReport(const traj::ComponentSizes& raw,
                             const traj::ComponentSizes& compressed,
                             double seconds, size_t peak_memory) {
  CompressionReport r;
  // SV is folded into E on both sides (DESIGN.md §2).
  r.t = Ratio(raw.t_bits, compressed.t_bits);
  r.e = Ratio(raw.e_bits + raw.sv_bits, compressed.e_bits + compressed.sv_bits);
  r.d = Ratio(raw.d_bits, compressed.d_bits);
  r.tflag = Ratio(raw.tflag_bits, compressed.tflag_bits);
  r.p = Ratio(raw.p_bits, compressed.p_bits);
  r.raw_bits = raw.total();
  r.compressed_bits = compressed.total();
  r.total = Ratio(r.raw_bits, r.compressed_bits);
  r.seconds = seconds;
  r.peak_memory_bytes = peak_memory;
  return r;
}

UtcqSystem::UtcqSystem(const network::RoadNetwork& net,
                       const network::GridIndex& grid,
                       const traj::UncertainCorpus& corpus, UtcqParams params,
                       StiuParams index_params)
    : net_(net) {
  common::Stopwatch watch;
  UtcqCompressor compressor(net, params);
  compressed_ = compressor.Compress(corpus);
  const double seconds = watch.ElapsedSeconds();

  index_ = std::make_unique<StiuIndex>(grid, corpus, compressed_,
                                       index_params);
  queries_ = std::make_unique<UtcqQueryProcessor>(net, compressed_, *index_);

  report_ = MakeReport(traj::MeasureRawSize(net, corpus),
                       compressed_.compressed_bits(), seconds,
                       compressed_.peak_memory_bytes());
}

std::string FormatReport(const std::string& label,
                         const CompressionReport& report) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << label << "  Total=" << report.total << "  T=" << report.t
     << "  E=" << report.e << "  D=" << report.d << "  T'=" << report.tflag
     << "  p=" << report.p << "  time=" << report.seconds << "s"
     << "  peak_mem=" << report.peak_memory_bytes / 1024 << "KiB";
  return os.str();
}

}  // namespace utcq::core
