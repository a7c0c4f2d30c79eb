#ifndef UTCQ_TED_TED_QUERY_H_
#define UTCQ_TED_TED_QUERY_H_

#include <utility>
#include <vector>

#include "network/geometry.h"
#include "ted/ted_compress.h"
#include "ted/ted_index.h"
#include "traj/query_types.h"

namespace utcq::ted {

/// Probabilistic query processing on the TED baseline. The index narrows
/// candidates; every surviving instance is then *fully* decoded and
/// evaluated (the baseline has neither the probability aggregates of StIU
/// nor referential partial decompression, which is where UTCQ's query-time
/// advantage comes from). Consumes the immutable TedCorpusView; a live
/// TedCompressed converts implicitly.
class TedQueryProcessor {
 public:
  TedQueryProcessor(const network::RoadNetwork& net, TedCorpusView compressed,
                    const TedIndex& index)
      : net_(net), compressed_(std::move(compressed)), index_(index) {}

  /// where(Tu^j, t, alpha): positions at `t` of instances with p >= alpha.
  std::vector<traj::WhereHit> Where(size_t traj_idx, traj::Timestamp t,
                                    double alpha) const;

  /// when(Tu^j, <edge, rd>, alpha).
  std::vector<traj::WhenHit> When(size_t traj_idx, network::EdgeId edge,
                                  double rd, double alpha) const;

  /// range(Tu, RE, tq, alpha) over the whole corpus.
  traj::RangeResult Range(const network::Rect& region, traj::Timestamp tq,
                          double alpha) const;

 private:
  const network::RoadNetwork& net_;
  TedCorpusView compressed_;
  const TedIndex& index_;
};

}  // namespace utcq::ted

#endif  // UTCQ_TED_TED_QUERY_H_
