#ifndef UTCQ_VERIFY_PLAIN_QUERY_H_
#define UTCQ_VERIFY_PLAIN_QUERY_H_

#include <vector>

#include "network/geometry.h"
#include "network/road_network.h"
#include "traj/query_types.h"
#include "traj/types.h"

namespace utcq::verify {

/// Reference query engine on the *uncompressed* corpus with exact
/// probabilities. Ground truth for correctness tests and for Fig. 11's
/// accuracy metrics (average difference, F1).
class PlainQueryEngine {
 public:
  PlainQueryEngine(const network::RoadNetwork& net,
                   const traj::UncertainCorpus& corpus)
      : net_(net), corpus_(corpus) {}

  std::vector<traj::WhereHit> Where(size_t traj_idx, traj::Timestamp t,
                                    double alpha) const;

  std::vector<traj::WhenHit> When(size_t traj_idx, network::EdgeId edge,
                                  double rd, double alpha) const;

  traj::RangeResult Range(const network::Rect& region, traj::Timestamp tq,
                          double alpha) const;

 private:
  const network::RoadNetwork& net_;
  const traj::UncertainCorpus& corpus_;
};

}  // namespace utcq::verify

#endif  // UTCQ_VERIFY_PLAIN_QUERY_H_
