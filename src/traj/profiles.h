#ifndef UTCQ_TRAJ_PROFILES_H_
#define UTCQ_TRAJ_PROFILES_H_

#include <string>
#include <vector>

#include "network/generator.h"

namespace utcq::traj {

/// Distribution of |actual - default| sample-interval deviations, with the
/// paper's Fig. 4a buckets: 0 s, 1 s, (1,50] s, (50,100] s, > 100 s.
struct IntervalDeviationMix {
  double zero = 0.0;
  double one = 0.0;
  double upto_50 = 0.0;
  double upto_100 = 0.0;
  double beyond_100 = 0.0;
};

/// Statistical profile of one of the paper's datasets (Tables 5-6, Fig. 4).
/// The workload generator consumes a profile and emits a synthetic corpus
/// whose statistics match it; integration_test's StatisticsMatchPaperShape
/// verifies the match.
struct DatasetProfile {
  std::string name;

  // --- temporal (Table 5 + Fig. 4a) ---
  int default_interval_s = 10;  // Ts
  IntervalDeviationMix deviations;

  // --- sizes (Table 5) ---
  double mean_instances = 3.0;  // instances per uncertain trajectory
  int min_instances = 2;
  int max_instances = 64;
  double mean_edges = 11.0;  // path edges per trajectory
  int min_edges = 2;
  int max_edges = 160;

  // --- instance diversity (Fig. 4b) ---
  double mutation_rate = 1.6;      // expected mutations per non-true instance
  double rd_grid_fraction = 0.35;  // fraction of rds snapped to k/8 grid

  // --- network (Table 6, scaled) ---
  network::CityParams city;

  // --- map matching noise ---
  double gps_noise_m = 18.0;

  // --- default error bounds (Section 6.1) ---
  double eta_d = 1.0 / 128.0;
  double eta_p = 1.0 / 512.0;
};

/// Denmark: 1 s default interval, 93% of deviations <= 1 s, avg 9 instances,
/// avg 14 edges; sparse country-scale network (highest out-degree variance).
DatasetProfile DenmarkProfile();

/// Chengdu: 10 s interval, 62% deviations <= 1 s, avg 3 instances, avg 11
/// edges; dense urban grid.
DatasetProfile ChengduProfile();

/// Hangzhou: 20 s interval, 54% deviations <= 1 s, avg 13 instances
/// (largest), avg 13 edges; eta_p defaults to 1/2048 as in the paper.
DatasetProfile HangzhouProfile();

/// All three, in paper order.
std::vector<DatasetProfile> AllProfiles();

}  // namespace utcq::traj

#endif  // UTCQ_TRAJ_PROFILES_H_
