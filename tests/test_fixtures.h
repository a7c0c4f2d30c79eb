#ifndef UTCQ_TESTS_TEST_FIXTURES_H_
#define UTCQ_TESTS_TEST_FIXTURES_H_

// Shared construction of the tiny test networks and corpora every suite
// runs on, deduplicating the per-file copies that used to live in
// tests/*_test.cc. All randomness routes through common::Rng with explicit
// seeds; randomized suites obtain their base seed from test::BaseSeed so a
// failure is reproducible with `<test> --seed=N` (or UTCQ_SEED=N).

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "network/generator.h"
#include "network/road_network.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "traj/types.h"

namespace utcq::test {

/// Every suite's network derives from this seed so fixtures across files
/// agree on the map they test against.
inline constexpr uint64_t kNetworkSeed = 100;

/// The small perturbed-grid city used by the cross-layer suites: the
/// profile's city parameters shrunk to `side` x `side` blocks, generated
/// deterministically from `seed`.
inline network::RoadNetwork MakeSmallCity(const traj::DatasetProfile& profile,
                                          uint32_t side = 14,
                                          uint64_t seed = kNetworkSeed) {
  common::Rng net_rng(seed);
  network::CityParams small = profile.city;
  small.rows = side;
  small.cols = side;
  return network::GenerateCity(net_rng, small);
}

/// A profile-shaped corpus over `net`, deterministic in `seed`.
inline traj::UncertainCorpus MakeSmallCorpus(
    const network::RoadNetwork& net, const traj::DatasetProfile& profile,
    uint64_t seed, size_t count) {
  traj::UncertainTrajectoryGenerator gen(net, profile, seed);
  return gen.GenerateCorpus(count);
}

namespace internal {
/// 0 means "no override"; randomized suites treat any non-zero value as
/// the base seed to rerun with.
inline uint64_t seed_override = 0;
}  // namespace internal

/// Called by test mains that accept --seed=N on the command line.
inline void SetSeedOverride(uint64_t seed) { internal::seed_override = seed; }

/// Base seed for a randomized suite: --seed=N (via SetSeedOverride) wins,
/// then the UTCQ_SEED environment variable, then `fallback`. Failure
/// messages should echo the value so any run is reproducible.
inline uint64_t BaseSeed(uint64_t fallback) {
  if (internal::seed_override != 0) return internal::seed_override;
  if (const char* env = std::getenv("UTCQ_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v != 0) return static_cast<uint64_t>(v);
  }
  return fallback;
}

}  // namespace utcq::test

#endif  // UTCQ_TESTS_TEST_FIXTURES_H_
