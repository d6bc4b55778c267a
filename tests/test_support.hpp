// Shared plumbing for the randomized / property / stress suites.
//
// Reproducibility contract: every randomized test derives its RNG from
// test_seed(), which resolves (in priority order) the `--seed N` /
// `--seed=N` flag of the test binary, the MELOPPR_TEST_SEED environment
// variable, and a fixed default — so CI and local runs are deterministic
// by default, and any failure replays locally with one copy-pasted flag
// (run_all_tests() prints the reproduction line when a suite fails).
//
// stress_iters() lets heavyweight loops shrink under instrumentation:
// the ThreadSanitizer CI job sets MELOPPR_STRESS_ITERS to cap iteration
// counts (TSan costs ~5-15x in time and ~5x in memory), while uncapped
// runs keep the full counts.
//
// A test binary opts in by defining its own main (the linker then skips
// gtest_main's):
//
//   int main(int argc, char** argv) {
//     return meloppr::test::run_all_tests(argc, argv);
//   }
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <span>

#include "ppr/types.hpp"
#include "util/env.hpp"

namespace meloppr::test {

inline std::uint64_t& seed_slot() {
  static std::uint64_t seed = static_cast<std::uint64_t>(
      env_int("MELOPPR_TEST_SEED", 0x5eed));
  return seed;
}

/// Base seed for every randomized test in the binary.
inline std::uint64_t test_seed() { return seed_slot(); }

/// Caps a stress-loop iteration count via MELOPPR_STRESS_ITERS (unset or
/// non-positive → the suite's full default).
inline std::size_t stress_iters(std::size_t dflt) {
  const std::int64_t cap = env_int("MELOPPR_STRESS_ITERS", 0);
  if (cap <= 0) return dflt;
  return std::min(dflt, static_cast<std::size_t>(cap));
}

/// An aggregator's score table (ExactAggregator::scores()) keyed by node,
/// for tests that look nodes up.
inline std::map<graph::NodeId, double> score_map(
    std::span<const ppr::ScoredNode> scores) {
  std::map<graph::NodeId, double> out;
  for (const ppr::ScoredNode& sn : scores) out.emplace(sn.node, sn.score);
  return out;
}

/// InitGoogleTest + `--seed` parsing + RUN_ALL_TESTS, printing the
/// reproduction line when anything failed.
inline int run_all_tests(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed_slot() = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed_slot() = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  const int rc = RUN_ALL_TESTS();
  if (rc != 0) {
    std::cerr << "\nreproduce locally with: " << argv[0]
              << " --seed=" << test_seed()
              << "  (or MELOPPR_TEST_SEED=" << test_seed() << ")\n";
  }
  return rc;
}

}  // namespace meloppr::test
