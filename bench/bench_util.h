// Shared helpers for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation. Output convention: a header naming the experiment, the
// paper's reported numbers where applicable, and our measured/modeled
// series — so paper-vs-measured can be read directly from the bench
// logs. Gated ratios go to BENCH_*.json, checked against the floors in
// bench/baselines/ by bench/check_regression.py.
//
// Where the paper's number comes from 100G hardware, benches report the
// *modeled-hardware* rate (NIC message-rate / link arithmetic driven by
// measured aggregation behaviour) next to the *software* rate the
// simulation itself sustained on this machine.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "dta/report_builders.h"
#include "dta/wire.h"

namespace dta::benchutil {

// Bench-side alias for the DTA_TEST_SEED override (logged once): benches
// seed their generators through this so a flaky run is reproducible.
inline std::uint64_t seed(std::uint64_t preferred) {
  return common::test_seed(preferred);
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", claim);
  std::printf("==================================================================\n");
}

// Human-readable engineering notation (19.0M, 1.6B, 950K).
inline std::string eng(double value) {
  char buf[32];
  if (value >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fB", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", value / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", value);
  }
  return buf;
}

// Deterministic key generator matching the uniform-hashing assumption of
// the paper's analysis (real 5-tuples look random; see
// tests/property_test). One definition for benches and tests alike —
// the shared typed builders own it now.
using reports::mixed_key;

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dta::benchutil
