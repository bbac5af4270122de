// Simulated time.
//
// All simulator timestamps are signed 64-bit nanosecond counts from the
// start of the run.  Helpers build durations readably; `to_ms`/`to_sec`
// convert for reporting (the paper reports milliseconds everywhere).
#pragma once

#include <cstdint>

namespace cicero::sim {

using SimTime = std::int64_t;  // nanoseconds

constexpr SimTime kNever = INT64_MAX;

constexpr SimTime nanoseconds(std::int64_t n) { return n; }
constexpr SimTime microseconds(std::int64_t n) { return n * 1000; }
constexpr SimTime milliseconds(std::int64_t n) { return n * 1000000; }
constexpr SimTime seconds(std::int64_t n) { return n * 1000000000; }

/// Fractional-second constructor (workloads express horizons as doubles).
constexpr SimTime from_sec(double s) { return static_cast<SimTime>(s * 1e9); }

constexpr double to_ms(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double to_sec(SimTime t) { return static_cast<double>(t) / 1e9; }

}  // namespace cicero::sim
