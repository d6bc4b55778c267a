// Metric report for bench_e2e: prints `name value unit` lines and writes
// BENCH_<workload>.json with the run's context and the sample count behind
// every percentile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace meloppr::bench_e2e {

/// Percentiles need this many samples strictly beyond their rank before
/// they are reported at all.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (p in (0, 100]) of `values`: the smallest value
/// with at least p% of the samples at or below it. nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond that rank, so a p99 over 150
/// samples is never reported as if it were one.
inline std::optional<double> percentile(std::vector<double> values, double p) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t clamped = std::clamp<std::size_t>(rank, 1, n);
  if (n - clamped < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (clamped - 1),
                   values.end());
  return values[clamped - 1];
}

/// Median of repeats or chunks (the middle element; the lower middle for an
/// even count). Not a tail percentile, so no sample-count floor.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() +
                   static_cast<std::ptrdiff_t>((values.size() - 1) / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// How a number was obtained. Modeled device seconds never share a field
/// with wall-clock ones.
enum class Kind { kMeasured, kModeled, kCount, kNotApplicable };

inline const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kMeasured:
      return "measured";
    case Kind::kModeled:
      return "modeled";
    case Kind::kCount:
      return "count";
    case Kind::kNotApplicable:
      return "n/a";
  }
  return "unknown";
}

/// Formats a double with every significant digit (JSON-safe; non-finite
/// values become null).
inline std::string full_digits(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class MetricReport {
 public:
  struct Metric {
    std::string name;
    std::optional<double> value;
    std::string unit;
    Kind kind = Kind::kMeasured;
    /// Samples behind the value (0 = not a sampled statistic).
    std::size_t samples = 0;
  };

  void add(std::string name, std::optional<double> value, std::string unit,
           Kind kind = Kind::kMeasured, std::size_t samples = 0) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), kind, samples});
  }
  /// A metric of a layer this workload does not run: reported as 0 so
  /// every workload prints the same names.
  void add_na(std::string name, std::string unit) {
    add(std::move(name), 0.0, std::move(unit), Kind::kNotApplicable);
  }
  /// Records a context field written verbatim into the JSON "info" object
  /// (`json_value` must already be valid JSON).
  void info(std::string key, std::string json_value) {
    info_.emplace_back(std::move(key), std::move(json_value));
  }
  void info_string(std::string key, const std::string& value) {
    info(std::move(key), "\"" + json_escape(value) + "\"");
  }

  /// One `name value unit` line per metric; unsupported percentiles print
  /// "-" with the sample count that fell short.
  void print(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      os << m.name << ' '
         << (m.value.has_value() ? full_digits(*m.value) : std::string("-"))
         << ' ' << m.unit;
      if (m.samples != 0) os << "  (n=" << m.samples << ')';
      if (m.kind != Kind::kMeasured) os << "  [" << to_string(m.kind) << ']';
      os << '\n';
    }
  }

  void write_json(std::ostream& os) const {
    os << "{\n  \"info\": {";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(info_[i].first)
         << "\": " << info_[i].second;
    }
    os << "\n  },\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(m.name)
         << "\": {\"value\": "
         << (m.value.has_value() ? full_digits(*m.value) : "null")
         << ", \"unit\": \"" << json_escape(m.unit) << "\", \"kind\": \""
         << to_string(m.kind) << "\", \"samples\": " << m.samples << "}";
    }
    os << "\n  }\n}\n";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace meloppr::bench_e2e
