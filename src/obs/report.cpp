#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace cicero::obs {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void RunReport::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, json_string(value));
}

void RunReport::set_meta(const std::string& key, std::int64_t value) {
  meta_.emplace_back(key, std::to_string(value));
}

void RunReport::add_metrics(const MetricsRegistry& registry, const std::string& prefix) {
  for (const auto& [name, cell] : registry.counters()) counters_[prefix + name] = *cell;
  for (const auto& [name, cell] : registry.gauges()) gauges_[prefix + name] = *cell;
  for (const auto& [name, cell] : registry.histograms()) histograms_[prefix + name] = *cell;
}

void RunReport::add_crypto_ops(const CryptoOpCounters& ops, const std::string& prefix) {
  const std::string base = prefix + "crypto.ops.";
  counters_[base + "schnorr_sign"] = ops.schnorr_sign;
  counters_[base + "schnorr_verify"] = ops.schnorr_verify;
  counters_[base + "partial_sign"] = ops.partial_sign;
  counters_[base + "partial_verify"] = ops.partial_verify;
  counters_[base + "aggregate"] = ops.aggregate;
  counters_[base + "threshold_verify"] = ops.threshold_verify;
  counters_[base + "frost_sign"] = ops.frost_sign;
  counters_[base + "frost_aggregate"] = ops.frost_aggregate;
  counters_[base + "frost_verify"] = ops.frost_verify;
  counters_[base + "sha256_hashes"] = ops.sha256_hashes;
  counters_[base + "sha256_blocks"] = ops.sha256_blocks;
}

void RunReport::add_cdf(const std::string& name, const util::CdfCollector& cdf,
                        const std::string& unit, std::size_t series_points) {
  CdfEntry e;
  e.unit = unit;
  e.n = cdf.count();
  if (!cdf.empty()) {
    e.mean = cdf.mean();
    e.min = cdf.min();
    e.max = cdf.max();
    e.p50 = cdf.quantile(0.5);
    e.p90 = cdf.quantile(0.9);
    e.p99 = cdf.quantile(0.99);
    e.series = cdf.cdf_series(series_points);
  }
  cdfs_[name] = std::move(e);
}

void RunReport::add_critical_path(const std::string& slug, const CritPath::Summary& summary) {
  critical_paths_[slug] = summary;
}

void RunReport::add_shards(const std::string& slug, std::vector<ShardTelemetryEntry> shards) {
  shards_[slug] = std::move(shards);
}

void RunReport::write(std::ostream& out) const {
  out << "{\n  \"schema\": " << json_string(kRunReportSchema) << ",\n";
  out << "  \"experiment\": " << json_string(experiment_) << ",\n";

  out << "  \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    out << (i != 0 ? ", " : "") << json_string(meta_[i].first) << ": " << meta_[i].second;
  }
  out << "},\n";

  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "" : ", ") << "\n    " << json_string(name) << ": " << v;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out << (first ? "" : ", ") << "\n    " << json_string(name) << ": " << json_number(v);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "" : ",") << "\n    " << json_string(name) << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      out << (i != 0 ? "," : "") << json_number(h.bounds[i]);
    }
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out << (i != 0 ? "," : "") << h.counts[i];
    }
    out << "], \"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
        << ", \"min\": " << json_number(h.min) << ", \"max\": " << json_number(h.max) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"cdfs\": {";
  first = true;
  for (const auto& [name, e] : cdfs_) {
    out << (first ? "" : ",") << "\n    " << json_string(name) << ": {\"unit\": "
        << json_string(e.unit) << ", \"n\": " << e.n << ", \"mean\": " << json_number(e.mean)
        << ", \"min\": " << json_number(e.min) << ", \"max\": " << json_number(e.max)
        << ", \"p50\": " << json_number(e.p50) << ", \"p90\": " << json_number(e.p90)
        << ", \"p99\": " << json_number(e.p99) << ", \"series\": [";
    for (std::size_t i = 0; i < e.series.size(); ++i) {
      out << (i != 0 ? "," : "") << '[' << json_number(e.series[i].first) << ','
          << json_number(e.series[i].second) << ']';
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  // Both sections iterate std::map keys and the fixed phase enum order,
  // so their serialization is placement-independent like the rest.
  out << "  \"critical_path\": {";
  first = true;
  for (const auto& [slug, s] : critical_paths_) {
    out << (first ? "" : ",") << "\n    " << json_string(slug) << ": {\"updates\": "
        << s.completed << ", \"incomplete\": " << s.incomplete
        << ", \"end_to_end\": {\"total_ms\": " << json_number(s.end_to_end_total_ms)
        << ", \"p50_ms\": " << json_number(s.end_to_end_p50_ms)
        << ", \"p99_ms\": " << json_number(s.end_to_end_p99_ms)
        << "}, \"attributed\": {\"min\": " << json_number(s.attributed_min)
        << ", \"mean\": " << json_number(s.attributed_mean) << "},\n      \"phases\": {";
    for (std::size_t i = 0; i < kCritPhaseCount; ++i) {
      const CritPath::PhaseSummary& p = s.phases[i];
      out << (i != 0 ? ", " : "") << "\n        "
          << json_string(crit_phase_name(static_cast<CritPhase>(i)))
          << ": {\"total_ms\": " << json_number(p.total_ms) << ", \"p50_ms\": "
          << json_number(p.p50_ms) << ", \"p99_ms\": " << json_number(p.p99_ms)
          << ", \"bytes\": " << p.bytes << "}";
    }
    out << "},\n      \"slowest\": [";
    for (std::size_t i = 0; i < s.slowest.size(); ++i) {
      const CritPath::SlowUpdate& u = s.slowest[i];
      out << (i != 0 ? ", " : "") << "\n        {\"update\": " << u.id
          << ", \"total_ms\": " << json_number(u.total_ms) << ", \"phases\": {";
      for (std::size_t j = 0; j < kCritPhaseCount; ++j) {
        out << (j != 0 ? ", " : "") << json_string(crit_phase_name(static_cast<CritPhase>(j)))
            << ": " << json_number(u.phase_ms[j]);
      }
      out << "}}";
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"shards\": {";
  first = true;
  for (const auto& [slug, rows] : shards_) {
    out << (first ? "" : ",") << "\n    " << json_string(slug) << ": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ShardTelemetryEntry& r = rows[i];
      out << (i != 0 ? ", " : "") << "\n      {\"shard\": " << r.shard << ", \"windows\": "
          << r.windows << ", \"events\": " << r.events << ", \"stall_windows\": "
          << r.stall_windows << ", \"posts_in\": " << r.posts_in << ", \"posts_out\": "
          << r.posts_out << ", \"barrier_wait_sec\": " << json_number(r.barrier_wait_sec)
          << "}";
    }
    out << "]";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

bool RunReport::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write(f);
  return static_cast<bool>(f);
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

}  // namespace cicero::obs
