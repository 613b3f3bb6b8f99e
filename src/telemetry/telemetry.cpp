#include "telemetry/telemetry.h"

#include <cstdio>

namespace tenet::telemetry {

namespace detail {

/// Appends a JSON-escaped string (instrument names are plain identifiers
/// today, but exports must stay valid JSON regardless).
void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
}

/// Renders one histogram as the flat-JSON object used by metrics_json()
/// and the scraper samples.
std::string histogram_json(const Histogram& h) {
  std::string v = "{\"count\":" + std::to_string(h.count()) +
                  ",\"sum\":" + std::to_string(h.sum()) +
                  ",\"min\":" + std::to_string(h.min()) +
                  ",\"max\":" + std::to_string(h.max()) +
                  ",\"p50\":" + std::to_string(h.quantile(0.50)) +
                  ",\"p90\":" + std::to_string(h.quantile(0.90)) +
                  ",\"p99\":" + std::to_string(h.quantile(0.99)) +
                  ",\"buckets\":{";
  // Sparse bucket map: {"floor": count} for non-empty buckets only.
  bool first = true;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) v += ',';
    first = false;
    v += '"' + std::to_string(Histogram::bucket_floor(i)) +
         "\":" + std::to_string(h.bucket(i));
  }
  v += "}}";
  return v;
}

}  // namespace detail

namespace {

void append_json_string(std::string& out, std::string_view s) {
  detail::append_json_escaped(out, s);
}

template <typename Map, typename Fn>
void append_json_section(std::string& out, const char* key, const Map& map,
                         Fn&& value_of) {
  append_json_string(out, key);
  out += ":{";
  bool first = true;
  for (const auto& [name, instrument] : map) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += value_of(*instrument);
  }
  out += '}';
}

}  // namespace

uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 0-based target rank in the sorted sample sequence.
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t in_bucket = buckets_[i];
    if (rank < static_cast<double>(below + in_bucket)) {
      // Interpolate linearly across the bucket's value range [lo, hi].
      const double lo = static_cast<double>(bucket_floor(i));
      const double hi =
          i == 0 ? 0.0 : static_cast<double>(bucket_floor(i)) * 2.0 - 1.0;
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
      double est = lo + frac * (hi - lo);
      // The observed extremes bound every sample; clamping sharpens the
      // estimate for buckets that only contain min or max.
      const double mn = static_cast<double>(min());
      const double mx = static_cast<double>(max());
      if (est < mn) est = mn;
      if (est > mx) est = mx;
      return static_cast<uint64_t>(est + 0.5);
    }
    below += in_bucket;
  }
  return max();
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void Registry::reset_values() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::metrics_json() const {
  std::string out = "{";
  append_json_section(out, "counters", counters_, [](const Counter& c) {
    return std::to_string(c.value());
  });
  out += ',';
  append_json_section(out, "gauges", gauges_, [](const Gauge& g) {
    return "{\"value\":" + std::to_string(g.value()) +
           ",\"max\":" + std::to_string(g.max_value()) + "}";
  });
  out += ',';
  append_json_section(out, "histograms", histograms_, [](const Histogram& h) {
    return detail::histogram_json(h);
  });
  out += '}';
  return out;
}

Registry& registry() {
  static Registry* r = new Registry();  // leaked: sites cache references
  return *r;
}

}  // namespace tenet::telemetry
