#include "telemetry/scrape.h"

namespace tenet::telemetry {

void Scraper::scrape(uint64_t ts_us) {
  Sample s;
  s.seq = total_;
  s.ts_us = ts_us;
  const Registry& reg = registry();
  s.counters.reserve(reg.counters().size());
  for (const auto& [name, c] : reg.counters()) {
    s.counters.emplace_back(name, c->value());
  }
  s.gauges.reserve(reg.gauges().size());
  for (const auto& [name, g] : reg.gauges()) {
    s.gauges.emplace_back(name, std::make_pair(g->value(), g->max_value()));
  }
  s.histograms.reserve(reg.histograms().size());
  for (const auto& [name, h] : reg.histograms()) {
    s.histograms.emplace_back(name, *h);
  }
  samples_.push_back(std::move(s));
  ++total_;
  while (samples_.size() > capacity_) samples_.pop_front();
}

std::string Scraper::jsonl() const {
  std::string out;
  for (const Sample& s : samples_) {
    out += "{\"seq\":";
    out += std::to_string(s.seq);
    out += ",\"ts_us\":";
    out += std::to_string(s.ts_us);
    out += ",\"metrics\":{\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : s.counters) {
      if (!first) out += ',';
      first = false;
      detail::append_json_escaped(out, name);
      out += ':';
      out += std::to_string(v);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : s.gauges) {
      if (!first) out += ',';
      first = false;
      detail::append_json_escaped(out, name);
      out += ":{\"value\":";
      out += std::to_string(g.first);
      out += ",\"max\":";
      out += std::to_string(g.second);
      out += '}';
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : s.histograms) {
      if (!first) out += ',';
      first = false;
      detail::append_json_escaped(out, name);
      out += ':';
      out += detail::histogram_json(h);
    }
    out += "}}}\n";
  }
  return out;
}

}  // namespace tenet::telemetry
