#include "telemetry/export.h"

#include <cstdio>
#include <filesystem>

#include "telemetry/events.h"
#include "telemetry/health.h"
#include "telemetry/scrape.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::telemetry {

bool write_bundle(const std::string& dir, std::string_view bench,
                  const Scraper* scraper, const HealthModel* health) {
  // An earlier export's manifest goes first, so a write that fails below
  // never leaves one describing a mix of old and new files.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) std::filesystem::remove(dir + "/manifest.json", ec);
  if (ec) return false;

  const auto write_file = [&dir](const char* name, const std::string& body) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  };
  // Each file is rendered and written in turn, so only one body is held.
  std::string listed;
  const auto put = [&](const char* name, const std::string& body) {
    if (!write_file(name, body)) return false;
    if (!listed.empty()) listed += ',';
    detail::append_json_escaped(listed, name);
    return true;
  };
  if (!put("trace.json", tracer().chrome_json() + "\n") ||
      !put("metrics.json", registry().metrics_json() + "\n")) {
    return false;
  }
#if TENET_TELEMETRY_ENABLED
  if (!put("events.jsonl", event_log().jsonl())) return false;
#else
  if (!put("events.jsonl", std::string())) return false;
#endif
  if (scraper != nullptr && !put("scrapes.jsonl", scraper->jsonl())) {
    return false;
  }
#if TENET_TELEMETRY_ENABLED
  const Scraper no_scrapes;
  if (health != nullptr &&
      !put("health.json",
           health->report_json(scraper != nullptr ? *scraper : no_scrapes,
                               event_log()))) {
    return false;
  }
#else
  (void)health;
#endif

  std::string manifest = "{\"bench\":";
  detail::append_json_escaped(manifest, bench);
  manifest += TENET_TELEMETRY_ENABLED ? ",\"telemetry\":true"
                                      : ",\"telemetry\":false";
#ifdef NDEBUG
  manifest += ",\"ndebug\":true";
#else
  manifest += ",\"ndebug\":false";
#endif
  manifest += ",\"files\":[" + listed + "]}\n";
  return write_file("manifest.json", manifest);
}

}  // namespace tenet::telemetry
