// The export bundle: everything one run hands to tools/analyze.py, written
// by one function into one directory.
//
//   DIR/trace.json     Tracer::chrome_json() — chrome://tracing, Perfetto
//   DIR/metrics.json   Registry::metrics_json()
//   DIR/events.jsonl   EventLog::jsonl() (empty with telemetry compiled out)
//   DIR/scrapes.jsonl  Scraper::jsonl(), when a scraper is passed
//   DIR/health.json    HealthModel::report_json(), when a model is passed
//   DIR/manifest.json  written last: the producing bench, the build flavour
//                      and the files this export wrote, e.g.
//                      {"bench":"bench_x","telemetry":true,"ndebug":true,
//                       "files":["trace.json","metrics.json","events.jsonl"]}
//
// Callers pass the objects; file names and formats are decided here only.
// A file left in DIR by an earlier export is not listed, so the analyzer
// reads exactly this run's artifacts.
#pragma once

#include <string>
#include <string_view>

namespace tenet::telemetry {

class Scraper;
class HealthModel;  // defined only when telemetry is compiled in

/// Writes the bundle for the process-wide tracer, registry and event log
/// into `dir` (created if missing). `health` is evaluated over `scraper`
/// (an empty one when null) and the event log. Returns false on the first
/// I/O error; `dir` then holds no manifest, not even an earlier export's.
bool write_bundle(const std::string& dir, std::string_view bench,
                  const Scraper* scraper = nullptr,
                  const HealthModel* health = nullptr);

}  // namespace tenet::telemetry
