/**
 * @file
 * Renderers for finished RequestTraces: Chrome trace-event JSON for
 * chrome://tracing / Perfetto, and a compact indented-text tree for
 * the serve layer's `trace` verb and terminal inspection.
 */

#ifndef CACHEMIND_OBS_TRACE_EXPORT_HH
#define CACHEMIND_OBS_TRACE_EXPORT_HH

#include <string>

namespace cachemind::obs {

class RequestTrace;

/**
 * Chrome trace-event JSON: an object with a "traceEvents" array of
 * complete ("ph":"X") events, timestamps and durations in
 * microseconds, annotations in each event's "args". Loadable directly
 * in chrome://tracing or ui.perfetto.dev.
 */
std::string toChromeJson(const RequestTrace &trace);

/**
 * Compact indented span tree, one span per line:
 *
 *     [req-7 outcome=done]
 *     ask (12.4ms)
 *       parse (0.1ms)
 *       retrieve (9.8ms) cache=hot_hit
 *         section:overview (3.2ms)
 *
 * With include_timing=false the duration column is omitted, leaving
 * only the deterministic shape (names, nesting, annotations) — the
 * form the tests compare between blocking and streamed asks.
 */
std::string toText(const RequestTrace &trace, bool include_timing = true);

/**
 * Write toChromeJson(trace) into `dir` as
 * `trace_<sanitized-request-id>_<start-ns>.json`. Returns false (and
 * fills `error` when non-null) if the file cannot be written; the
 * directory must already exist.
 */
bool exportToDir(const RequestTrace &trace, const std::string &dir,
                 std::string *path_out = nullptr,
                 std::string *error = nullptr);

} // namespace cachemind::obs

#endif // CACHEMIND_OBS_TRACE_EXPORT_HH
