#include "serve/protocol.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "base/str.hh"
#include "core/cachemind.hh"

namespace cachemind::serve {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** A finite `v` as a JSON number that parses back to exactly `v`. */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * `s` as a number, if JSON's number grammar spells it: str::parseDouble
 * alone also takes spaces, a trailing '%', hex floats and text after an
 * embedded NUL.
 */
std::optional<double>
parseJsonNumber(const std::string &s)
{
    std::size_t i = 0;
    // Consume one character of `set` at i, if there is one.
    const auto take = [&](const char *set) {
        const bool hit = i < s.size() && s[i] != '\0' &&
                         std::strchr(set, s[i]) != nullptr;
        i += hit;
        return hit;
    };
    const auto digits = [&] {
        const std::size_t from = i;
        while (take("0123456789")) {
        }
        return i > from;
    };
    take("-");
    bool ok = take("0") || digits();
    if (take("."))
        ok = ok && digits();
    if (take("eE")) {
        take("+-");
        ok = ok && digits();
    }
    if (!ok || i != s.size())
        return std::nullopt;
    return str::parseDouble(s);
}

/** Cursor over one protocol line (no JSON library dependency). */
struct Scanner
{
    const std::string &s;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    peekIs(char c)
    {
        skipWs();
        return pos < s.size() && s[pos] == c;
    }

    /** Decode a JSON string literal (cursor on the opening quote). */
    bool
    string(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                return false;
            const char esc = s[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    return false;
                const auto code =
                    str::parseHex(s.substr(pos, 4));
                if (!code)
                    return false;
                pos += 4;
                // The protocol only escapes control bytes; decode
                // the Latin-1 range and reject the rest rather than
                // implementing full UTF-16 surrogate handling.
                if (*code > 0xff)
                    return false;
                out += static_cast<char>(*code);
                break;
              }
              default: return false;
            }
        }
        return false; // unterminated
    }

    /** Scalar value rendered back to its decoded/literal text. */
    bool
    scalar(std::string &out)
    {
        skipWs();
        if (peekIs('"'))
            return string(out);
        const std::size_t start = pos;
        while (pos < s.size() && s[pos] != ',' && s[pos] != '}' &&
               s[pos] != ']' &&
               !std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
        out = s.substr(start, pos - start);
        if (out.empty())
            return false;
        if (out == "true" || out == "false" || out == "null")
            return true;
        // Number: validated loosely — the consumer re-parses typed.
        for (const char c : out) {
            if (!std::isdigit(static_cast<unsigned char>(c)) &&
                c != '-' && c != '+' && c != '.' && c != 'e' &&
                c != 'E')
                return false;
        }
        return true;
    }
};

/**
 * Parse the members of an object the cursor just entered into `out`,
 * prefixing keys with `prefix`. `depth` limits nesting to the one
 * level the protocol uses ("params").
 */
bool
parseMembers(Scanner &sc, const std::string &prefix, int depth,
             std::map<std::string, std::string> &out)
{
    if (sc.consume('}'))
        return true; // empty object
    for (;;) {
        std::string key;
        if (!sc.string(key))
            return false;
        if (!sc.consume(':'))
            return false;
        if (sc.peekIs('{')) {
            if (depth >= 1)
                return false;
            sc.consume('{');
            if (!parseMembers(sc, prefix + key + ".", depth + 1, out))
                return false;
        } else {
            std::string value;
            if (!sc.scalar(value))
                return false;
            out[prefix + key] = std::move(value);
        }
        if (sc.consume(','))
            continue;
        return sc.consume('}');
    }
}

} // namespace

std::optional<std::map<std::string, std::string>>
parseJsonObject(const std::string &line)
{
    Scanner sc{line};
    if (!sc.consume('{'))
        return std::nullopt;
    std::map<std::string, std::string> out;
    if (!parseMembers(sc, "", 0, out))
        return std::nullopt;
    sc.skipWs();
    if (sc.pos != line.size())
        return std::nullopt; // trailing garbage
    return out;
}

std::optional<Request>
parseRequest(const std::string &line, std::string *error)
{
    const auto fields = parseJsonObject(line);
    if (!fields) {
        if (error)
            *error = "malformed JSON request line";
        return std::nullopt;
    }
    Request req;
    const auto get = [&](const char *key) -> std::string {
        const auto it = fields->find(key);
        return it == fields->end() ? std::string() : it->second;
    };
    const std::string op = str::toLower(get("op"));
    if (op == "ask") {
        req.op = Request::Op::Ask;
    } else if (op == "stats") {
        req.op = Request::Op::Stats;
    } else if (op == "ping") {
        req.op = Request::Op::Ping;
    } else if (op == "failpoints") {
        req.op = Request::Op::Failpoints;
    } else if (op == "trace") {
        req.op = Request::Op::Trace;
    } else {
        if (error)
            *error = op.empty() ? "missing \"op\""
                                : "unknown op '" + op + "'";
        return std::nullopt;
    }
    req.id = get("id");
    req.question = get("question");
    req.retriever = get("retriever");
    req.backend = get("backend");
    req.failpoint_spec = get("spec");
    req.request_id = get("request_id");
    req.trace_filter = get("filter");
    const std::string last = get("last");
    if (!last.empty()) {
        // A whole number in [0, 2^63), checked before the cast below
        // (undefined out of range); NaN fails the range check.
        const auto parsed = parseJsonNumber(last);
        if (!parsed || !(*parsed >= 0.0 && *parsed < std::ldexp(1.0, 63)) ||
            *parsed != std::floor(*parsed)) {
            if (error)
                *error = "bad \"last\" value '" + last + "'";
            return std::nullopt;
        }
        req.trace_last = static_cast<std::size_t>(*parsed);
    }
    const std::string deadline = get("deadline_ms");
    if (!deadline.empty()) {
        const auto parsed = parseJsonNumber(deadline);
        if (!parsed || !(std::isfinite(*parsed) && *parsed >= 0.0)) {
            if (error)
                *error = "bad \"deadline_ms\" value '" + deadline + "'";
            return std::nullopt;
        }
        req.deadline_ms = *parsed;
    }
    for (const auto &[key, value] : *fields) {
        if (key.rfind("params.", 0) == 0)
            req.params[key.substr(7)] = value;
    }
    if (req.op == Request::Op::Ask && str::trim(req.question).empty()) {
        if (error)
            *error = "ask request without a question";
        return std::nullopt;
    }
    return req;
}

std::string
renderRequest(const Request &request)
{
    std::string line = "{\"op\":\"";
    switch (request.op) {
      case Request::Op::Ask: line += "ask"; break;
      case Request::Op::Stats: line += "stats"; break;
      case Request::Op::Ping: line += "ping"; break;
      case Request::Op::Failpoints: line += "failpoints"; break;
      case Request::Op::Trace: line += "trace"; break;
    }
    line += "\"";
    if (!request.id.empty())
        line += ",\"id\":\"" + jsonEscape(request.id) + "\"";
    if (!request.request_id.empty()) {
        line += ",\"request_id\":\"" + jsonEscape(request.request_id) +
                "\"";
    }
    if (request.trace_last > 0)
        line += ",\"last\":" + std::to_string(request.trace_last);
    if (!request.trace_filter.empty()) {
        line += ",\"filter\":\"" + jsonEscape(request.trace_filter) +
                "\"";
    }
    if (!request.question.empty()) {
        line +=
            ",\"question\":\"" + jsonEscape(request.question) + "\"";
    }
    if (!request.retriever.empty()) {
        line +=
            ",\"retriever\":\"" + jsonEscape(request.retriever) + "\"";
    }
    if (!request.backend.empty())
        line += ",\"backend\":\"" + jsonEscape(request.backend) + "\"";
    if (request.deadline_ms > 0.0)
        line += ",\"deadline_ms\":" + jsonNumber(request.deadline_ms);
    if (!request.failpoint_spec.empty()) {
        line += ",\"spec\":\"" + jsonEscape(request.failpoint_spec) +
                "\"";
    }
    if (!request.params.empty()) {
        line += ",\"params\":{";
        bool first = true;
        for (const auto &[key, value] : request.params) {
            if (!first)
                line += ",";
            first = false;
            line += "\"" + jsonEscape(key) + "\":\"" +
                    jsonEscape(value) + "\"";
        }
        line += "}";
    }
    line += "}";
    return line;
}

namespace {

std::string
idField(const std::string &id)
{
    return ",\"id\":\"" + jsonEscape(id) + "\"";
}

/** v1.1 request-id echo; empty id renders nothing (v1.0 framing). */
std::string
requestIdField(const std::string &request_id)
{
    if (request_id.empty())
        return "";
    return ",\"request_id\":\"" + jsonEscape(request_id) + "\"";
}

} // namespace

std::string
helloFrame()
{
    return "{\"frame\":\"hello\",\"proto\":\"1.1\"}";
}

std::string
pongFrame(const std::string &id)
{
    return "{\"frame\":\"pong\"" + idField(id) + "}";
}

std::string
errorFrame(const std::string &id, const std::string &code,
           const std::string &message, const std::string &request_id)
{
    return "{\"frame\":\"error\"" + idField(id) + ",\"code\":\"" +
           jsonEscape(code) + "\",\"message\":\"" +
           jsonEscape(message) + "\"" + requestIdField(request_id) +
           "}";
}

std::string
overloadedFrame(const std::string &id, std::size_t limit,
                const std::string &request_id)
{
    return "{\"frame\":\"overloaded\"" + idField(id) +
           ",\"limit\":" + std::to_string(limit) +
           requestIdField(request_id) + "}";
}

std::string
deadlineExceededFrame(const std::string &id, double deadline_ms,
                      const std::string &request_id)
{
    return "{\"frame\":\"deadline_exceeded\"" + idField(id) +
           ",\"deadline_ms\":" + jsonNumber(deadline_ms) +
           requestIdField(request_id) + "}";
}

std::string
failpointsFrame(const std::string &id, std::size_t armed)
{
    return "{\"frame\":\"failpoints\"" + idField(id) +
           ",\"armed\":" + std::to_string(armed) + "}";
}

std::string
traceFrame(const std::string &id, std::size_t found,
           const std::string &text)
{
    return "{\"frame\":\"trace\"" + idField(id) +
           ",\"found\":" + std::to_string(found) + ",\"traces\":\"" +
           jsonEscape(text) + "\"}";
}

std::string
eventFrame(const std::string &id, const core::StreamEvent &event,
           const std::string &request_id)
{
    using Kind = core::StreamEvent::Kind;
    std::string frame = "{\"frame\":\"";
    frame += core::streamEventKindName(event.kind);
    frame += "\"" + idField(id);
    switch (event.kind) {
      case Kind::Parsed:
        frame += ",\"text\":\"" + jsonEscape(event.parsed.raw) + "\"";
        break;
      case Kind::Planned:
        frame +=
            ",\"cache_key\":\"" + jsonEscape(event.cache_key) + "\"";
        break;
      case Kind::EvidenceChunk:
        frame += ",\"label\":\"" + jsonEscape(event.label) +
                 "\",\"text\":\"" + jsonEscape(event.text) + "\"";
        break;
      case Kind::AnswerDelta:
        frame += ",\"text\":\"" + jsonEscape(event.text) + "\"";
        break;
      case Kind::Done:
        frame += ",\"answer\":\"" +
                 jsonEscape(event.response ? event.response->text
                                           : std::string()) +
                 "\"";
        // Degraded marker: the answer was generated from partial
        // evidence because the request's deadline expired
        // mid-retrieval. Absent on clean answers, so fault-free runs
        // stay byte-identical to older servers.
        if (event.response && event.response->bundle.degraded)
            frame += ",\"degraded\":true";
        break;
    }
    frame += requestIdField(request_id);
    frame += "}";
    return frame;
}

} // namespace cachemind::serve
