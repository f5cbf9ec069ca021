#include "client.hh"

#include "serve/protocol.hh"

namespace e2ebench {

using namespace cachemind;

bool
Connection::open(std::uint16_t port)
{
    if (!client_.connect("127.0.0.1", port))
        return false;
    const auto hello = client_.recvLine();
    return hello && hello->find("\"hello\"") != std::string::npos;
}

bool
Connection::send(const std::string &question, const char *retriever,
                 const std::string &id, AskOutcome &out)
{
    serve::Request req;
    req.op = serve::Request::Op::Ask;
    req.id = id;
    req.question = question;
    req.retriever = retriever;
    const std::string line = serve::renderRequest(req);
    out.sent = Clock::now();
    const bool sent = client_.sendLine(line);
    out.written = Clock::now();
    if (!sent)
        out.failure = "send failed";
    return sent;
}

namespace {

/**
 * The frame kind of `line` when it starts the way the server renders
 * frames of request `id` ({"frame":"<kind>","id":"<id>"...), else "".
 * Lets the client skip a full parse of large evidence frames.
 */
std::string
quickKind(const std::string &line, const std::string &id)
{
    static const std::string head = "{\"frame\":\"";
    if (line.compare(0, head.size(), head) != 0)
        return std::string();
    const auto end = line.find('"', head.size());
    if (end == std::string::npos)
        return std::string();
    const std::string tail = "\",\"id\":\"" + id + "\"";
    if (line.compare(end, tail.size(), tail) != 0)
        return std::string();
    return line.substr(head.size(), end - head.size());
}

} // namespace

void
Connection::finish(const std::string &id, AskOutcome &out)
{
    std::string deltas;
    bool saw_evidence = false;
    for (;;) {
        const auto line = client_.recvLine();
        const auto now = Clock::now();
        if (!line) {
            out.failure = "connection closed";
            return;
        }
        ++out.frames;
        out.bytes += line->size() + 1;
        const std::string quick = quickKind(*line, id);
        if (quick == "evidence") {
            if (!saw_evidence)
                out.first_evidence = now;
            saw_evidence = true;
            continue;
        }
        if (quick == "parsed" || quick == "planned")
            continue;
        // Everything else is parsed in full: deltas and the done frame
        // carry the text the answer check compares.
        const auto frame = serve::parseJsonObject(*line);
        if (!frame) {
            out.failure = "unparseable frame";
            return;
        }
        const auto field = [&](const char *key) -> std::string {
            const auto it = frame->find(key);
            return it == frame->end() ? std::string() : it->second;
        };
        if (field("id") != id) {
            out.failure = "frame carries another request's id";
            return;
        }
        const std::string kind = field("frame");
        if (kind == "evidence") {
            if (!saw_evidence)
                out.first_evidence = now;
            saw_evidence = true;
        } else if (kind == "delta") {
            deltas += field("text");
        } else if (kind == "done") {
            out.done = now;
            out.answer = field("answer");
            if (field("degraded") == "true")
                out.failure = "degraded answer";
            else if (out.answer != deltas)
                out.failure = "answer differs from its deltas";
            else if (!saw_evidence)
                out.failure = "no evidence frame";
            else
                out.ok = true;
            return;
        } else if (kind != "parsed" && kind != "planned") {
            // error, overloaded, deadline_exceeded, or unknown.
            out.failure = "frame " + kind;
            return;
        }
    }
}

AskOutcome
Connection::ask(const std::string &question, const char *retriever,
                const std::string &id)
{
    AskOutcome out;
    if (send(question, retriever, id, out))
        finish(id, out);
    return out;
}

} // namespace e2ebench
