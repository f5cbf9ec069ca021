/**
 * @file
 * Load-generator side of the serve workloads: one protocol connection
 * that sends an ask and reads its frames to the terminal one, timing
 * each phase and checking the stream on the way.
 */

#ifndef E2EBENCH_CLIENT_HH
#define E2EBENCH_CLIENT_HH

#include <cstdint>
#include <string>

#include "bench.hh"
#include "serve/client.hh"

namespace e2ebench {

/** What one ask over the wire produced. */
struct AskOutcome
{
    /** Complete, consistent stream ending in one done frame. */
    bool ok = false;
    /** Why not ok ("" when ok). */
    std::string failure;
    /** The done frame's answer. */
    std::string answer;
    Clock::time_point sent;
    Clock::time_point written;
    Clock::time_point first_evidence;
    Clock::time_point done;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
};

class Connection
{
  public:
    /** Connect and consume the hello frame. */
    bool open(std::uint16_t port);

    /** Send one ask and read it to its terminal frame. */
    AskOutcome ask(const std::string &question, const char *retriever,
                   const std::string &id);

    /** Send an ask without reading (pair with finish()). */
    bool send(const std::string &question, const char *retriever,
              const std::string &id, AskOutcome &out);

    /** Read the frames of a request sent with send(). */
    void finish(const std::string &id, AskOutcome &out);

  private:
    cachemind::serve::LineClient client_;
};

} // namespace e2ebench

#endif // E2EBENCH_CLIENT_HH
