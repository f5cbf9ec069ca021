#include "core/stream.hh"

#include "base/logging.hh"
#include "core/cachemind.hh"

namespace cachemind::core {

const char *
streamEventKindName(StreamEvent::Kind kind)
{
    switch (kind) {
      case StreamEvent::Kind::Parsed: return "parsed";
      case StreamEvent::Kind::Planned: return "planned";
      case StreamEvent::Kind::EvidenceChunk: return "evidence";
      case StreamEvent::Kind::AnswerDelta: return "delta";
      case StreamEvent::Kind::Done: return "done";
    }
    return "?";
}

StreamChannel::StreamChannel(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

bool
StreamChannel::push(StreamEvent event)
{
    std::unique_lock<std::mutex> lock(mu_);
    can_push_.wait(lock, [this] {
        return cancelled_ || closed_ || buffer_.size() < capacity_;
    });
    if (cancelled_ || closed_)
        return false;
    buffer_.push_back(std::move(event));
    ++pushed_;
    can_pop_.notify_one();
    return true;
}

std::optional<StreamEvent>
StreamChannel::pop()
{
    std::unique_lock<std::mutex> lock(mu_);
    can_pop_.wait(lock, [this] {
        return cancelled_ || closed_ || !buffer_.empty();
    });
    if (buffer_.empty())
        return std::nullopt; // closed or cancelled, fully drained
    StreamEvent event = std::move(buffer_.front());
    buffer_.pop_front();
    can_push_.notify_one();
    return event;
}

std::optional<StreamEvent>
StreamChannel::tryPop()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.empty())
        return std::nullopt;
    StreamEvent event = std::move(buffer_.front());
    buffer_.pop_front();
    can_push_.notify_one();
    return event;
}

void
StreamChannel::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    can_pop_.notify_all();
    can_push_.notify_all();
}

void
StreamChannel::fail(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_)
        error_ = std::move(error);
}

std::exception_ptr
StreamChannel::error() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
}

void
StreamChannel::cancel()
{
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    buffer_.clear();
    can_pop_.notify_all();
    can_push_.notify_all();
}

bool
StreamChannel::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

bool
StreamChannel::cancelled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cancelled_;
}

std::uint64_t
StreamChannel::pushed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
}

void
StreamTicket::arrive()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        done_ = true;
    }
    done_cv_.notify_all();
}

void
StreamTicket::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_; });
}

AnswerStream::AnswerStream(std::shared_ptr<StreamChannel> channel,
                           std::shared_ptr<StreamTicket> ticket)
    : channel_(std::move(channel)), ticket_(std::move(ticket))
{
}

AnswerStream::AnswerStream(AnswerStream &&) noexcept = default;

AnswerStream &
AnswerStream::operator=(AnswerStream &&other) noexcept
{
    if (this != &other) {
        finish();
        channel_ = std::move(other.channel_);
        ticket_ = std::move(other.ticket_);
        done_ = std::move(other.done_);
    }
    return *this;
}

AnswerStream::~AnswerStream() { finish(); }

void
AnswerStream::cancel()
{
    finish();
}

void
AnswerStream::finish()
{
    if (channel_)
        channel_->cancel();
    if (ticket_) {
        ticket_->wait();
        ticket_.reset();
    }
}

std::optional<StreamEvent>
AnswerStream::next()
{
    if (!channel_ || done_)
        return std::nullopt;
    auto event = channel_->pop();
    if (!event) {
        // Drained without Done: the pipeline failed. Surface the
        // worker's exception here, exactly as blocking ask() would
        // have thrown it.
        if (auto error = channel_->error())
            std::rethrow_exception(error);
        return std::nullopt;
    }
    if (event->kind == StreamEvent::Kind::Done)
        done_ = event->response;
    return event;
}

Response
AnswerStream::wait()
{
    while (!done_) {
        if (!next()) {
            // next() rethrows pipeline failures; draining without
            // either Done or an error is only possible after cancel(),
            // and a cancelled stream must not be wait()ed on.
            CM_ASSERT(done_ != nullptr,
                      "stream drained without a Done event");
        }
    }
    return *done_;
}

} // namespace cachemind::core
