#include "flaky.h"

#include <chrono>
#include <thread>

#include "util/error.h"

namespace dna::service {

void FlakyTransport::fail(const char* what) {
  dead_ = true;
  // The peer must see a clean connection loss (like a killed process), not
  // a silent stall: abort tears both directions down, unblocking any
  // reader.
  inner_->abort();
  throw Error(std::string("flaky transport: injected ") + what);
}

void FlakyTransport::maybe_delay() {
  if (options_.delay_us == 0 || !rng_.chance(options_.delay_chance)) return;
  std::this_thread::sleep_for(std::chrono::microseconds(options_.delay_us));
}

void FlakyTransport::send(std::string_view bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_) throw Error("flaky transport: link is down");
    maybe_delay();
    if (options_.fail_after_bytes > 0 &&
        sent_ + bytes.size() > options_.fail_after_bytes) {
      // Deliver the prefix that fits under the threshold, then die: the
      // peer holds a torn frame, exactly as if the process was killed
      // mid-write.
      const size_t prefix = options_.fail_after_bytes - sent_;
      if (prefix > 0) inner_->send(bytes.substr(0, prefix));
      sent_ = options_.fail_after_bytes;
      fail("failure mid-send");
    }
    if (rng_.chance(options_.send_drop_chance)) fail("send drop");
    sent_ += bytes.size();
  }
  inner_->send(bytes);
}

size_t FlakyTransport::recv(char* buffer, size_t max) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_) return 0;  // torn link reads as end-of-stream
    maybe_delay();
    if (rng_.chance(options_.recv_drop_chance)) fail("recv drop");
  }
  return inner_->recv(buffer, max);
}

void FlakyTransport::close_send() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dead_) return;
  inner_->close_send();
}

void FlakyTransport::abort() {
  // No lock: abort must be callable from another thread while send/recv
  // blocks inside the inner transport (the Transport contract).
  inner_->abort();
}

size_t FlakyTransport::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sent_;
}

bool FlakyTransport::fault_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_;
}

std::unique_ptr<Transport> make_flaky(std::unique_ptr<Transport> inner,
                                      FlakyOptions options) {
  return std::make_unique<FlakyTransport>(std::move(inner), options);
}

}  // namespace dna::service
