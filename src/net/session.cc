#include "net/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include "net/server.h"

namespace gaea::net {

Session::Session(GaeaServer* server, int fd) : server_(server), fd_(fd) {}

Session::~Session() {
  if (reader_.joinable()) {
    Close();
    reader_.join();
  }
  ::close(fd_);
}

void Session::Start() {
  auto self = shared_from_this();
  reader_ = std::thread([self] { self->ReaderLoop(); });
}

void Session::Close() { ::shutdown(fd_, SHUT_RDWR); }

void Session::Join() {
  if (reader_.joinable()) reader_.join();
}

Status Session::Send(std::string_view payload) {
  // Checksummed before the write lock, which covers only the syscalls.
  FrameHeader header = EncodeFrameHeader(payload);
  std::lock_guard<std::mutex> lock(write_mu_);
  Status status = SendFrame(fd_, header, payload);
  if (status.ok()) server_->AddBytesOut(header.size() + payload.size());
  return status;
}

void Session::ReaderLoop() {
  FrameBuffer frames;
  for (;;) {
    // Drain every complete frame before the next recv so a pipelining
    // client is never stalled behind the socket.
    for (;;) {
      std::string payload;
      auto have = frames.Next(&payload);
      if (!have.ok()) {
        // Corrupt stream: nothing on it can be trusted any more.
        goto out;
      }
      if (!*have) break;
      server_->HandleFrame(shared_from_this(), std::move(payload));
    }
    size_t before = frames.buffered();
    bool closed = false;
    Status status = RecvInto(fd_, &frames, &closed);
    if (!status.ok() || closed) break;
    server_->AddBytesIn(frames.buffered() - before);
  }
out:
  // Reaping happens on the accept thread (and in Shutdown): this reader
  // thread must not destroy its own Session.
  done_.store(true, std::memory_order_release);
}

}  // namespace gaea::net
