// One accepted gaead connection: socket ownership, the reader thread that
// decodes frames, and serialized response writes.
//
// A Session outlives its socket: worker threads hold shared_ptr<Session>
// while a request is in flight, so a response write after the peer hung up
// degrades to a failed send instead of a use-after-free. Protocol semantics
// (dispatch, admission control) live in GaeaServer; the session only moves
// bytes.

#ifndef GAEA_NET_SESSION_H_
#define GAEA_NET_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/wire.h"
#include "util/status.h"

namespace gaea::net {

class GaeaServer;

class Session : public std::enable_shared_from_this<Session> {
 public:
  Session(GaeaServer* server, int fd);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Spawns the reader thread. Must be called on a shared_ptr-owned session
  // (the reader keeps itself alive via shared_from_this).
  void Start();

  // Unblocks the reader (shutdown(2) on the socket); does not join.
  void Close();

  // Joins the reader thread; call after Close or once done() is true.
  void Join();

  bool done() const { return done_.load(std::memory_order_acquire); }

  // Frames and writes one response payload without copying it (header
  // and payload gathered by one sendmsg); serialized across the reader
  // (verbs it answers inline) and any worker finishing a request.
  Status Send(std::string_view payload);

  // False until the hello exchange succeeds; no other request is served
  // before it.
  bool handshaken() const { return handshaken_.load(std::memory_order_acquire); }
  void set_handshaken() { handshaken_.store(true, std::memory_order_release); }

 private:
  void ReaderLoop();

  GaeaServer* server_;
  int fd_;
  std::thread reader_;
  std::mutex write_mu_;
  std::atomic<bool> done_{false};
  std::atomic<bool> handshaken_{false};
};

}  // namespace gaea::net

#endif  // GAEA_NET_SESSION_H_
