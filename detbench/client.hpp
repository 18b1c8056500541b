// Minimal client for the DetLock server's line protocol (docs/serving.md):
// one Unix-socket connection, JOB/STATS/QUIT verbs, and single-line JSON
// frames read back with readline semantics.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "checks.hpp"

namespace detbench {

class Connection {
 public:
  /// Connects to a server listening on the Unix socket `path`; throws
  /// std::runtime_error on failure.
  explicit Connection(const std::string& path);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Closed-loop job: sends `JOB name ...` with `ir_text` as the counted
  /// body and waits for the job's result frame.  A rejected or malformed
  /// job comes back with status "refused" or "error".
  JobRecord run_job(const std::string& name, const std::string& program, const std::string& ir_text,
                    const std::string& options);
  /// The server's cache counters from a STATS frame.
  void cache_stats(std::uint64_t& hits, std::uint64_t& misses);
  /// Sends QUIT and waits for the bye frame.
  void quit();

 private:
  void send_all(std::string_view bytes);
  std::string read_line();

  int fd_ = -1;
  std::string buffer_;
};

/// The raw value of `"key":` in a compact JSON frame at or after `from`
/// (strings without their quotes), or nullopt when absent.
std::optional<std::string> frame_field(const std::string& frame, std::string_view key,
                                       std::size_t from = 0);

}  // namespace detbench
