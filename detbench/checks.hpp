// The benchmark's correctness checks, kept as pure functions over what the
// runs reported so that detbench --self-test can feed them corrupted
// results and prove that each one rejects them.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace detbench {

/// The four execution configurations, in api::Mode order.
inline constexpr std::size_t kNumModes = 4;
enum ModeIndex : std::size_t { kBaseline = 0, kClocks = 1, kDet = 2, kKendo = 3 };

/// What one ExecutionContext::run reported.
struct RunRecord {
  std::int64_t main_return = 0;
  std::uint64_t instructions = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t trace_fingerprint = 0;
  std::uint64_t memory_fingerprint = 0;
  std::vector<std::uint64_t> final_clocks;
  bool jit_active = false;
};

/// Every run of one program in one benchmark run, plus the references
/// computed apart from the runs under test.
struct ProgramRecord {
  std::string name;
  std::array<std::vector<RunRecord>, kNumModes> runs;
  /// Uninstrumented, reference engine, nondeterministic backend.
  std::optional<std::int64_t> reference_checksum;
  /// Reference engine, deterministic backend, same memory size.
  std::optional<RunRecord> reference_det;
  /// The program's output and lock count do not depend on the schedule
  /// (the SPLASH-2 analogs): every mode must match the reference checksum,
  /// and lock acquires and clocked instruction counts must agree.
  bool schedule_independent = false;
  /// The run must have executed as native JIT code.
  bool require_jit = false;
};

/// One served job as the client saw it.
struct JobRecord {
  std::string name;
  std::string program;  // base program name (reference lookup key)
  std::string status;   // result frame status, or "refused"/"error"/"lost"
  std::int64_t main_return = 0;
  std::uint64_t trace_fingerprint = 0;
  std::uint64_t memory_fingerprint = 0;
  double latency_s = 0.0;
  double run_seconds = 0.0;
  bool cache_hit = false;
  bool context_reused = false;
};

struct JobReference {
  std::string program;
  RunRecord run;
};

/// Returns one message per violated property; empty means correct.
std::vector<std::string> check_program(const ProgramRecord& program);
std::vector<std::string> check_jobs(const std::vector<JobRecord>& jobs,
                                    const std::vector<JobReference>& references,
                                    std::uint64_t cache_hits, std::uint64_t cache_misses,
                                    std::size_t distinct_programs_sent);

/// Feeds every check a passing record and then each kind of corruption;
/// returns 0 when every corruption was rejected.
int self_test();

}  // namespace detbench
