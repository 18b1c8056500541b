#include "checks.hpp"

#include <functional>
#include <iostream>

namespace detbench {

namespace {

const char* const kModeNames[kNumModes] = {"baseline", "clocks-only", "detlock", "kendo-sim"};

bool same_outcome(const RunRecord& a, const RunRecord& b) {
  return a.main_return == b.main_return && a.instructions == b.instructions &&
         a.lock_acquires == b.lock_acquires && a.trace_fingerprint == b.trace_fingerprint &&
         a.memory_fingerprint == b.memory_fingerprint && a.final_clocks == b.final_clocks;
}

}  // namespace

std::vector<std::string> check_program(const ProgramRecord& p) {
  std::vector<std::string> bad;
  auto fail = [&](const std::string& what) { bad.push_back(p.name + ": " + what); };

  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (p.runs[m].empty()) fail(std::string("no completed ") + kModeNames[m] + " run");
  }
  if (!bad.empty()) return bad;

  // Determinism: every repetition of a deterministic mode is identical.
  for (const std::size_t m : {kDet, kKendo}) {
    for (const RunRecord& r : p.runs[m]) {
      if (!same_outcome(r, p.runs[m].front())) {
        fail(std::string(kModeNames[m]) + " repetitions differ in output, fingerprints or final clocks");
        break;
      }
    }
  }

  if (p.schedule_independent) {
    if (!p.reference_checksum) {
      fail("no reference checksum");
    } else {
      for (std::size_t m = 0; m < kNumModes; ++m) {
        for (const RunRecord& r : p.runs[m]) {
          if (r.main_return != *p.reference_checksum) {
            fail(std::string(kModeNames[m]) + " checksum " + std::to_string(r.main_return) +
                 " != reference " + std::to_string(*p.reference_checksum));
            break;
          }
        }
      }
    }
    const std::uint64_t acquires = p.runs[kBaseline].front().lock_acquires;
    for (std::size_t m = 0; m < kNumModes; ++m) {
      for (const RunRecord& r : p.runs[m]) {
        if (r.lock_acquires != acquires) {
          fail(std::string(kModeNames[m]) + " lock acquires " + std::to_string(r.lock_acquires) +
               " != baseline " + std::to_string(acquires));
          break;
        }
      }
    }
    const std::uint64_t det_instructions = p.runs[kDet].front().instructions;
    for (const RunRecord& r : p.runs[kClocks]) {
      if (r.instructions != det_instructions) {
        fail("clocks-only executed " + std::to_string(r.instructions) + " instructions, detlock " +
             std::to_string(det_instructions));
        break;
      }
    }
  }

  if (p.reference_det) {
    const RunRecord& ref = *p.reference_det;
    const RunRecord& det = p.runs[kDet].front();
    if (det.main_return != ref.main_return || det.trace_fingerprint != ref.trace_fingerprint ||
        det.memory_fingerprint != ref.memory_fingerprint) {
      fail("detlock run differs from the reference engine's deterministic run");
    }
  }

  if (p.require_jit) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      for (const RunRecord& r : p.runs[m]) {
        if (!r.jit_active) {
          fail(std::string(kModeNames[m]) + " run took the decoded fallback, not the JIT");
          break;
        }
      }
    }
  }
  return bad;
}

std::vector<std::string> check_jobs(const std::vector<JobRecord>& jobs,
                                    const std::vector<JobReference>& references,
                                    std::uint64_t cache_hits, std::uint64_t cache_misses,
                                    std::size_t distinct_programs_sent) {
  std::vector<std::string> bad;
  for (const JobRecord& j : jobs) {
    if (j.status != "ok") {
      bad.push_back("job " + j.name + ": status " + j.status);
      continue;
    }
    const JobReference* ref = nullptr;
    for (const JobReference& r : references) {
      if (r.program == j.program) ref = &r;
    }
    if (ref == nullptr) {
      bad.push_back("job " + j.name + ": no reference run for " + j.program);
    } else if (j.main_return != ref->run.main_return ||
               j.trace_fingerprint != ref->run.trace_fingerprint ||
               j.memory_fingerprint != ref->run.memory_fingerprint) {
      bad.push_back("job " + j.name + " (" + j.program +
                    "): result or fingerprints differ from the reference engine's deterministic run");
    }
  }
  if (cache_hits + cache_misses != jobs.size()) {
    bad.push_back("server cache saw " + std::to_string(cache_hits + cache_misses) + " lookups for " +
                  std::to_string(jobs.size()) + " jobs");
  }
  if (cache_misses < distinct_programs_sent) {
    bad.push_back("server cache missed " + std::to_string(cache_misses) + " times for " +
                  std::to_string(distinct_programs_sent) + " distinct programs");
  }
  return bad;
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool rejected, const std::string& what) {
    std::cout << (rejected ? "ok   " : "FAIL ") << what << "\n";
    if (!rejected) ++failures;
  };

  RunRecord run;
  run.main_return = 1234;
  run.instructions = 5000;
  run.lock_acquires = 96;
  run.trace_fingerprint = 0x1111;
  run.memory_fingerprint = 0x2222;
  run.final_clocks = {10, 20, 30, 40};
  run.jit_active = true;

  ProgramRecord good;
  good.name = "analog";
  for (auto& mode_runs : good.runs) mode_runs = {run, run, run};
  good.reference_checksum = run.main_return;
  good.reference_det = run;
  good.schedule_independent = true;
  good.require_jit = true;
  expect(check_program(good).empty(), "passing program record accepted");

  auto rejects = [&](const std::string& what, const std::function<void(ProgramRecord&)>& corrupt) {
    ProgramRecord p = good;
    corrupt(p);
    expect(!check_program(p).empty(), what);
  };
  rejects("altered detlock checksum rejected", [](ProgramRecord& p) { p.runs[kDet][1].main_return += 1; });
  rejects("altered clocks-only checksum rejected",
          [](ProgramRecord& p) { p.runs[kClocks][0].main_return = 0; });
  rejects("altered reference checksum rejected", [](ProgramRecord& p) { *p.reference_checksum += 7; });
  rejects("mismatched detlock trace fingerprint rejected",
          [](ProgramRecord& p) { p.runs[kDet][2].trace_fingerprint ^= 1; });
  rejects("mismatched kendo-sim memory fingerprint rejected",
          [](ProgramRecord& p) { p.runs[kKendo][1].memory_fingerprint ^= 1; });
  rejects("mismatched final clocks rejected", [](ProgramRecord& p) { p.runs[kDet][1].final_clocks[2] += 1; });
  rejects("mode-dependent lock count rejected", [](ProgramRecord& p) {
    for (RunRecord& r : p.runs[kKendo]) r.lock_acquires += 1;
  });
  rejects("clocked instruction count mismatch rejected", [](ProgramRecord& p) {
    for (RunRecord& r : p.runs[kClocks]) r.instructions += 3;
  });
  rejects("detlock run unlike the reference engine rejected", [](ProgramRecord& p) {
    for (RunRecord& r : p.runs[kDet]) r.memory_fingerprint ^= 4;
    p.reference_det->memory_fingerprint ^= 8;
  });
  rejects("decoded fallback rejected", [](ProgramRecord& p) { p.runs[kDet][0].jit_active = false; });
  rejects("missing mode rejected", [](ProgramRecord& p) { p.runs[kBaseline].clear(); });

  JobRecord job;
  job.name = "j0";
  job.program = "analog";
  job.status = "ok";
  job.main_return = run.main_return;
  job.trace_fingerprint = run.trace_fingerprint;
  job.memory_fingerprint = run.memory_fingerprint;
  const std::vector<JobReference> refs = {{"analog", run}};
  const std::vector<JobRecord> jobs = {job, job};
  expect(check_jobs(jobs, refs, 1, 1, 1).empty(), "passing job records accepted");

  auto rejects_job = [&](const std::string& what, const std::function<void(JobRecord&)>& corrupt) {
    std::vector<JobRecord> js = jobs;
    corrupt(js[1]);
    expect(!check_jobs(js, refs, 1, 1, 1).empty(), what);
  };
  rejects_job("failed job rejected", [](JobRecord& j) { j.status = "run-error"; });
  rejects_job("refused job rejected", [](JobRecord& j) { j.status = "refused"; });
  rejects_job("altered job checksum rejected", [](JobRecord& j) { j.main_return -= 1; });
  rejects_job("mismatched job fingerprint rejected", [](JobRecord& j) { j.trace_fingerprint ^= 2; });
  expect(!check_jobs(jobs, refs, 1, 2, 1).empty(), "cache lookups != jobs rejected");
  expect(!check_jobs(jobs, refs, 2, 0, 1).empty(), "too few cache misses rejected");

  std::cout << (failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace detbench
