// detbench: the DetLock benchmark driver.
//
//   detbench --workload NAME --seed N --seconds S --trace 0|1 [--inputs DIR]
//            [--cold-jobs N]
//   detbench --self-test
//
// Set-up compiles each (program, mode) artifact, runs each one untimed as
// often as a round does, and starts the server.  Then every workload runs
// whole rounds until S seconds have passed.  A round has three phases,
// always in this order:
//   1. compile: each distinct program of the round compiled cold (with
//      --trace 1, each compile stage called and timed on its own);
//   2. execute: each of the workload's execution programs in each of the
//      four modes (baseline, clocks-only, DetLock, Kendo-sim), once or a
//      fixed number of times, through service::ExecutionContext::run, in a
//      seed-shuffled order;
//   3. serve: the round's jobs sent as DetLock JOBs to an in-process
//      service::Server over a Unix socket by a closed-loop connection.
// After the last round the outputs are checked (checks.hpp) against runs of
// the reference engine made apart from the runs under test, and the last
// line of stdout is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics (profiler on, compile stages split) with --trace 1.
// See README.md for the workloads, the metrics and what moves them.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "client.hpp"
#include "interp/decode.hpp"
#include "interp/engine.hpp"
#include "interp/jit/jit.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "pass/pipeline.hpp"
#include "runtime/profile.hpp"
#include "service/compiled_module.hpp"
#include "service/execution_context.hpp"
#include "service/server.hpp"

namespace detbench {
namespace {

using namespace detlock;
using Clock = std::chrono::steady_clock;

// Set during static initialization, before main(): setup_s starts here.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t) { return std::chrono::duration<double>(Clock::now() - t).count(); }

constexpr std::array<api::Mode, kNumModes> kModes = {api::Mode::kBaseline, api::Mode::kClocksOnly,
                                                     api::Mode::kDetLock, api::Mode::kKendoSim};
constexpr const char* kModeKeys[kNumModes] = {"baseline", "clocks", "det", "kendo"};

struct Program {
  std::string set;
  std::string name;
  std::string text;
  /// Guest memory words; 0 keeps the engine default (as a served job does).
  std::size_t memory_words = 0;
};

struct WorkloadDef {
  const char* name;
  /// Programs run in all four modes in the execute phase, and sent as jobs.
  const char* exec_set;
  interp::EngineKind engine;
  /// The SPLASH-2 analogs: output and lock count independent of the schedule.
  bool schedule_independent;
  /// Executions of each (program, mode) pair per round.
  int exec_repeats;
  /// Jobs per execution program per round.
  int jobs_per_program;
  /// Cold-pool programs sent once each per round (cache misses).
  int cold_jobs;
  /// JOB options beyond the server's defaults.
  const char* job_options;
};

// The job counts are a synthetic mix, not recorded traffic; README.md says
// why each was chosen and what moves when serve_mix's cold share changes.
constexpr WorkloadDef kWorkloads[] = {
    {"splash_locks", "splash", interp::EngineKind::kDecoded, true, 1, 2, 0, ""},
    {"ocean_barrier_jit", "ocean", interp::EngineKind::kJit, true, 3, 2, 0, "engine=jit"},
    {"serve_mix", "serve_hot", interp::EngineKind::kDecoded, false, 1, 2, 4, ""},
};

/// Cold compiles of each program per round: compiling is cheap next to a
/// round, and more samples steady compile_s.  The compiles of one round
/// take a few milliseconds and see the same host speed, which on a shared
/// host swings by up to half from round to round; so compile_s takes the
/// median within each round (dropping a compile that was preempted) and
/// the mean over rounds, which follows the share of slow rounds smoothly
/// where a median would jump between the two speeds.
constexpr int kCompileRepeats = 3;

/// job_p95_ms is the 95th percentile of each block of this many consecutive
/// jobs, median over the run's blocks.
constexpr std::size_t kP95Block = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs = "detbench/inputs";
  /// Cold jobs per round; -1 keeps the workload's own share.
  int cold_jobs = -1;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Program> load_inputs(const std::string& dir) {
  std::istringstream manifest(read_file(dir + "/programs.txt"));
  std::vector<Program> programs;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Program p;
    std::string file;
    if (!(fields >> p.set >> p.name >> file >> p.memory_words)) {
      throw std::runtime_error("malformed line in programs.txt: " + line);
    }
    p.text = read_file(dir + "/" + file);
    programs.push_back(std::move(p));
  }
  return programs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

api::RunConfig run_config(api::Mode mode, interp::EngineKind engine, bool profile) {
  api::RunConfig config;
  config.mode = mode;
  config.engine = engine;
  config.profile = profile;
  return config;
}

RunRecord record_of(const interp::RunResult& r, const interp::Engine* engine) {
  RunRecord rec;
  rec.main_return = r.main_return;
  rec.instructions = r.instructions;
  rec.lock_acquires = r.lock_acquires;
  rec.trace_fingerprint = r.trace_fingerprint;
  rec.memory_fingerprint = r.memory_fingerprint;
  rec.final_clocks = r.final_clocks;
  rec.jit_active = engine != nullptr && engine->jit_active();
  return rec;
}

/// One run on the reference engine, made apart from the runs under test.
RunRecord reference_run(const Program& p, api::Mode mode, std::size_t memory_words) {
  const api::RunConfig config = run_config(mode, interp::EngineKind::kReference, false);
  service::ExecutionContext ctx(service::CompiledModule::compile(p.text, service::compile_options(config)),
                                config);
  ctx.set_memory_hint(memory_words);
  return record_of(ctx.run("main"), nullptr);
}

/// Per-round samples of one per-layer metric.
struct LayerMetric {
  const char* unit = "";
  std::vector<double> samples;
};

class Bench {
 public:
  Bench(const Options& options, const WorkloadDef& def, std::vector<Program> all)
      : options_(options),
        def_(def),
        cold_jobs_(options.cold_jobs >= 0 ? options.cold_jobs : def.cold_jobs),
        rng_(options.seed) {
    for (Program& p : all) {
      if (p.set == def.exec_set) {
        exec_.push_back(std::move(p));
      } else if (p.set == "serve_cold" && cold_jobs_ > 0) {
        cold_.push_back(std::move(p));
      }
    }
    if (exec_.empty()) throw std::runtime_error(std::string("no inputs for set ") + def.exec_set);
    if (cold_jobs_ > 0 && cold_.empty()) throw std::runtime_error("no inputs for set serve_cold");
    std::shuffle(cold_.begin(), cold_.end(), rng_);
  }

  int run();

 private:
  struct Slot {
    std::unique_ptr<service::ExecutionContext> ctx;
    std::vector<double> seconds;
  };
  struct Job {
    std::string name;
    const Program* program;
    std::string text;
  };

  void setup();
  void warm_up();
  void round();
  void compile_phase(const std::vector<std::pair<std::string, const Program*>>& programs);
  void execute_phase();
  void serve_phase(const std::vector<const Program*>& cold);
  void finish();
  void check();
  void report();

  service::CompileOptions det_compile_options() const {
    return service::compile_options(run_config(api::Mode::kDetLock, def_.engine, false));
  }

  const Options options_;
  const WorkloadDef& def_;
  const int cold_jobs_;
  std::mt19937_64 rng_;
  std::vector<Program> exec_;
  std::vector<Program> cold_;
  std::size_t cold_cursor_ = 0;

  // slots_[program][mode]
  std::vector<std::array<Slot, kNumModes>> slots_;
  std::vector<ProgramRecord> records_;
  std::string socket_path_;
  std::unique_ptr<service::Server> server_;
  /// One closed-loop connection: two would put twice the guest threads on
  /// the CPUs, and README.md shows the job figures then follow the host's
  /// other load rather than the program.
  std::unique_ptr<Connection> connection_;

  int rounds_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  double setup_s_ = 0.0;
  /// Cold compile times per program slot (a hot program, or the k-th cold
  /// job of a round).
  std::map<std::string, std::vector<double>> compile_seconds_;
  std::vector<double> jobs_per_s_;
  std::vector<JobRecord> jobs_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  /// Per-layer metrics by name (--trace 1 only).
  std::map<std::string, LayerMetric> layer_;
  void add_layer(const std::string& name, const char* unit, double value) {
    layer_[name].unit = unit;
    layer_[name].samples.push_back(value);
  }
};

void Bench::setup() {
  slots_.resize(exec_.size());
  records_.resize(exec_.size());
  for (std::size_t p = 0; p < exec_.size(); ++p) {
    records_[p].name = exec_[p].name;
    records_[p].schedule_independent = def_.schedule_independent;
    records_[p].require_jit = def_.engine == interp::EngineKind::kJit;
    for (std::size_t m = 0; m < kNumModes; ++m) {
      const api::RunConfig config = run_config(kModes[m], def_.engine, options_.trace);
      auto module = service::CompiledModule::compile(exec_[p].text, service::compile_options(config));
      slots_[p][m].ctx = std::make_unique<service::ExecutionContext>(std::move(module), config);
      slots_[p][m].ctx->set_memory_hint(exec_[p].memory_words);
    }
  }
  warm_up();

  socket_path_ = "detbench-" + std::to_string(::getpid()) + ".sock";
  service::ServerOptions server_options;
  server_options.listen = "unix:" + socket_path_;
  server_ = std::make_unique<service::Server>(server_options);
  server_->start();
  connection_ = std::make_unique<Connection>(socket_path_);
  setup_s_ = seconds_since(g_process_start);
}

// One untimed round's worth of runs of every (program, mode) context before
// the first round, so the timed runs start warm.  It belongs to set-up: it
// makes setup_s 0.1 to 0.8 s of the program's own work rather than a 10 ms
// burst that a passing moment of host load can stretch by half.  Its results are checked with the timed runs.
void Bench::warm_up() {
  for (std::size_t p = 0; p < exec_.size(); ++p) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      for (int rep = 0; rep < def_.exec_repeats; ++rep) {
        ++attempted_;
        try {
          const interp::RunResult r = slots_[p][m].ctx->run("main");
          records_[p].runs[m].push_back(record_of(r, slots_[p][m].ctx->engine()));
        } catch (const std::exception& e) {
          ++failed_;
          problems_.push_back(exec_[p].name + " " + api::mode_name(kModes[m]) + " warm-up: " + e.what());
        }
      }
    }
  }
}

void Bench::compile_phase(const std::vector<std::pair<std::string, const Program*>>& programs) {
  double parse = 0.0, verify = 0.0, instrument = 0.0, decode = 0.0, jit = 0.0;
  for (const auto& [slot, p] : programs) {
    ++attempted_;
    try {
      if (!options_.trace) {
        for (int rep = 0; rep < kCompileRepeats; ++rep) {
          const auto start = Clock::now();
          const auto module = service::CompiledModule::compile(p->text, det_compile_options());
          compile_seconds_[slot].push_back(seconds_since(start));
        }
        continue;
      }
      // The stages CompiledModule::compile runs for a DetLock artifact,
      // with the same options, each timed on its own.
      const service::CompileOptions compile = det_compile_options();
      auto t = Clock::now();
      ir::Module module = ir::parse_module(p->text);
      parse += seconds_since(t);
      t = Clock::now();
      const auto issues = ir::verify_module(module);
      verify += seconds_since(t);
      if (!issues.empty()) throw std::runtime_error(p->name + ": verifier rejected the program");
      t = Clock::now();
      pass::instrument_module(module, compile.pass_options);
      instrument += seconds_since(t);
      t = Clock::now();
      interp::DecodedModule decoded = interp::decode_module(module);
      interp::Engine::prepare_decoded_module(module, decoded);
      decode += seconds_since(t);
      if (compile.engine == interp::EngineKind::kJit) {
        t = Clock::now();
        const auto native = interp::jit::compile_module(decoded);
        jit += seconds_since(t);
      }
    } catch (const std::exception& e) {
      ++failed_;
      problems_.push_back(std::string("compile ") + p->name + ": " + e.what());
    }
  }
  if (!options_.trace) return;
  add_layer("ir.parse_ms", "ms", parse * 1e3);
  add_layer("ir.verify_ms", "ms", verify * 1e3);
  add_layer("pass.instrument_ms", "ms", instrument * 1e3);
  add_layer("interp.decode_ms", "ms", decode * 1e3);
  add_layer("interp.jit_compile_ms", "ms", jit * 1e3);
}

void Bench::execute_phase() {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t p = 0; p < exec_.size(); ++p) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      for (int rep = 0; rep < def_.exec_repeats; ++rep) order.emplace_back(p, m);
    }
  }
  std::shuffle(order.begin(), order.end(), rng_);

  std::array<double, kNumModes> instr{}, secs{};
  std::array<double, kNumModes> useful_ms{}, turn_polls{}, scan_slots{}, failed_trylocks{}, barrier_waits{},
      publications{}, clock_updates{};
  std::array<std::array<double, runtime::kNumWaitCategories>, kNumModes> wait_ms{}, wait_events{}, wait_iters{};

  for (const auto& [p, m] : order) {
    Slot& slot = slots_[p][m];
    ++attempted_;
    try {
      const auto start = Clock::now();
      const interp::RunResult r = slot.ctx->run("main");
      const double s = seconds_since(start);
      slot.seconds.push_back(s);
      records_[p].runs[m].push_back(record_of(r, slot.ctx->engine()));
      instr[m] += static_cast<double>(r.instructions);
      secs[m] += s;
      if (!options_.trace) continue;
      const runtime::ProfileSummary summary = slot.ctx->engine()->profiler()->summary();
      for (std::size_t c = 0; c < runtime::kNumWaitCategories; ++c) {
        wait_ms[m][c] += static_cast<double>(summary.totals[c].ns) / 1e6;
        wait_events[m][c] += static_cast<double>(summary.totals[c].events);
        wait_iters[m][c] += static_cast<double>(summary.totals[c].iters);
      }
      useful_ms[m] += static_cast<double>(summary.total_useful_ns) / 1e6;
      turn_polls[m] += static_cast<double>(r.sync.turn_polls);
      scan_slots[m] += static_cast<double>(r.sync.turn_scan_slots);
      failed_trylocks[m] += static_cast<double>(r.sync.failed_trylocks);
      barrier_waits[m] += static_cast<double>(r.sync.barrier_waits);
      publications[m] += static_cast<double>(r.sync.clock_publications);
      clock_updates[m] += static_cast<double>(r.clock_update_instrs);
    } catch (const std::exception& e) {
      ++failed_;
      problems_.push_back(exec_[p].name + " " + api::mode_name(kModes[m]) + ": " + e.what());
    }
  }
  if (!options_.trace) return;

  using runtime::WaitCategory;
  auto cat = [](WaitCategory c) { return static_cast<std::size_t>(c); };
  // Per execution of each program: a round may repeat each one.
  auto add_exec = [&](const char* name, const char* unit, double total) {
    add_layer(name, unit, total / def_.exec_repeats);
  };
  add_exec("pass.clock_updates_executed", "count", clock_updates[kDet]);
  add_layer("interp.baseline_instr_per_s", "1/s", secs[kBaseline] > 0 ? instr[kBaseline] / secs[kBaseline] : 0);
  add_layer("interp.clocked_instr_per_s", "1/s", secs[kClocks] > 0 ? instr[kClocks] / secs[kClocks] : 0);
  add_exec("runtime.turn_wait_ms", "ms", wait_ms[kDet][cat(WaitCategory::kTurnWait)]);
  add_exec("runtime.turn_wait_events", "count", wait_events[kDet][cat(WaitCategory::kTurnWait)]);
  add_exec("runtime.turn_polls", "count", turn_polls[kDet]);
  add_exec("runtime.turn_scan_slots", "count", scan_slots[kDet]);
  add_exec("runtime.lock_retry_ms", "ms", wait_ms[kDet][cat(WaitCategory::kLockRetry)]);
  add_exec("runtime.lock_retry_climbs", "count", wait_iters[kDet][cat(WaitCategory::kLockRetry)]);
  add_exec("runtime.failed_trylocks", "count", failed_trylocks[kDet]);
  add_exec("runtime.barrier_wait_ms", "ms", wait_ms[kDet][cat(WaitCategory::kBarrierWait)]);
  add_exec("runtime.barrier_waits", "count", barrier_waits[kDet]);
  add_exec("runtime.clock_publications", "count", publications[kDet]);
  add_exec("runtime.useful_ms", "ms", useful_ms[kDet]);
  add_exec("runtime.join_wait_ms", "ms", wait_ms[kDet][cat(WaitCategory::kJoinWait)]);
  add_exec("runtime.kendo_turn_wait_ms", "ms", wait_ms[kKendo][cat(WaitCategory::kTurnWait)]);
  add_exec("runtime.kendo_lock_retry_ms", "ms", wait_ms[kKendo][cat(WaitCategory::kLockRetry)]);
}

void Bench::serve_phase(const std::vector<const Program*>& cold) {
  std::vector<Job> jobs;
  for (const Program& p : exec_) {
    for (int k = 0; k < def_.jobs_per_program; ++k) jobs.push_back({"", &p, p.text});
  }
  for (const Program* p : cold) {
    // A trailing comment makes every cold job's text unique, so the
    // content-addressed cache misses even when the pool wraps around.
    jobs.push_back({"", p, p->text + "\n# detbench cold job seed=" + std::to_string(options_.seed) +
                               " round=" + std::to_string(rounds_) + "\n"});
  }
  std::shuffle(jobs.begin(), jobs.end(), rng_);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "r" + std::to_string(rounds_) + "-" + std::to_string(i);
  }

  // A broken connection throws and ends the run.
  std::vector<JobRecord> results;
  const auto start = Clock::now();
  for (const Job& job : jobs) {
    results.push_back(connection_->run_job(job.name, job.program->name, job.text, def_.job_options));
  }
  const double elapsed = seconds_since(start);

  double hits = 0, misses = 0, reused = 0;
  std::vector<double> latency_ms;
  for (const JobRecord& j : results) {
    ++attempted_;
    if (j.status != "ok") ++failed_;
    hits += j.cache_hit ? 1 : 0;
    misses += j.cache_hit ? 0 : 1;
    reused += j.context_reused ? 1 : 0;
    latency_ms.push_back(j.latency_s * 1e3);
    jobs_.push_back(j);
  }
  jobs_per_s_.push_back(static_cast<double>(latency_ms.size()) / elapsed);
  if (options_.trace) {
    add_layer("service.cache_hits", "count", hits);
    add_layer("service.cache_misses", "count", misses);
    add_layer("service.contexts_reused", "count", reused);
  }
}

void Bench::round() {
  std::vector<const Program*> cold;
  for (int k = 0; k < cold_jobs_; ++k) cold.push_back(&cold_[cold_cursor_++ % cold_.size()]);
  std::vector<std::pair<std::string, const Program*>> distinct;
  for (const Program& p : exec_) distinct.emplace_back(p.name, &p);
  for (std::size_t k = 0; k < cold.size(); ++k) distinct.emplace_back("cold" + std::to_string(k), cold[k]);

  compile_phase(distinct);
  execute_phase();
  serve_phase(cold);
  ++rounds_;
}

void Bench::finish() {
  connection_->cache_stats(cache_hits_, cache_misses_);
  connection_->quit();
  connection_.reset();
  server_->request_drain();
  if (server_->run_until_drained() != 0) problems_.push_back("server drain was not clean");
  server_.reset();
}

void Bench::check() {
  for (std::size_t p = 0; p < exec_.size(); ++p) {
    ProgramRecord& rec = records_[p];
    if (def_.schedule_independent) {
      rec.reference_checksum = reference_run(exec_[p], api::Mode::kBaseline, exec_[p].memory_words).main_return;
    } else {
      rec.reference_det = reference_run(exec_[p], api::Mode::kDetLock, exec_[p].memory_words);
    }
    for (std::string& s : check_program(rec)) problems_.push_back(std::move(s));
  }

  // Served jobs run with the server's default guest memory.
  std::vector<JobReference> refs;
  for (const JobRecord& j : jobs_) {
    auto same_program = [&](const JobReference& r) { return r.program == j.program; };
    if (std::any_of(refs.begin(), refs.end(), same_program)) continue;
    const Program* program = nullptr;
    for (const Program& p : exec_) program = p.name == j.program ? &p : program;
    for (const Program& p : cold_) program = p.name == j.program ? &p : program;
    refs.push_back({j.program, reference_run(*program, api::Mode::kDetLock, 0)});
  }
  // Each cold job's text is distinct (see serve_phase).
  const std::size_t distinct = exec_.size() + static_cast<std::size_t>(rounds_ * cold_jobs_);
  for (std::string& s : check_jobs(jobs_, refs, cache_hits_, cache_misses_, distinct)) {
    problems_.push_back(std::move(s));
  }
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Bench::report() {
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;
  auto mode_total = [&](std::size_t m) {
    double total = 0.0;
    for (const auto& slots : slots_) total += median(slots[m].seconds);
    return total;
  };
  std::vector<double> latency_ms, run_ms, outside_ms;
  for (const JobRecord& j : jobs_) {
    latency_ms.push_back(j.latency_s * 1e3);
    run_ms.push_back(j.run_seconds * 1e3);
    outside_ms.push_back((j.latency_s - j.run_seconds) * 1e3);
  }
  // A short burst of host interference lands in one or two blocks, which
  // the median over blocks leaves out; a run shorter than one block takes
  // the percentile over all of its jobs.
  std::vector<double> block_p95_ms;
  for (std::size_t b = 0; b + kP95Block <= latency_ms.size(); b += kP95Block) {
    block_p95_ms.push_back(percentile({latency_ms.begin() + b, latency_ms.begin() + b + kP95Block}, 0.95));
  }
  if (block_p95_ms.empty()) block_p95_ms.push_back(percentile(latency_ms, 0.95));

  if (!options_.trace) {
    metrics.push_back({"setup_s", setup_s_, "s"});
    for (std::size_t m = 0; m < kNumModes; ++m) {
      metrics.push_back({std::string(kModeKeys[m]) + "_s", mode_total(m), "s"});
    }
    double compile_s = 0.0;
    for (const auto& [slot, samples] : compile_seconds_) {
      std::vector<double> per_round;
      for (std::size_t r = 0; r + kCompileRepeats <= samples.size(); r += kCompileRepeats) {
        per_round.push_back(median({samples.begin() + r, samples.begin() + r + kCompileRepeats}));
      }
      if (per_round.empty()) continue;
      compile_s += std::accumulate(per_round.begin(), per_round.end(), 0.0) / static_cast<double>(per_round.size());
    }
    metrics.push_back({"compile_s", compile_s, "s"});
    metrics.push_back({"jobs_per_s", median(jobs_per_s_), "jobs/s"});
    metrics.push_back({"job_p50_ms", percentile(latency_ms, 0.50), "ms"});
    metrics.push_back({"job_p95_ms", median(block_p95_ms), "ms"});
  } else {
    // Per-program split, for reading which program moved; not a metric,
    // since each program belongs to one workload only.
    for (std::size_t p = 0; p < exec_.size(); ++p) {
      for (std::size_t m = 0; m < kNumModes; ++m) {
        std::cout << "program." << exec_[p].name << "." << kModeKeys[m] << "_ms "
                  << number(median(slots_[p][m].seconds) * 1e3) << "\n";
      }
    }
    double clock_sites = 0.0;
    for (const auto& slots : slots_) {
      clock_sites += static_cast<double>(slots[kDet].ctx->module().pass_stats().clock_sites_final);
    }
    for (const auto& [name, metric] : layer_) metrics.push_back({name, median(metric.samples), metric.unit});
    metrics.push_back({"pass.clock_sites", clock_sites, "count"});
    metrics.push_back({"service.run_ms_p50", percentile(run_ms, 0.50), "ms"});
    metrics.push_back({"service.outside_run_ms_p50", percentile(outside_ms, 0.50), "ms"});
    metrics.push_back({"service.outside_run_ms_p95", percentile(outside_ms, 0.95), "ms"});
    metrics.push_back({"trace.det_s", mode_total(kDet), "s"});
  }

  for (const std::string& p : problems_) std::cerr << "detbench: CHECK FAILED: " << p << "\n";
  std::cerr << "detbench: " << def_.name << " seed=" << options_.seed << " rounds=" << rounds_
            << " jobs=" << jobs_.size() << " setup_s=" << number(setup_s_) << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (problems_.empty() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Bench::run() {
  setup();
  const auto start = Clock::now();
  do {
    round();
  } while (seconds_since(start) < options_.seconds);
  finish();
  check();
  report();
  return problems_.empty() ? 0 : 1;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--inputs") {
      o.inputs = value;
    } else if (flag == "--cold-jobs") {
      o.cold_jobs = std::stoi(value);
      if (o.cold_jobs < 0) throw std::runtime_error("--cold-jobs takes a count");
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return o;
}

}  // namespace
}  // namespace detbench

int main(int argc, char** argv) {
  using namespace detbench;
  if (argc == 2 && std::string(argv[1]) == "--self-test") return self_test();
  try {
    const Options options = parse_args(argc, argv);
    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : kWorkloads) def = options.workload == w.name ? &w : def;
    if (def == nullptr) throw std::runtime_error("unknown workload '" + options.workload + "'");
    Bench bench(options, *def, load_inputs(options.inputs));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "detbench: " << e.what() << "\n";
    return 2;
  }
}
