// detbench_regen: writes the benchmark's input programs as IR text.
//
//   detbench_regen REPO_ROOT OUT_DIR
//
// The benchmark runs only the text this tool writes, never a generator, so
// a later change to a workload generator or to the fuzzer cannot silently
// change what the benchmark measures; it changes only when these inputs
// are regenerated and committed.  Sources:
//   * the five SPLASH-2 analogs from workloads::all_workloads() at the
//     scales below, 4 guest threads, generator seed 42;
//   * the shipped race-free programs of at most two guest threads, copied
//     from share/programs and share/programs/algos;
//   * fuzz::generate programs of two guest threads: a hot handful and a
//     cold pool.
// Each analog is round-tripped (module -> printed text -> parse) and both
// forms are run under DetLock and the baseline; the tool refuses to write
// anything unless checksums, instruction counts and fingerprints agree.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "ir/printer.hpp"
#include "service/compiled_module.hpp"
#include "service/execution_context.hpp"
#include "workloads/workloads.hpp"

namespace fs = std::filesystem;
using namespace detlock;

namespace {

struct AnalogScale {
  const char* name;
  const char* set;  // benchmark workload that runs it
  std::uint32_t scale;
};

// Chosen so that each splash_locks program contributes a comparable share
// of det_s (see README.md for the measured split).
constexpr AnalogScale kAnalogs[] = {
    {"raytrace", "splash", 12}, {"water_nsq", "splash", 4}, {"radiosity", "splash", 8},
    {"volrend", "splash", 6},   {"ocean", "ocean", 16},
};
constexpr std::uint32_t kAnalogThreads = 4;
constexpr std::uint64_t kAnalogSeed = 42;

// Shipped race-free programs with at most two guest threads (serve_mix
// runs two connections on a 4-CPU host).  The racy fixtures, the deadlock
// fixture and the 3-4 thread programs are left out.
constexpr const char* kShipped[] = {
    "benign_condvar.dl", "benign_join.dl", "bounded_queue_cv.dl",
    "producer_consumer.dl", "algos/peterson.dl",
};
constexpr int kHotFuzz = 4;
constexpr std::uint64_t kHotFuzzFirstSeed = 1;
constexpr int kColdFuzz = 64;
constexpr std::uint64_t kColdFuzzFirstSeed = 1000;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

interp::RunResult run_once(std::shared_ptr<const service::CompiledModule> cm, api::Mode mode,
                           std::size_t memory_words, const std::string& entry) {
  api::RunConfig config;
  config.mode = mode;
  service::ExecutionContext ctx(std::move(cm), config);
  ctx.set_memory_hint(memory_words);
  return ctx.run(entry);
}

// Module -> text -> parse must not change what the program computes.
void check_round_trip(const std::string& name, ir::Module module, const std::string& text,
                      std::size_t memory_words, const std::string& entry) {
  for (const api::Mode mode : {api::Mode::kDetLock, api::Mode::kBaseline}) {
    api::RunConfig config;
    config.mode = mode;
    const auto options = service::compile_options(config);
    const interp::RunResult a =
        run_once(service::CompiledModule::compile(module, options), mode, memory_words, entry);
    const interp::RunResult b =
        run_once(service::CompiledModule::compile(text, options), mode, memory_words, entry);
    const bool same = a.main_return == b.main_return && a.instructions == b.instructions &&
                      a.lock_acquires == b.lock_acquires &&
                      (mode != api::Mode::kDetLock || (a.trace_fingerprint == b.trace_fingerprint &&
                                                        a.memory_fingerprint == b.memory_fingerprint));
    if (!same) {
      throw std::runtime_error(name + ": printed IR runs differently from the generated module under " +
                               api::mode_name(mode));
    }
    std::cerr << "round trip ok: " << name << " " << api::mode_name(mode) << " checksum " << a.main_return
              << " instructions " << a.instructions << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: detbench_regen REPO_ROOT OUT_DIR\n";
    return 2;
  }
  const fs::path repo = argv[1];
  const fs::path out = argv[2];
  try {
    struct Entry {
      std::string set, name, file, origin;
      std::size_t memory_words;
      std::string text;
    };
    std::vector<Entry> entries;

    for (const AnalogScale& a : kAnalogs) {
      const workloads::WorkloadSpec* spec = nullptr;
      for (const auto& s : workloads::all_workloads()) {
        if (std::string(s.name) == a.name) spec = &s;
      }
      if (spec == nullptr) throw std::runtime_error(std::string("no workload named ") + a.name);
      workloads::WorkloadParams params;
      params.threads = kAnalogThreads;
      params.scale = a.scale;
      params.seed = kAnalogSeed;
      workloads::Workload w = spec->factory(params);
      // The sizing rule workloads::measure() applies to the hint.
      const std::size_t memory_words = std::max<std::size_t>(w.memory_words, 1 << 14) * 2;
      const std::string entry = w.module.function(w.main_func).name();
      if (entry != "main") throw std::runtime_error(std::string(a.name) + ": entry is not @main");
      std::ostringstream ss;
      ir::print_module(ss, w.module);
      const std::string text = ss.str();
      check_round_trip(a.name, w.module, text, memory_words, entry);
      const std::string origin = "workloads::" + std::string(a.name) + " scale=" + std::to_string(a.scale) +
                                 " threads=" + std::to_string(kAnalogThreads) +
                                 " seed=" + std::to_string(kAnalogSeed);
      entries.push_back({a.set, a.name, std::string("analogs/") + a.name + ".dl", origin, memory_words,
                         "# detbench input: " + origin + "\n" + text});
    }

    for (const char* rel : kShipped) {
      const fs::path src = repo / "share" / "programs" / rel;
      const std::string name = fs::path(rel).stem().string();
      entries.push_back({"serve_hot", name, "serve/" + name + ".dl",
                         "share/programs/" + std::string(rel), 0, read_file(src)});
    }

    auto add_fuzz = [&](const char* set, const char* dir, std::uint64_t first, int count) {
      for (std::uint64_t seed = first; count > 0; ++seed) {
        const fuzz::GeneratedProgram p = fuzz::generate(seed);
        if (p.threads != 2) continue;
        const std::string name = "fuzz_" + std::to_string(seed);
        entries.push_back({set, name, std::string(dir) + name + ".dl",
                           "fuzz::generate seed=" + std::to_string(seed), 0, p.ir_text});
        --count;
      }
    };
    add_fuzz("serve_hot", "serve/", kHotFuzzFirstSeed, kHotFuzz);
    add_fuzz("serve_cold", "serve/cold/", kColdFuzzFirstSeed, kColdFuzz);

    std::ostringstream manifest;
    manifest << "# Written by detbench_regen; do not edit.  One program per line:\n"
             << "# SET NAME FILE MEMORY_WORDS ORIGIN...\n"
             << "# MEMORY_WORDS 0 keeps the engine default guest memory.\n";
    for (const Entry& e : entries) {
      write_file(out / e.file, e.text);
      manifest << e.set << ' ' << e.name << ' ' << e.file << ' ' << e.memory_words << ' ' << e.origin
               << '\n';
    }
    write_file(out / "programs.txt", manifest.str());
    std::cerr << "wrote " << entries.size() << " programs under " << out.string() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "detbench_regen: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
