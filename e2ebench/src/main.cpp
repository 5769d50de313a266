// domino_e2e — the end-to-end benchmark's binary (run.py calls it).
//
//   domino_e2e gen    --workload W --seed N --root DIR
//   domino_e2e run    --workload W --seed N --seconds S --trace 0|1
//                     --root DIR [--config F] [--golden F] [--corrupt I]
//                     [--commit C] [--gen-s X]
//   domino_e2e mirror --root DIR --config F
//
// `gen` and `run` are separate processes so that peak_rss_mb is measured in
// a process that never held the simulator. `run` prints a context line and
// then, as its last line, the result object.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "e2e.h"

namespace {

using e2e::Num;
using e2e::RunOptions;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage() {
  std::fputs(
      "usage: domino_e2e gen --workload W --seed N --root DIR\n"
      "       domino_e2e run --workload W --seed N --seconds S --trace 0|1 "
      "--root DIR [--config F] [--golden F] [--corrupt I] [--commit C] "
      "[--gen-s X]\n"
      "       domino_e2e mirror --root DIR --config F\n",
      stderr);
  return 2;
}

bool KnownWorkload(const std::string& w) {
  for (const char* k : e2e::kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

int Run(const RunOptions& opts, const std::string& commit,
        const std::string& gen_s) {
  e2e::RunResult res = e2e::RunWorkload(opts);
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
  std::fputs("domino_e2e: WARNING: built without optimisation; timings are "
             "not comparable\n",
             stderr);
#endif
  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "domino_e2e: check failed: %s\n", p.c_str());
  }
  std::string ctx = "{\"context\": {\"workload\": " + Quote(opts.workload) +
                    ", \"seed\": " + std::to_string(opts.seed) +
                    ", \"seconds\": " + Num(opts.seconds) +
                    ", \"trace\": " + (opts.trace ? "1" : "0") +
                    ", \"build_type\": " + Quote(E2E_BUILD_TYPE) +
                    ", \"optimized\": " + (optimized ? "true" : "false") +
                    ", \"compiler\": " + Quote(Compiler()) +
                    ", \"commit\": " + Quote(commit) +
                    ", \"gen_s\": " + (gen_s.empty() ? "null" : gen_s);
  for (const auto& [k, v] : res.context) ctx += ", " + Quote(k) + ": " + v;
  std::printf("%s}}\n", ctx.c_str());

  std::string out = "{\"correct\": ";
  out += res.failed == 0 && res.problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  RunOptions opts;
  std::string commit = "unknown", gen_s;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "domino_e2e: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = value() != "0";
    } else if (a == "--root") {
      opts.root = value();
    } else if (a == "--config") {
      opts.config_path = value();
    } else if (a == "--golden") {
      opts.golden_path = value();
    } else if (a == "--corrupt") {
      opts.corrupt_session = std::strtol(value().c_str(), nullptr, 10);
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--gen-s") {
      gen_s = value();
    } else {
      return Usage();
    }
  }
  if (opts.root.empty()) return Usage();
  try {
    if (cmd == "gen") {
      if (!KnownWorkload(opts.workload) && opts.workload != "mirror") {
        return Usage();
      }
      e2e::Generate(opts.workload, opts.seed, opts.root);
      return 0;
    }
    if (cmd == "run") {
      if (!KnownWorkload(opts.workload)) return Usage();
      return Run(opts, commit, gen_s);
    }
    if (cmd == "mirror") {
      std::vector<std::string> dirs;
      for (const e2e::Input& in : e2e::ReadInputs(opts.root)) {
        dirs.push_back(in.dir);
      }
      e2e::MirrorSessions(opts.config_path, dirs, opts.root + "/mirror");
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "domino_e2e: %s\n", e.what());
    return 1;
  }
  return Usage();
}
