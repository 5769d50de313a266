// Input generation: simulated 60 s captures, derived from the seed alone.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "e2e.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/binfmt.h"
#include "telemetry/fault_inject.h"
#include "telemetry/io.h"

namespace e2e {

namespace fs = std::filesystem;
using namespace domino;

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Capture k of the seed: cell k % 4 of Table 1, simulator seed mixed from
/// both.
telemetry::SessionDataset Simulate(std::uint64_t seed, int k) {
  const sim::CellProfile cells[kCells] = {sim::TMobileFdd15(),
                                          sim::TMobileTdd100(),
                                          sim::Amarisoft(), sim::Mosolabs()};
  sim::SessionConfig cfg;
  cfg.profile = cells[k % kCells];
  cfg.duration = Seconds(kSessionSeconds);
  cfg.seed = SplitMix64(seed * 16 + static_cast<std::uint64_t>(k));
  return sim::CallSession(cfg).Run();
}

/// BM_Sanitize/5's fault mix: 5% drops, duplicates and late arrivals, 1%
/// timestamps corrupted far outside the session.
telemetry::FaultSpec SanitizeBenchFaults() {
  telemetry::FaultSpec spec;
  spec.drop = 0.05;
  spec.duplicate = 0.05;
  spec.reorder = 0.05;
  spec.corrupt_time = 0.01;
  return spec;
}

void SaveBinary(const telemetry::SessionDataset& ds, const std::string& dir) {
  if (!telemetry::SaveDatasetBinary(ds, dir)) {
    throw std::runtime_error("cannot write " + dir + "/telemetry.dtb");
  }
}

}  // namespace

void Generate(const std::string& workload, std::uint64_t seed,
              const std::string& root) {
  const std::string in = root + "/inputs";
  fs::create_directories(in);
  const bool mirror = workload == "mirror";
  const int captures = mirror ? 1 : kBaseSessions;
  // Captures are independent, so they are simulated and written on up to
  // nproc threads; each writes only its own slots and directories.
  std::vector<std::vector<Input>> made(static_cast<std::size_t>(captures));
  std::vector<std::string> errors(made.size());
  const auto make = [&](int k) {
    std::vector<Input>& out = made[static_cast<std::size_t>(k)];
    telemetry::SessionDataset ds = Simulate(seed, k);
    const std::string key = "s" + std::to_string(k);
    if (mirror) {
      telemetry::SaveDataset(ds, in + "/csv");
      SaveBinary(ds, in + "/dtb");
      out.push_back({"csv", in + "/csv"});
      out.push_back({"dtb", in + "/dtb"});
    } else if (workload == "analyze-dtb") {
      SaveBinary(ds, in + "/" + key);
      out.push_back({key, in + "/" + key});
    } else if (workload == "serve-mixed" &&
               (k % kCells + k / kCells) % 2 == 1) {
      // Half the captures, alternating cells per round of four, carry the
      // fault mix.
      const std::string fkey = "f" + std::to_string(k);
      telemetry::InjectFaults(ds, SanitizeBenchFaults(),
                              SplitMix64(seed ^ 0xfa17ull) +
                                  static_cast<std::uint64_t>(k));
      telemetry::SaveDataset(ds, in + "/" + fkey);
      out.push_back({fkey, in + "/" + fkey});
    } else {
      telemetry::SaveDataset(ds, in + "/" + key);
      out.push_back({key, in + "/" + key});
    }
  };
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  {
    std::vector<std::jthread> pool;  // Joined when the block ends.
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int k = t; k < captures; k += threads) {
          try {
            make(k);
          } catch (const std::exception& e) {
            errors[static_cast<std::size_t>(k)] = e.what();
          }
        }
      });
    }
  }
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  // The fleet's two workers take sessions in list order. Grouping its
  // inputs by cell makes the two largest sessions of a round always
  // overlap, so the fleet's peak memory does not hinge on scheduling.
  std::vector<int> order(made.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = static_cast<int>(k);
  }
  if (workload == "serve-mixed") {
    std::stable_sort(order.begin(), order.end(), [](int a, int b) {
      return a % kCells < b % kCells;
    });
  }
  std::vector<Input> inputs;
  for (int k : order) {
    const auto& m = made[static_cast<std::size_t>(k)];
    inputs.insert(inputs.end(), m.begin(), m.end());
  }
  // Paths relative to the root, so the list is as seed-determined as the
  // data it names.
  std::ofstream list(in + "/sessions.txt");
  for (const Input& i : inputs) {
    list << i.key << ' ' << fs::path(i.dir).lexically_relative(root).string()
         << '\n';
  }
  if (!list) throw std::runtime_error("cannot write " + in + "/sessions.txt");
}

std::vector<Input> ReadInputs(const std::string& root) {
  std::ifstream list(root + "/inputs/sessions.txt");
  if (!list) {
    throw std::runtime_error("no inputs under " + root +
                             " (run the gen step first)");
  }
  std::vector<Input> out;
  Input i;
  while (list >> i.key >> i.dir) {
    i.dir = root + "/" + i.dir;
    out.push_back(i);
  }
  if (out.empty()) throw std::runtime_error("empty input list under " + root);
  return out;
}

}  // namespace e2e
