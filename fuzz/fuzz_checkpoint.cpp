// Fuzz target: the four sealed-record readers — the live checkpoint
// (domino/runtime/checkpoint.h), the fleet manifest (daemon.h), the shard
// done marker (shard.h) and the lease (common/lease.h). Manifest, done and
// lease bytes come from a shared filesystem, so they are as untrusted as a
// checkpoint.
//
// Each input is parsed raw (exercising checksum rejection of torn or
// corrupted writes) and again sealed with a freshly computed checksum (so
// each field parser behind the checksum gate is reached too).
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/lease.h"
#include "common/parse.h"
#include "common/sealed_record.h"
#include "domino/runtime/checkpoint.h"
#include "domino/runtime/daemon.h"
#include "domino/runtime/shard.h"

namespace {

void ParseAll(const std::string& text) {
  using namespace domino;
  using namespace domino::runtime;
  InputLimits lim;
  lim.max_checkpoint_bytes = 1 << 18;
  lim.max_checkpoint_entries = 4096;

  LiveCheckpoint cp;
  std::string error;
  CheckpointFailure failure = CheckpointFailure::kNone;
  ParseCheckpoint(text, "", &cp, &error, &failure, lim);
  ParseCheckpoint(text, "fuzz-fingerprint", &cp, &error, &failure, lim);
  FleetManifest manifest;
  ParseFleetManifest(text, &manifest, &error);
  ShardDoneRecord done;
  ParseShardDone(text, &done, &error);
  LeaseInfo lease;
  ParseLease(text, &lease, &error);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  ParseAll(text);
  std::string body = text;
  if (!body.empty() && body.back() != '\n') body += '\n';
  ParseAll(domino::Seal(body));
  return 0;
}
