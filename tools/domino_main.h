// The `domino` command-line front-end as a library.
//
// main() is a two-liner over DominoMain() so that tests and fuzz harnesses
// can drive the exact argv-parsing code the shipped binary runs — including
// every strict numeric flag check — without forking a process. See
// fuzz/fuzz_cli.cpp for the harness that feeds this random argv vectors.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace domino::cli {

struct MainOptions {
  /// Parse and validate the command line only: every subcommand returns
  /// right after flag validation, before touching the filesystem or
  /// spawning work. Exit codes for bad usage (2) are identical to a real
  /// run; a dry run that would have started work returns 0.
  bool dry_run = false;
};

/// Runs the `domino` tool. `args` is argv[1..]: subcommand first, then its
/// flags/operands. Returns the process exit code. Malformed flag values
/// (e.g. `--threads=abc`, `--seed 1e999`) and unknown, repeated or
/// value-less flags produce a one-line diagnostic on stderr and exit code
/// 2 — never an uncaught exception.
int DominoMain(std::vector<std::string> args, const MainOptions& opts = {});

/// Every flag each subcommand accepts, keyed by subcommand, from the same
/// table the parser and `domino --help` are built from.
std::map<std::string, std::vector<std::string>> FlagTable();

}  // namespace domino::cli
