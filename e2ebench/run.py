#!/usr/bin/env python3
"""End-to-end Domino benchmark (see README.md in this directory).

    python3 e2ebench/run.py --workload analyze-dtb --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark and the libraries it
drives from source into .bench_build/, generates the workload's inputs from
the seed in one process, measures them in a second one, checks every
session's output, and prints one JSON result object as the last line of
standard output. Everything the run writes stays under .bench_build/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "domino_e2e")
CLI = os.path.join(BUILD, "domino_tools", "domino")
CONFIG = os.path.join(ROOT, "examples", "configs", "extended.domino")
GOLDEN = os.path.join(HERE, "golden.txt")
WORKLOADS = ("analyze-dtb", "live-csv", "serve-mixed")
GOLDEN_SEED = 1  # The default seed; other seeds are checked by invariants.
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


def call(cmd, timeout=None, capture=False):
    """Runs cmd to completion (killing it on timeout, or when we are told
    to stop); stdout goes to our stderr unless captured. Returns (exit
    code, captured stdout)."""
    # Compilers and the benchmark keep their temporary files in the
    # checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True, env=dict(os.environ, TMPDIR=tmp))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out after %ss: %s" % (timeout, " ".join(cmd)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out or ""


def on_term(signum, _frame):
    # Unwinds through call(), which reaps the child before we exit.
    raise BenchError("stopped by signal %d" % signum)


def build():
    """Configures once, then brings domino_e2e and the domino CLI up to
    date (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no Domino sources at %s/src" % ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc, _ = call(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        if rc != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    rc, _ = call(["cmake", "--build", BUILD, "--target", "domino_e2e",
                  "domino_cli", "-j", jobs])
    if rc != 0:
        raise BenchError("build failed")


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def scratch_root(kind="runs"):
    """A directory unique to this invocation, so concurrent runs on one
    box never share or delete each other's inputs."""
    path = os.path.join(BUILD, kind, "%d-%d-%s" % (
        os.getpid(), time.time_ns(), uuid.uuid4().hex[:8]))
    os.makedirs(path)
    return path


def generate(workload, seed, root):
    t0 = time.perf_counter()
    rc, _ = call([BIN, "gen", "--workload", workload, "--seed", str(seed),
                  "--root", root], timeout=GEN_TIMEOUT_S)
    if rc != 0:
        raise BenchError("input generation failed")
    return time.perf_counter() - t0


def measure(workload, seed, seconds, trace, root, gen_s, extra=()):
    """Runs the measuring process; returns its stdout lines."""
    cmd = [BIN, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", root,
           "--config", CONFIG, "--golden", GOLDEN, "--commit", commit(),
           "--gen-s", "%.6f" % gen_s] + list(extra)
    rc, out = call(cmd, timeout=RUN_TIMEOUT_S, capture=True)
    if rc != 0:
        raise BenchError("measuring process exited with %d" % rc)
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{\"correct\""):
        raise BenchError("measuring process printed no result")
    return lines


def keep_spans(workload, root):
    """Moves the traced run's span dump out of the scratch root, which is
    deleted at exit, to .bench_build/spans-<workload>.jsonl. The rename is
    atomic, so concurrent runs leave one whole dump, never a mix."""
    dest = os.path.join(BUILD, "spans-%s.jsonl" % workload)
    os.replace(os.path.join(root, "spans.jsonl"), dest)
    log("spans written to %s" % os.path.relpath(dest, ROOT))


def update_golden(workload, root):
    """Replaces the workload's lines in golden.txt with this run's digests."""
    with open(os.path.join(root, "digests.txt")) as f:
        fresh = [line for line in f if line.strip()]
    kept = []
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            kept = [line for line in f
                    if line.startswith(WORKLOADS) and
                    not line.startswith(workload + " ")]
    with open(GOLDEN, "w") as f:
        f.write("# <workload> <input> <file> <FNV-1a 64 of the file>, "
                "written by run.py --update-golden\n")
        f.write("seed %d\n" % GOLDEN_SEED)
        f.writelines(sorted(kept + fresh))
    log("golden digests for %s updated (%d files)" % (workload, len(fresh)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, default=-1, metavar="SESSION",
                    help="test hook: damage one session's published output")
    ap.add_argument("--update-golden", action="store_true",
                    help="record this run's output digests in golden.txt")
    args = ap.parse_args(argv)
    if args.update_golden and args.seed != GOLDEN_SEED:
        ap.error("--update-golden needs --seed %d" % GOLDEN_SEED)
    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)

    root = None
    try:
        build()
        root = scratch_root()
        gen_s = generate(args.workload, args.seed, root)
        extra = ["--corrupt", str(args.corrupt)] if args.corrupt >= 0 else []
        lines = measure(args.workload, args.seed, args.seconds, args.trace,
                        root, gen_s, extra)
        if args.trace:
            keep_spans(args.workload, root)
        if args.update_golden:
            update_golden(args.workload, root)
    except (BenchError, OSError) as e:
        log("error: %s" % e)
        return 1
    finally:
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
