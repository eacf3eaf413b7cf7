#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Paths resolve from this file's location, so any working directory works.
The first call configures and builds perfbench/CMakeLists.txt
into .bench_build/perfbench; later calls rebuild incrementally. The measuring
program runs with every GSTG_* variable removed from its environment (the
removed names are reported on an info line), and its last stdout line is the
result JSON. A traced run also leaves its spans, as Chrome trace JSON, in
.bench_build/perfbench/<workload>.trace.json. Exits non-zero, without a
result line, when the GS-TG sources are missing, the build fails, or the run
fails or times out.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gstg_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def configured_for_this_tree():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(HERE)
    return False


def build():
    """Configures (once) and builds the measuring program; True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not configured_for_this_tree():
            for entry in os.listdir(BUILD_DIR):
                if entry == ".lock":
                    continue
                path = os.path.join(BUILD_DIR, entry)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        command = ["cmake", "--build", BUILD_DIR, "--target", "gstg_perfbench", "-j", jobs]
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def isolated_env():
    env = dict(os.environ)
    removed = sorted(name for name in env if name.startswith("GSTG_"))
    for name in removed:
        del env[name]
    return env, removed


def run_program(args, env):
    """Runs the measuring program, forwarding its stdout; returns its exit code."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    # A SIGTERM unwinds through run_program's cleanup, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log(f"no GS-TG sources at {ROOT}; nothing to build")
        return 3
    if not build():
        log("build failed")
        return 4

    env, removed = isolated_env()
    if args.self_test:
        return run_program(["--self-test"], env)
    print(json.dumps({"info": {"gstg_env_removed": removed}}), flush=True)
    program_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        trace_file = os.path.join(BUILD_DIR, f"{args.workload}.trace.json")
        program_args += ["--trace-file", trace_file]
    return run_program(program_args, env)


if __name__ == "__main__":
    sys.exit(main())
