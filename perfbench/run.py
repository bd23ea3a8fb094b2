#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

The simulator library and the benchmark program are built in Release under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), apart from the
repository's own build directories. Build output goes to stderr, so the last
line of stdout is the program's result JSON. The exit code is the program's:
0 only when every simulated point was correct.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; exit 2 on failure."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--parallel", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.exit(f"perfbench: cannot run {step[0]}: {err}")
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def git_revision():
    """HEAD's short SHA plus "-dirty" for uncommitted changes, or "none"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             env=env)
        if sha.returncode != 0:
            return "none"
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    dirty = "-dirty" if status.stdout.strip() else ""
    return sha.stdout.strip() + dirty


def source_digest():
    """SHA-256 over the simulator and benchmark sources, path-sorted.

    Identifies the measured code even in a checkout without git history.
    """
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def program_args(binary, reference=REFERENCE):
    return [binary, "--reference", reference,
            "--scratch", os.path.join(build_dir(), "run"),
            "--git", git_revision(), "--source-digest", source_digest()]


def self_test(binary):
    """A doctored reference must fail the benchmark; the real one pass.

    One field is changed in the record of a full-simulation point and in
    the full-simulation record that a pareto-fast replay is compared with.
    """
    with open(REFERENCE) as f:
        doctored = json.load(f)
    cases = [("machsuite-full", "machsuite-full/gemm/default",
              "engine.stallCycles"),
             ("pareto-fast", "pareto-fast/gemm-n32u32/fu16-ports8",
              "cycles")]
    for _, key, field in cases:
        fields = doctored["points"][key]["fields"]
        fields[field] = str(int(fields[field]) + 1)
    path = os.path.join(build_dir(), "self-test-reference.json")
    with open(path, "w") as f:
        json.dump(doctored, f)

    ok = True
    for workload, key, field in cases:
        for reference, expect_ok in ((REFERENCE, True), (path, False)):
            cmd = program_args(binary, reference) + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            named = f"FAIL {key}: field {field} " in done.stdout
            if expect_ok:
                passed = (done.returncode == 0 and
                          result.get("correct") is True)
            else:
                passed = (done.returncode != 0 and named and
                          result.get("correct") is False and
                          result.get("failed", 0) > 0)
            label = "real" if expect_ok else "doctored"
            print(f"self-test {workload} {label} reference: "
                  f"{'PASS' if passed else 'FAIL'} "
                  f"(exit {done.returncode})")
            ok = ok and passed
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record_reference:
        return subprocess.run([binary, "--record-reference",
                               REFERENCE]).returncode
    missing = [name for name in ("workload", "seed", "seconds", "trace")
               if getattr(args, name) is None]
    if missing:
        parser.error("missing --" + ", --".join(missing))
    cmd = program_args(binary) + [
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
