#!/usr/bin/env python3
"""rcons-bench entry point: build the driver from source, run one workload.

    python3 rcons_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds
rcons_bench/CMakeLists.txt (the repository's libraries plus the driver)
under $CARGO_TARGET_DIR or .bench_build, then runs the driver, which
prints one JSON result line last on stdout. Before that line it prints one
`# host ...` line recording the host's CPU count, the build type and the
commit (or a digest of the sources when there is no git metadata), so
every result carries them. Build output and progress go to stderr.

Exit codes: the driver's (0 ok, 1 a wrong answer, 2 usage or set-up
error); 2 as well when the sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("profile-golden", "hunt-shard", "verify-tnn", "serve-mixed")


def fail(message):
    print(f"rcons-bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when ROOT is a git checkout, else a digest of the
    sources (an exported source tree carries no git metadata)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.samefile(lines[0], ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "rcons_bench",
                    "-j", jobs], stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "rcons_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed wants n >= 0 and --seconds s >= 1")

    for needed in ("src/CMakeLists.txt", "data", "tests/fixtures/golden"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} under {ROOT}: run from an rcons checkout")

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "rcons_bench"))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    os.makedirs(os.path.join(out_root, "spans"), exist_ok=True)
    scratch = os.path.relpath(
        os.path.join(out_root, "run", f"{args.workload}-{os.getpid()}"), ROOT)
    spans = os.path.join(out_root, "spans", f"{args.workload}.txt")
    print(f"# host nproc={os.cpu_count()} build_type={BUILD_TYPE} "
          f"commit={source_id()} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    # Relative paths throughout: the serve socket path must stay short.
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--root", ".", "--scratch", scratch, "--spans-out", spans],
        cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
