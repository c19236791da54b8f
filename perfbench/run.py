#!/usr/bin/env python3
"""Build and run the sdrbist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the library from
the checkout's sources) into .bench_build/perfbench; later runs rebuild only
when a source file is newer than the benchmark program.  Build output goes
to stderr, so the last line of stdout is the program's summary JSON.  See
perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("catalogue_cold", "probe_campaign", "store_regrade",
             "service_loopback")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the benchmark's build compiles or reads as a build file."""
    files = [os.path.join(REPO, "CMakeLists.txt"),
             os.path.join(HERE, "CMakeLists.txt")]
    for root in (os.path.join(REPO, "src"), os.path.join(HERE, "src")):
        for dirpath, _, names in os.walk(root):
            files.extend(os.path.join(dirpath, n) for n in names)
    return sorted(files)


def build(sources):
    """Configure and build, unless the program is newer than every source."""
    if os.path.isfile(PROGRAM):
        built = os.path.getmtime(PROGRAM)
        if all(os.path.getmtime(f) <= built for f in sources):
            return
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_describe():
    if not os.path.exists(os.path.join(REPO, ".git")) or not shutil.which("git"):
        return "not a git checkout"
    out = subprocess.run(["git", "-C", REPO, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def source_digest(sources):
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for path in sources:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids (harness self-test)")
    p.add_argument("--reference",
                   help="reference file (default: perfbench/reference/)")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        fail("the sdrbist sources (CMakeLists.txt, src/) are not next to "
             "the benchmark")
    sources = source_files()
    build(sources)

    reference = args.reference or os.path.join(
        HERE, "reference", args.workload + ".json")
    tag = "%s-seed%d%s" % (args.workload, args.seed,
                           "-smoke" if args.smoke else "")
    work_dir = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", reference, "--work-dir", work_dir,
           "--trace-out", os.path.join(BUILD, "traces", tag + ".json"),
           "--git-describe", git_describe(),
           "--source-digest", source_digest(sources)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
