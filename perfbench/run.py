#!/usr/bin/env python3
"""Build and run the FastCHGNet benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later calls rebuild only what changed.  Build output
goes to standard error.  The binary's standard output is passed through: its
last line is the JSON result.  When BENCHMARK.json sits at the root, the
metric names and units the binary printed are checked against it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def check_metric_names(result_line, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    if printed == declared:
        return True
    print("perfbench: printed metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(declared) - set(printed))}, "
          f"extra {sorted(set(printed) - set(declared))}, units "
          f"{sorted(k for k in printed if k in declared and printed[k] != declared[k])}",
          file=sys.stderr)
    return False


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or "--selftest" in argv:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    if not lines or not check_metric_names(lines[-1], trace):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
