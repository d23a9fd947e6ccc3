#!/usr/bin/env python3
"""Build the PSF benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. psf_perfbench is built with the
repository's own CMake project (perfbench/perfbench.cmake is injected as a
project hook) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Build output goes to stderr. psf_perfbench's notes are passed through; its
last line, the JSON result, is checked against BENCHMARK.json, the one list
of metrics: every name and unit must be listed for the mode, and every
end-to-end metric must be present. A traced run reads 0 for the per-layer
metrics of layers its workload does not exercise.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stencil_sweep", "reduction_sweep", "serve_open")
RUN_TIMEOUT_S = 170


def clean_env(build_dir):
    """The environment without PSF_* switches, so every cell runs on library
    defaults, and with compiler scratch files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSF_")}
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: no PSF sources next to perfbench/; run from a checkout")
    env = clean_env(build_dir)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DCMAKE_PROJECT_psf_INCLUDE=" + str(HERE / "perfbench.cmake")],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "psf_perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True, env=env)
    return build_dir / "psf_perfbench", env


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary, env = build(build_dir.resolve() / "perfbench")
    expected = expected_metrics(args.trace)
    run = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, env=env)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(f"run.py: psf_perfbench exited with {run.returncode}")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    wrong = sorted(set(got.items()) - set(expected.items()))
    missing = [] if args.trace else sorted(set(expected) - set(got))
    if wrong or missing:
        sys.exit(f"run.py: metrics not as in BENCHMARK.json: unlisted or "
                 f"wrong unit {wrong}, missing {missing}")
    result["metrics"] = {
        name: result["metrics"].get(name, {"value": 0.0, "unit": unit})
        for name, unit in expected.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
