#!/usr/bin/env python3
"""Build bench_dna from source and run it.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/dna/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

prints `workload metric value unit` lines and, last, the one-line JSON result
(end-to-end metrics; per-layer metrics with --trace 1).

Every workload, each in its own process (so setup_s and heap_mb are per
workload), appending the runs to a run set:

    python3 bench/dna/run.py [--seed 1] [--repeat 5] [--trace 1] \
        [--out BENCH_dna.json] [--append]

With --trace 1 each workload also runs traced, and the traced end-to-end
numbers are reported against the untraced ones as tracing overhead.

    python3 bench/dna/run.py --selftest

checks the harness (bench_dna --selftest, which must fail with the corrupted
reference fixture) and compare.py's verdicts.

Run from anywhere; paths are relative to the repository root. The build
lives in $CARGO_TARGET_DIR (default .bench_build) under the root. Standard
library only.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds bench_dna in Release; returns its path."""
    build_dir = build_root() / "bench_dna"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured from another checkout
    if not cache.exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring bench_dna failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building bench_dna failed")
    return build_dir / "bench_dna"


def source_digest():
    """SHA-256 over the library and benchmark sources: which code ran."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix in (".h", ".cc", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, traced):
    """Runs one workload; returns (record, human lines, exit code)."""
    scratch = build_root()
    command = [str(binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--tmp={scratch / 'tmp'}"]
    if traced:
        command.append(f"--trace={scratch / 'trace'}")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "traced": traced}
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        return None, lines, proc.returncode or 1
    for line in lines:
        if line.startswith("context "):
            record["context"] = json.loads(line[len("context "):])
    return record, lines[:-1], proc.returncode


def check_metrics(record, benchmark):
    """The run reported exactly BENCHMARK.json's metrics, with its units."""
    listed = benchmark["per_layer"] if record["traced"] else benchmark["end_to_end"]
    want = {metric["name"]: metric["unit"] for metric in listed}
    got = {name: metric["unit"] for name, metric in record["metrics"].items()}
    if got != want:
        fail(f"{record['workload']}: reported metrics {sorted(got.items())} "
             f"differ from BENCHMARK.json's {sorted(want.items())}")


def human_values(lines, workload):
    """{metric: value} from the `workload metric value unit` lines."""
    values = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            try:
                values[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return values


def run_one(args, benchmark):
    binary = build()
    record, lines, code = run_workload(binary, args.workload, args.seed,
                                       args.seconds, args.trace == 1)
    if record is None:
        print("\n".join(lines))
        fail(f"{args.workload} printed no result (exit {code})")
    check_metrics(record, benchmark)
    print(f"context {json.dumps({'source_digest': source_digest()})}")
    print("\n".join(lines))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return code


def run_all(args, benchmark):
    binary = build()
    digest = source_digest()
    out = Path(args.out)
    runs = []
    if args.append and out.exists():
        runs = json.loads(out.read_text())["runs"]
    ok = True
    for _ in range(args.repeat):
        for workload in (w["name"] for w in benchmark["workloads"]):
            untraced = None
            for traced in ([False, True] if args.trace == 1 else [False]):
                record, lines, code = run_workload(binary, workload, args.seed,
                                                   args.seconds, traced)
                print("\n".join(line for line in lines if not line.startswith("context ")))
                if record is None:
                    print(f"run.py: {workload} printed no result (exit {code})",
                          file=sys.stderr)
                    ok = False
                    continue
                check_metrics(record, benchmark)
                record.setdefault("context", {})["source_digest"] = digest
                runs.append(record)
                ok = ok and code == 0 and record["correct"]
                values = human_values(lines, workload)
                if not traced:
                    untraced = values
                elif untraced:
                    for metric in benchmark["end_to_end"]:
                        name = metric["name"]
                        if untraced.get(name):
                            overhead = values[name] / untraced[name] - 1
                            print(f"{workload} tracing_overhead.{name} "
                                  f"{100 * overhead:+.2f} %")
    out.write_text(json.dumps({"benchmark": "bench_dna", "runs": runs}, indent=1) + "\n")
    print(f"wrote {out} ({len(runs)} runs)")
    return 0 if ok else 1


def selftest():
    binary = build()
    ok = subprocess.run([str(binary), "--selftest"]).returncode == 0
    corrupted = subprocess.run([str(binary), "--selftest", "--corrupt-reference"],
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if corrupted.returncode == 0:
        print("selftest FAILED: the corrupted reference fixture passed", file=sys.stderr)
        ok = False
    compare = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"), "--selftest"])
    ok = ok and compare.returncode == 0
    print("run.py selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: rounds of runs")
    parser.add_argument("--out", default=str(ROOT / "BENCH_dna.json"),
                        help="all workloads: run set to write")
    parser.add_argument("--append", action="store_true",
                        help="all workloads: add to an existing run set")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.selftest:
        return selftest()
    if args.workload:
        return run_one(args, benchmark)
    return run_all(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
