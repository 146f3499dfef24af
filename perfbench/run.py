"""forcelab benchmark: time to a verdict on three verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--inject etr|verdict]

Run from the root of a forcelab checkout.  Each round runs in a fresh
interpreter (perfbench/worker.py): it imports forcelab from ./src, builds the
workload's inputs from the seed, runs every cross-check and reports its
times, counts and answer digest.  Rounds run one at a time, as many as fit
in --seconds at the workload's nominal round time; set-up-only interpreters
bring the set-up samples up to SETUP_SAMPLES.

With --trace 0 the end-to-end metrics come from plain rounds.  With
--trace 1 plain and traced rounds alternate, half of the rounds each: the
traced ones give the per-layer metrics, and the difference of the two
medians is the tracing overhead.  Every metric is printed by name with its
unit and sample count; the last line of standard output is one JSON object.

A round fails a check when a verdict is wrong, when the instances it
compared differ from the count derived from its inputs, or when its answer
digest differs from the one recorded in perfbench/digests.json for the seed.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark could not run (no forcelab source, or a round that crashed).
--inject makes one answer wrong on purpose, to show that the check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SEED_CLASSES, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run starts no round that it expects to end later
PLAIN_STRETCH = 1.5  # nor, untraced, one that ends after this many --seconds


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in spans.SPAN_NAMES}
    units.update({name: "count" for name in spans.COUNTER_NAMES})
    units["trace.overhead_s"] = "s"
    return units


def run_worker(root: Path, workload: str, seed_class: int, mode: str, trace: int,
               inject: str | None, timeout: float, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed-class", str(seed_class), "--mode", mode, "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # the same from one interpreter to the next.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} {mode} did not finish in {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{workload} {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, args, seed_class: int) -> tuple[list[dict], list[float]]:
    """A fixed number of rounds, then set-up-only samples.

    A run makes --seconds over the workload's nominal round time rounds, at
    least one, so that it takes as many samples on every commit and at every
    machine load.  A traced run makes as many rounds, half of them traced,
    alternating, and at least one of each kind.  Only on a machine so slow
    that a plain run's next round would end after PLAIN_STRETCH × --seconds
    does the run stop early, so that a full set of runs keeps to its time
    budget."""
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    stop = limit if args.trace else min(limit, started + PLAIN_STRETCH * args.seconds)
    trace_out = None
    count = max(1, int(args.seconds // WORKLOADS[args.workload][2]))
    if args.trace:
        trace_out = root / ".perfbench" / f"trace-{args.workload}.tsv"
        trace_out.parent.mkdir(exist_ok=True)
        count = 2 * max(1, count // 2)
    rounds, walls = [], []
    for i in range(count):
        traced = args.trace == 1 and i % 2 == 1
        began = time.monotonic()
        if walls and began + max(walls) > stop:
            if i < 2 * args.trace:
                raise BenchmarkError("no time left for a traced round")
            break
        rounds.append(run_worker(root, args.workload, seed_class, "round", int(traced),
                                 args.inject, limit - began, trace_out if traced else None))
        walls.append(time.monotonic() - began)
    setups = [r["setup_s"] for r in rounds if not r["traced"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(root, args.workload, seed_class, "setup", 0, None,
                                 limit - time.monotonic())["setup_s"])
    return rounds, setups


def check(rounds: list[dict], recorded: str | None) -> tuple[int, int, list[str]]:
    attempted, failures = 0, []
    digest_claim = ("answer digest matches the recorded one" if recorded
                    else "answer digest recorded for this input set")
    for i, r in enumerate(rounds):
        checks = [(claim, ok) for claim, ok in r["claims"]]
        checks.append((f"checked {r['checked']} == expected {r['expected']}",
                       r["checked"] == r["expected"]))
        checks.append((digest_claim, r["digest"] == recorded))
        attempted += len(checks)
        failures += [f"round {i}: {claim}" for claim, ok in checks if not ok]
    return attempted, len(failures), failures


def summarize(rounds: list[dict], setups: list[float]) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    verify_s = statistics.median(r["verify_s"] for r in plain)
    checked = statistics.median_low(r["checked"] for r in plain)
    e2e = {
        "verify_s": (verify_s, "s", len(plain)),
        "checks_per_s": (checked / verify_s, "1/s", len(plain)),
        "checked": (checked, "count", len(plain)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB", len(plain)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    layers = {}
    if traced:
        units = per_layer_units()
        for name, unit in units.items():
            if name == "trace.overhead_s":
                continue
            values = [r["layers"][name] for r in traced]
            layers[name] = (statistics.median(values), unit, len(values))
        overhead = statistics.median(r["verify_s"] for r in traced) - verify_s
        layers["trace.overhead_s"] = (overhead, "s", min(len(traced), len(plain)))
    return e2e, layers


def print_table(title: str, metrics: dict):
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit:6s} n={n}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("etr", "verdict"),
                        help="make one answer wrong: perturb an ETR slice "
                             "(iterated-etr-games only) or flip a recorded verdict")
    args = parser.parse_args(argv)
    if args.inject == "etr" and args.workload != "iterated-etr-games":
        parser.error("--inject etr needs --workload iterated-etr-games")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "forcelab" / "__init__.py").is_file():
        print("perfbench: no forcelab source at ./src/forcelab; "
              "run from the root of a forcelab checkout", file=sys.stderr)
        return 2
    seed_class = args.seed % SEED_CLASSES
    recorded = json.loads(DIGESTS.read_text())["digests"].get(args.workload, {}).get(str(seed_class))
    try:
        rounds, setups = measure(root, args, seed_class)
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    attempted, failed, failures = check(rounds, recorded)
    e2e, layers = summarize(rounds, setups)

    print(f"workload {args.workload}, seed {args.seed} (input set {seed_class}), "
          f"{len(rounds)} rounds")
    plain = [r for r in rounds if not r["traced"]]
    print_table("end to end (plain rounds)", {
        **e2e, "fail_ratio": (failed / attempted, "ratio", attempted),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s", len(plain))})
    if layers:
        print_table("per layer (traced rounds)", layers)
    for line in failures:
        print(f"FAILED {line}")
    metrics = layers if args.trace else e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
