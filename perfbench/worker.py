"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed-class K --mode round|setup
                                [--trace 0|1] [--inject etr|verdict] [--trace-out PATH]

Run from a forcelab checkout with `src` on PYTHONPATH; perfbench/run.py
starts it.  A fresh interpreter per round means every round pays what a
CLI user pays on every run: importing forcelab, and filling the hash-cons
tables of hfset, names and formulas, which never shrink.

`setup` mode imports forcelab and builds the inputs, then stops.  `round`
mode also runs the verification.  Either way the last line of standard
output is one JSON object with the round's measurements.

The machine the benchmark runs on may be shared, and then its speed drifts
by 10-25% over minutes.  A round therefore reports its verification time
twice: as measured (`wall_s`), and scaled to the reference speed
(`verify_s`) by a speed probe, a fixed pure-Python loop that uses nothing
of forcelab and is timed every PROBE_EVERY_S while the round runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import spans
import workloads

PROBE_EVERY_S = 0.25
# About the probe's time on the machine in perfbench/provenance.json when
# that machine is quiet.
PROBE_REFERENCE_S = 3.5e-4


def probe_s() -> float:
    """The best of five timings of a fixed loop of dict stores."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        d = {}
        for i in range(3000):
            d[i * 7919 % 10007] = i
        best = min(best, time.perf_counter() - started)
    return best


class SpeedProbe:
    """Probe timings taken every PROBE_EVERY_S of a round, from a SIGALRM
    handler, so that long calls into forcelab are sampled as well as short
    ones.  The probe's own time is left out of the round's."""

    def __init__(self):
        self.samples = [probe_s()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _sample(self, signum, frame):
        began = time.perf_counter()
        self.samples.append(probe_s())
        self.spent += time.perf_counter() - began

    def stop(self) -> tuple[float, float]:
        """(wall, scaled): the time since the start, less the probe's own
        time, as measured and scaled by the reference over the probe's mean
        (of the middle 80% of its timings, so that one disturbed timing
        does not move it)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.started - self.spent
        cut = len(self.samples) // 10
        middle = sorted(self.samples)[cut:len(self.samples) - cut]
        return wall, wall * PROBE_REFERENCE_S / statistics.mean(middle)


class Round:
    """What one verification round records: verdicts, instances compared,
    and the answers that go into the digest."""

    def __init__(self, recorder, inject):
        self.claims: list[tuple[str, bool]] = []
        self.checked = 0
        self.answers: list = []
        self.call = recorder.call
        self.counts = recorder.counts
        self.inject = inject

    def record(self, claim: str, ok: bool):
        self.claims.append((claim, bool(ok)))

    def answer(self, label: str, value):
        self.answers.append([label, value])

    @contextlib.contextmanager
    def guard(self, piece: str):
        """An error inside the program fails the piece's claims; the round
        goes on."""
        try:
            yield
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.record(f"{piece}/raised", False)

    def digest(self) -> str:
        answers = self.answers
        if self.inject == "verdict":
            answers, _ = _bump_first_int(answers)
        text = json.dumps(answers, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _bump_first_int(value):
    """The same answers with one recorded count or pair index off by one."""
    if isinstance(value, bool) or not isinstance(value, (int, list)):
        return value, False
    if isinstance(value, int):
        return value + 1, True
    out = list(value)
    for i, item in enumerate(out):
        out[i], done = _bump_first_int(item)
        if done:
            return out, True
    return out, False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed-class", type=int, required=True)
    parser.add_argument("--mode", choices=("round", "setup"), default="round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("etr", "verdict"))
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    make_inputs, verify, _ = workloads.WORKLOADS[args.workload]
    traced = args.trace == 1
    recorder = spans.Tracer() if traced else spans.Untraced()

    started = time.perf_counter()
    import forcelab as fl
    baseline = spans.interned_counts(fl) if traced else None
    if traced:
        recorder.install(fl)
    inputs = recorder.call("corpus.inputs", make_inputs, fl, args.seed_class)
    setup_done = time.perf_counter()
    out = {"traced": traced, "setup_s": setup_done - started, "expected": inputs["expected"]}
    if args.mode == "round":
        r = Round(recorder, args.inject)
        probe = SpeedProbe()
        verify(fl, inputs, r)
        wall_s, verify_s = probe.stop()
        out.update(wall_s=wall_s, verify_s=verify_s, peak_rss_mb=peak_rss_mb(),
                   checked=r.checked, claims=r.claims, digest=r.digest())
        if traced:
            grown = spans.interned_counts(fl)
            r.counts.update({k: grown[k] - baseline[k] for k in grown})
            out["layers"] = {f"{name}.self_s": s for name, s in recorder.self_times().items()}
            out["layers"].update(r.counts)
            if args.trace_out:
                recorder.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
