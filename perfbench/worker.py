"""One benchmark process: set up a workload, then run its rounds.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--setup-only`` stops after set-up, so that ``run.py`` can time set-up in
several processes.  Set-up is everything from process start to the first
timed step: interpreter start, importing the package from the checkout's
``src/``, reading the calibration file and one untimed warm-up round at the
self-test size, which runs every lazy initialisation the timed rounds hit.

With ``--trace 1`` rounds run in pairs on identical inputs, one plain and one
traced (the order alternates), so that the difference of their times is the
tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
CALIBRATION = ROOT / "tests" / "fixtures" / "calibration.json"
DRAW_BLOCK = 100_000     # draws per timed block of SplitMix64.randbelow
DRAW_BLOCKS = 3


def load_package():
    """Import ``intricacy`` from this checkout's ``src/``, never from an
    installed copy."""
    init = ROOT / "src" / "intricacy" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from an intricacy checkout")
    sys.path.insert(0, str(init.parent.parent))
    import intricacy
    import intricacy.cli  # noqa: F401  (bound as intricacy.cli)
    if Path(intricacy.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported intricacy from {intricacy.__file__}")
    return intricacy


@dataclass(frozen=True)
class Paths:
    scratch: Path
    census_fraction_min: float


class Round:
    """Runs one round's steps, timing them and checking each item."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.wall_s = 0.0
        self.items: list[dict] = []
        self.preps: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _timed(self, fn):
        start = perf_counter()
        try:
            if self.tracer is None:
                return fn()
            with self.tracer.recording():
                return fn()
        finally:
            self.wall_s += perf_counter() - start

    def prep(self, kind: str, fn):
        """Timed preparation; an exception aborts the round."""
        start = perf_counter()
        out = self._timed(fn)
        self.preps.append({"kind": kind, "latency_s": perf_counter() - start})
        return out

    def item(self, kind: str, fn, check) -> None:
        start = perf_counter()
        try:
            out = self._timed(fn)
        except Exception:
            latency = perf_counter() - start
            fails = [traceback.format_exc(limit=-3)]
        else:
            latency = perf_counter() - start
            try:
                fails = check(out)
            except Exception:
                fails = ["check raised: " + traceback.format_exc(limit=-3)]
        self.items.append({"kind": kind, "latency_s": latency,
                           "failures": fails})

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value


def make_workload(ic, name, shape, seed, oracle_offset=0.0):
    OUT.mkdir(exist_ok=True)
    paths = Paths(OUT, workloads.census_fraction_min(CALIBRATION))
    return workloads.WORKLOADS[name](ic, shape, seed,
                                     workloads.Oracle(ic, oracle_offset), paths)


def run_round(workload, index, tracer=None) -> dict:
    rnd = Round(tracer)
    aborted = None
    try:
        workload.round(rnd, index)
    except Exception:
        aborted = traceback.format_exc(limit=-3)
    missing = workload.items_per_round() - len(rnd.items)
    if aborted is not None or missing:
        rnd.items += [{"kind": "aborted", "latency_s": None,
                       "failures": [aborted or "round ended early"]}] * missing
    return {"index": index, "traced": tracer is not None, "wall_s": rnd.wall_s,
            "items": rnd.items, "preps": rnd.preps, "counts": dict(rnd.counts)}


def time_draws(ic, seed: int) -> float:
    """Median ns per ``SplitMix64.randbelow(2)`` over a few timed blocks."""
    gen = ic.SplitMix64(seed)
    per_draw = []
    for _ in range(DRAW_BLOCKS):
        start = perf_counter()
        for _ in range(DRAW_BLOCK):
            gen.randbelow(2)
        per_draw.append((perf_counter() - start) / DRAW_BLOCK * 1e9)
    return sorted(per_draw)[DRAW_BLOCKS // 2]


def run(name: str, seed: int, seconds: float, trace: bool, *,
        shape=workloads.FULL, oracle_offset: float = 0.0,
        started: float | None = None, setup_only: bool = False) -> dict:
    """Set up and run workload ``name``; ``started`` is the monotonic time
    at which the process was spawned (default: now)."""
    started = time.monotonic() if started is None else started
    ic = load_package()
    workload = make_workload(ic, name, shape, seed, oracle_offset)
    run_round(make_workload(ic, name, workloads.TINY, seed), -1)
    setup_s = time.monotonic() - started
    if setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer(ic) if trace else None
    rounds = []
    begin = perf_counter()
    index = 0
    last = 0.0           # elapsed time of the previous round, checks included
    while index == 0 or perf_counter() - begin + last <= seconds:
        start = perf_counter()
        if tracer is None:
            rounds.append(run_round(workload, index))
        else:
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        rounds.append(run_round(workload, index, tracer))
                else:
                    rounds.append(run_round(workload, index))
        last = perf_counter() - start
        index += 1

    items = [it for r in rounds for it in r["items"]]
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": len(items),
        "failed": sum(1 for it in items if it["failures"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "intricacy": ic.__version__},
    }
    if tracer is not None:
        result["trace"] = {"spans": tracer.stats, "counts": dict(tracer.counts),
                           "ns_per_draw": time_draws(ic, seed)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="monotonic time at which the process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 started=args.started, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
