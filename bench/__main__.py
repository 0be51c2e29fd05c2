"""blueforge benchmark: one closed-loop caller per workload.

    python3 -m bench --workload derive_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ./src. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). A summary
with the environment fingerprint goes to standard error and to
.bench_out/report-<workload>-<seed>-<trace>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter

from . import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 7
# The tail is the highest of these percentiles with >= 10 samples beyond it.
TAIL_LADDER = (99, 95, 90, 75, 50)
# Traced runs replay a fixed number of rounds (a few seconds untraced), so
# call counts repeat exactly.
TRACE_ROUNDS = {"derive_mix": 2, "spectra_catalog": 4, "point_counts": 2,
                "congruence_k0": 6}


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if os.environ.get("BLUEFORGE_BUDGET"):
        _fail("BLUEFORGE_BUDGET is set; it would change every default budget"
              " the workloads rely on. Unset it and run again.")
    if not os.path.isfile(os.path.join(SRC, "blueforge", "__init__.py")):
        _fail(f"no blueforge sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def setup_probe(workload, seed, digest):
    """Fresh-process set-up: import blueforge and build the catalog, timed
    and then calibrated like the queries. With `digest`, also the digest of
    the inputs this process generates (after the timed part), to check that
    inputs do not depend on the process."""
    before = [calibrate.sample() for _ in range(3)]
    t0 = perf_counter()
    from . import workloads
    workloads.build_catalog(workload)
    raw = perf_counter() - t0
    speed = statistics.median(before + [calibrate.sample()
                                        for _ in range(3)])
    out = {"setup_s": raw * calibrate.REF_S / speed, "raw_s": raw}
    if digest:
        from . import gen
        out["inputs"] = _digest(gen.make_inputs(workload, seed))
    print(json.dumps(out))


def measure_setup(workload, seed):
    """Median calibrated and raw set-up times over fresh processes, run one
    at a time, and the input digest the first of them generated."""
    times, raws, digest = [], [], None
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
            + (["--probe-digest"] if i == 0 else []),
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            _fail("set-up probe failed:\n" + proc.stderr)
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(data["setup_s"])
        raws.append(data["raw_s"])
        digest = data.get("inputs", digest)
    return statistics.median(times), statistics.median(raws), digest


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def fingerprint(workload, seed, digest):
    from blueforge.budget import Budget

    from . import gen
    default = Budget()
    return {"python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "workload": workload, "seed": seed,
            "inputs_sha256": digest,
            "budgets": {"catalog": gen.CATALOG_BUDGET,
                        "prove": gen.PROVE_BUDGET,
                        "refute": gen.REFUTE_BUDGET,
                        "congruence": gen.CONGRUENCE_BUDGET,
                        "finite_catalog_default": [default.max_degree,
                                                   default.max_terms,
                                                   default.max_steps]}}


class Loop:
    """The closed loop: issue a query, wait, check, issue the next."""

    def __init__(self, runner, queries, tracer=None, calibration=None):
        self.runner, self.queries = runner, queries
        self.tracer, self.calibration = tracer, calibration
        self.starts, self.latencies = [], []
        self.by_op = defaultdict(list)
        self.attempted = self.failed = self.decided = 0
        self.errors = []

    def _note(self, text):
        if len(self.errors) < 5:
            self.errors.append(text)

    def one(self, i):
        q = self.queries[i % len(self.queries)]
        if self.tracer is not None:
            self.tracer.qid = i
        if self.calibration is not None:
            self.calibration.maybe_sample()
        self.attempted += 1
        t0 = perf_counter()
        dt = 0.0
        try:
            fn = self.runner.prepare(q, i)
            t0 = perf_counter()
            ans = fn()
            dt = perf_counter() - t0
            ok, definite = self.runner.check(q, ans)
            if not ok:
                self._note(f"mismatch: {json.dumps(q)[:300]}")
        except Exception:                      # a failed query, not a crash
            ok, definite = False, False
            self._note(traceback.format_exc(limit=4))
        self.starts.append(t0)
        self.latencies.append(dt)
        self.by_op[q["op"]].append(dt)
        self.failed += not ok
        self.decided += bool(definite)

    def run_for(self, seconds):
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline:
            self.one(i)
            i += 1

    def run_count(self, n):
        t0 = perf_counter()
        for i in range(n):
            self.one(i)
        return perf_counter() - t0

    def calibrated(self):
        return [dt * self.calibration.factor(t0, dt)
                for t0, dt in zip(self.starts, self.latencies)]


def tail(latencies):
    """(percentile, value, samples beyond it) by the nearest-rank rule."""
    xs = sorted(latencies)
    for p in TAIL_LADDER:
        k = max(1, math.ceil(p / 100 * len(xs)))
        if len(xs) - k >= 10 or p == TAIL_LADDER[-1]:
            return p, xs[k - 1], len(xs) - k


def run_traced(runner, queries, tracer, n):
    """Replay the first n queries untraced, then traced: per-layer
    metrics."""
    from . import trace
    plain = Loop(runner, queries)
    wall_plain = plain.run_count(n)
    loop = Loop(runner, queries, tracer)
    tracer.install()
    try:
        wall_traced = loop.run_count(n)
    finally:
        tracer.uninstall()
    loop.failed += plain.failed
    loop.attempted += plain.attempted
    loop.errors = plain.errors + loop.errors
    units = dict(trace.METRICS)
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in tracer.metrics(wall_traced / wall_plain - 1).items()}
    extra = {"missing_targets": tracer.missing,
             "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced}
    return loop, metrics, extra


def run_timed(runner, queries, seconds, setup_s, setup_raw):
    """The closed loop for `seconds`: end-to-end metrics."""
    loop = Loop(runner, queries, calibration=calibrate.Calibration())
    loop.run_for(seconds)
    lat, raw = loop.calibrated(), loop.latencies
    p, tail_value, beyond = tail(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "queries_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "query_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "query_tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
        "decided_ratio": {"value": loop.decided / loop.attempted,
                          "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    extra = {"tail_percentile": p, "tail_samples_beyond": beyond,
             "samples": len(lat),
             "error_ratio": loop.failed / loop.attempted,
             "raw": {"setup_s": setup_raw,
                     "queries_per_s": len(raw) / sum(raw),
                     "query_p50_ms": statistics.median(raw) * 1e3,
                     "query_tail_ms": sorted(raw)[len(raw) - beyond - 1] * 1e3,
                     "busy_s": sum(raw)},
             "calibration": {"samples": len(loop.calibration.values),
                             "median_kernel_s": statistics.median(
                                 loop.calibration.values),
                             "ref_s": calibrate.REF_S}}
    return loop, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(prog="python3 -m bench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--probe-digest", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_library()
    from . import gen
    if args.workload not in gen.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(gen.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.probe_digest)
        return

    inputs = gen.make_inputs(args.workload, args.seed)
    deterministic = inputs == gen.make_inputs(args.workload, args.seed)
    digest = _digest(inputs)
    rounds = json.loads(inputs)
    queries = [q for rnd in rounds for q in rnd]
    scratch = os.path.join(OUT, f"{args.workload}-{args.seed}")
    os.makedirs(scratch, exist_ok=True)

    if not args.trace:
        setup_s, setup_raw, probe_digest = measure_setup(args.workload,
                                                         args.seed)
        deterministic = deterministic and probe_digest == digest

    from . import trace, workloads
    tracer = trace.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.qid = "setup"
    objs = workloads.build_catalog(args.workload)
    if tracer is not None:
        tracer.uninstall()
    bad_models = workloads.check_models(objs)
    runner = workloads.Runner(objs, scratch)

    if args.trace:
        loop, metrics, extra = run_traced(
            runner, queries, tracer,
            TRACE_ROUNDS[args.workload] * len(rounds[0]))
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}"
                                      ".json"))
    else:
        loop, metrics, extra = run_timed(runner, queries, args.seconds,
                                         setup_s, setup_raw)

    correct = loop.failed == 0 and deterministic and not bad_models
    report = {"fingerprint": fingerprint(args.workload, args.seed, digest),
              "deterministic_inputs": deterministic,
              "model_mismatches": bad_models, "errors": loop.errors[:5],
              "per_op": {op: {"n": len(v),
                              "median_ms": statistics.median(v) * 1e3,
                              "total_s": sum(v)}
                         for op, v in sorted(loop.by_op.items())},
              **extra}
    with open(os.path.join(OUT, f"report-{args.workload}-{args.seed}-"
                                f"{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({k: report[k] for k in report if k != "per_op"},
                     default=str), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
