"""Run one workload of the qest benchmark and print its metrics.

    python3 bench/run.py --workload eta_corpus --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; qest is imported from ``src/``.  The
workload is a closed loop: one process makes its calls one after another
(the ``cli`` workload runs one child process at a time) in whole rounds
until ``--seconds`` have passed.  Every output is checked (see
``workloads.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give the same run's figures under their
workload-specific names.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread (at most nproc) for this process and every child;
# set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("eta_corpus", "qfi_batch", "probe_search", "cli")

#: every reported time is rescaled to a machine on which one speed probe
#: takes this long (see SpeedProbe)
PROBE_REFERENCE_S = 0.020
#: least wall time between two probes of a timed run
PROBE_EVERY_S = 0.5


class SpeedProbe:
    """A fixed piece of numpy and Python work, unrelated to qest, timed now and then.

    The shared machine's speed drifts by up to a factor of two within
    minutes, and every operation of a run slows with it.  Timing this probe
    between operations and rescaling the run's times by
    ``PROBE_REFERENCE_S / median probe time`` removes about half of that
    drift (see README.md).  Like the operations, the probe mixes a batched
    einsum over 4x4 matrices with small eigensolves and interpreter work.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._states = rng.standard_normal((500, 4, 4)) + 1j * rng.standard_normal((500, 4, 4))
        self._sym = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 1.0]])
        self.times: list[float] = []
        self._last = -math.inf

    def run(self):
        t0 = time.perf_counter()
        for _ in range(20):
            np.einsum("ab,nbc,dc->nad", self._k, self._states, self._k.conj())
        for _ in range(300):
            np.linalg.eigh(self._sym)
            sum(j * 0.5 for j in range(20))
        self._last = time.perf_counter()
        self.times.append(self._last - t0)

    def maybe_run(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.run()

    def factor(self):
        """Multiplier that turns this run's times into reference-machine times."""
        return PROBE_REFERENCE_S / statistics.median(self.times)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_qest():
    """Import qest from the checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import qest
    import qest.cli  # noqa: F401  (also imports qest.channel_io)

    if Path(qest.__file__).resolve().parent != SRC / "qest":
        raise SystemExit(f"qest imported from {qest.__file__}, not from {SRC}")
    return qest


def build(name, q, seed, workdir, in_process):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(q, seed, str(workdir), env=child_env(), in_process=in_process)
    return cls(q, seed, str(workdir))


def measure(workload, seconds, probe):
    """Whole rounds until ``seconds`` have passed; returns raw latencies and tallies."""
    samples = {kind: [] for kind in workload.kinds}
    tally = {"attempted": 0, "failed": 0, "unexpected": 0, "work": 0, "busy": 0.0, "rounds": 0}
    failures = Counter()
    start = time.perf_counter()
    while True:
        for op in workload.round(tally["rounds"]):
            probe.maybe_run()
            tally["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a failed one
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                try:
                    reason = op.check(out)
                except Exception as exc:  # so is output the check cannot read
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason:
                tally["failed"] += 1
                tally["unexpected"] += not op.known_fault
                tag = "known fault" if op.known_fault else "UNEXPECTED"
                failures[f"{op.kind} ({tag}): {reason[:160]}"] += 1
            else:
                samples[op.kind].append(elapsed)
                tally["work"] += op.work
                tally["busy"] += elapsed
        tally["rounds"] += 1
        elapsed_run = time.perf_counter() - start
        if elapsed_run + 0.5 * elapsed_run / tally["rounds"] >= seconds:
            break
    for line, count in sorted(failures.items()):
        print(f"failed x{count}: {line}", file=sys.stderr)
    return samples, tally


def tail(values):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, or None."""
    for q, label in ((0.999, "p999"), (0.99, "p99"), (0.9, "p90")):
        if len(values) * (1.0 - q) >= 10:
            return label, statistics.quantiles(values, n=1000)[round(q * 1000) - 1]
    return None


def named_metrics(name, samples, tally):
    """The run's figures under the workload-specific names of the README."""
    rate = tally["work"] / tally["busy"]
    rows = []

    def med(label, values, unit, scale):
        if values:
            rows.append((label, statistics.median(values) * scale, unit, len(values)))

    if name == "eta_corpus":
        rows.append(("eta_per_s", rate, "channels/s", len(samples["eta"])))
        med("eta_p50_ms", samples["eta"], "ms", 1e3)
        t = tail(samples["eta"])
        if t:
            rows.append((f"eta_{t[0]}_ms", t[1] * 1e3, "ms", len(samples["eta"])))
    elif name == "qfi_batch":
        rows.append(("qfi_states_per_s", rate, "states/s", tally["work"]))
        med("qfi_call_p50_ms", samples["qfi2"] + samples["qfi4"], "ms", 1e3)
        med("qfi2_call_p50_ms", samples["qfi2"], "ms", 1e3)
        med("qfi4_call_p50_ms", samples["qfi4"], "ms", 1e3)
    elif name == "probe_search":
        med("search2_p50_ms", samples["search2"], "ms", 1e3)
        med("search4_p50_ms", samples["search4"] + samples["search4_unitary"], "ms", 1e3)
        med("point_qfi_p50_ms", samples["point_qfi"], "ms", 1e3)
        med("probes_p50_ms", samples["probes"], "ms", 1e3)
    else:
        med("cli_eta_s", samples["eta"] + samples["eta_grid"], "s", 1.0)
        med("cli_qfi_s", samples["qfi"], "s", 1.0)
        med("cli_sweep_s", samples["sweep"], "s", 1.0)
        med("cli_validate_s", samples["validate"], "s", 1.0)
        med("import_s", samples["import"], "s", 1.0)
    return rows


def time_setup(name, seed):
    """Wall time of a fresh interpreter that imports qest and builds the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=170)
    return time.perf_counter() - t0


def end_to_end(workload, samples, tally, setup_s):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    medians = [statistics.median(v) for v in samples.values() if v]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "work_per_s": tally["work"] / tally["busy"],
        "op_p50_ms": 1e3 * math.exp(statistics.fmean(math.log(m) for m in medians)),
    }


def per_layer(names, tracer, rounds_start, reference_start, rounds, factor):
    """Set-up total + per-round mean + reference round, for each traced layer.

    Unlike a run total, this does not grow with the number of rounds.
    """
    import spans

    phases = [
        (tracer.aggregate(0, rounds_start), 1.0),
        (tracer.aggregate(rounds_start, reference_start), 1.0 / rounds),
        (tracer.aggregate(reference_start), 1.0),
    ]
    imports = [spans.import_times(sys.executable, child_env(), ROOT) for _ in range(3)]
    values = {}
    for key in names:
        if key.startswith("import."):
            values[key] = statistics.median(run_[key] for run_ in imports) * factor
        else:
            span, field = key.rsplit(".", 1)
            value = sum(w * agg.get(span, {}).get(field, 0.0) for agg, w in phases)
            values[key] = value * factor if field == "self_s" else value
    return values


def run(args, workdir):
    if args.setup_only:
        build(args.workload, import_qest(), args.seed, workdir, in_process=False)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    setup_s = None
    if not args.trace:
        setups, setup_probe = [], SpeedProbe()
        for _ in range(SETUP_REPEATS):
            setup_probe.run()
            setups.append(time_setup(args.workload, args.seed))
        setup_probe.run()
        setup_s = statistics.median(setups) * setup_probe.factor()
    q = import_qest()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(q)
    workload = build(args.workload, q, args.seed, workdir, in_process=bool(args.trace))
    rounds_start = tracer.mark() if tracer else 0
    probe = SpeedProbe()
    raw, tally = measure(workload, args.seconds, probe)
    factor = probe.factor()
    samples = {kind: [t * factor for t in values] for kind, values in raw.items()}
    tally["busy"] *= factor

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally['rounds']} rounds, {tally['attempted']} attempted, {tally['failed']} failed "
          f"({tally['unexpected']} outside the known faults)")
    print(f"  speed probe median {statistics.median(probe.times) * 1e3:.3f} ms "
          f"over {len(probe.times)} probes: times below are measured x {factor:.4f}")
    for label, value, unit, count in named_metrics(args.workload, samples, tally):
        print(f"  {label} {value:.6g} {unit} (n={count})")

    if tracer is None:
        values = end_to_end(args.workload, samples, tally, setup_s)
    else:
        import workloads

        print(f"  traced work_per_s {tally['work'] / tally['busy']:.6g} 1/s")
        reference_start = tracer.mark()
        workloads.reference_round(q, str(workdir))
        values = per_layer(units, tracer, rounds_start, reference_start, tally["rounds"], factor)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    result = {
        "correct": tally["unexpected"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="import qest, build the inputs and exit (timed by the parent)")
    args = parser.parse_args()
    if not (SRC / "qest" / "__init__.py").is_file():
        print(f"no qest sources under {SRC}; run from the root of a qest checkout",
              file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
