"""Spans around calls into qest's public functions, for the traced run.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``qest`` module namespace that holds it (``qest.lownoise.hermitian_eig``
as well as ``qest.linalg.hermitian_eig``), and each traced method on its
class.  Spans (name, start and end in ns, parent, counters) stay in memory;
``dump`` writes them out once the run ends, and ``aggregate`` sums them by
name over one phase of the run (set-up, timed rounds, reference round).  A
span's self time is its duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
import time
from collections import defaultdict

#: (module, attribute, span name) of every traced function
FUNCTIONS = [
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("channels", "apply_channel", "channels.apply_channel"),
    ("channels", "validate_trace_preserving", "channels.validate_trace_preserving"),
    ("estimation", "maximize_qfi_pure", "estimation.maximize_qfi_pure"),
    ("estimation", "channel_qfi", "estimation.channel_qfi"),
    ("lownoise", "enhancement_factor", "lownoise.enhancement_factor"),
    ("lownoise", "noise_geometry", "lownoise.noise_geometry"),
    ("lownoise", "eta_bruteforce", "lownoise.eta_bruteforce"),
    ("lownoise", "leading_qfi_coefficient", "lownoise.leading_qfi_coefficient"),
    ("lownoise", "optimal_input_states", "lownoise.optimal_input_states"),
    ("unitary", "log_hamiltonian", "unitary.log_hamiltonian"),
    ("unitary", "unitary_qfi_max", "unitary.unitary_qfi_max"),
    ("catalog", "random_low_noise", "catalog.random_low_noise"),
    ("channel_io", "load_channel_file", "channel_io.load_channel_file"),
    ("cli", "cmd_eta", "cli.main.eta"),
    ("cli", "cmd_qfi", "cli.main.qfi"),
    ("cli", "cmd_sweep", "cli.main.sweep"),
    ("cli", "cmd_validate", "cli.main.validate"),
]

#: (module, class, method, span name) of every traced method
METHODS = [
    ("channels", "ChannelFamily", "evaluate", "channels.ChannelFamily.evaluate"),
    ("estimation", "QfiEvaluator", "__init__", "estimation.QfiEvaluator.init"),
    ("estimation", "QfiEvaluator", "qfi", "estimation.QfiEvaluator.qfi"),
]

_ITEMSIZE_COMPLEX = 16


def _leading(shape):
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _counts(name, args):
    """Span name and work counters of one call, from its arguments' shapes."""
    if name == "linalg.hermitian_eig":
        shape = getattr(args[0], "shape", None)
        if shape is None or len(shape) < 2:
            return name, {}
        return f"{name}.n{shape[-1]}", {"matrices": _leading(shape)}
    if name == "channels.apply_channel":
        ch, rho = args[0], args[1]
        shape = getattr(rho, "shape", ())
        states = _leading(shape)
        # per Kraus operator: read the states, write the product, then read
        # and write the accumulator (four passes over a states-sized array)
        computed = 4 * len(ch.kraus) * states * ch.dim * ch.dim * _ITEMSIZE_COMPLEX
        return name, {"states": states, "computed_bytes": computed}
    if name == "estimation.QfiEvaluator.qfi":
        return name, {"states": _leading(getattr(args[1], "shape", ()))}
    if name == "lownoise.leading_qfi_coefficient":
        return name, {"points": _leading(getattr(args[1], "shape", ()))}
    return name, {}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: list[dict[str, int]] = []
        self._stack: list[int] = []

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, counts = _counts(name, args)
            idx = len(self.names)
            self.names.append(span_name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.counts.append(counts)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def install(self, qest_pkg):
        """Wrap every traced function and method of an imported qest package."""
        modules = [m for n, m in sys.modules.items() if n == "qest" or n.startswith("qest.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(getattr(qest_pkg, mod_name), attr)
            wrapper = self.wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(getattr(qest_pkg, mod_name), cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), name))

    def mark(self):
        """Index of the next span, to split the run into phases."""
        return len(self.names)

    def aggregate(self, lo=0, hi=None):
        """``{span name: {"calls", "self_s", counters...}}`` over spans lo..hi-1.

        A phase boundary never cuts through a span, so every child of a span
        in the range is in the range too.
        """
        hi = len(self.names) if hi is None else hi
        child_ns = [0] * (hi - lo)
        for idx in range(lo, hi):
            if self.parents[idx] >= lo:
                child_ns[self.parents[idx] - lo] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx in range(lo, hi):
            name, parent = self.names[idx], self.parents[idx]
            out[name]["calls"] += 1
            out[name]["self_s"] += (self.ends[idx] - self.starts[idx] - child_ns[idx - lo]) * 1e-9
            for key, value in self.counts[idx].items():
                out[name][key] += value
            if (
                name == "estimation.QfiEvaluator.qfi"
                and parent >= lo
                and self.names[parent] == "estimation.maximize_qfi_pure"
            ):
                out["estimation.maximize_qfi_pure"]["qfi_calls"] += 1
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start and end (ns), parent index, counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                row = [name, self.starts[idx], self.ends[idx], self.parents[idx], self.counts[idx]]
                fh.write(json.dumps(row) + "\n")


def import_times(python, env, cwd):
    """Import cost of numpy, scipy.optimize and qest itself, in seconds.

    From ``python -X importtime -c "import qest"``: numpy and scipy(.optimize)
    are their cumulative times; qest is its cumulative time minus those two.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import qest"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cum, mod = parts[1], parts[2].strip()
        if mod in ("numpy", "scipy", "scipy.optimize", "qest") and mod not in cumulative:
            cumulative[mod] = int(cum) * 1e-6
    numpy_s = cumulative["numpy"]
    scipy_s = cumulative.get("scipy", 0.0) + cumulative.get("scipy.optimize", 0.0)
    return {
        "import.numpy.self_s": numpy_s,
        "import.scipy_optimize.self_s": scipy_s,
        "import.qest.self_s": cumulative["qest"] - numpy_s - scipy_s,
    }
