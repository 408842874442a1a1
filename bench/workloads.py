"""The four workloads: seeded inputs built through qest, and rounds of checked operations.

Each workload is built from ``(qest modules, seed, work directory)``.  Its
constructor is the set-up the benchmark times (inputs through
``qest.catalog``, channel files through ``qest.channel_io``); ``round(r)``
returns the operations of round r.  Every round holds the same operations in
the same proportion, so the share of failed operations does not depend on
how many rounds a run makes.  Each operation is checked against ``oracle``,
which does not import qest, or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

ETA_TOL = 1e-9  # |eta - oracle|, and the slack on 1 <= eta <= 3/2
BRUTE_TOL = 1e-4  # |eta_bruteforce - oracle|
LEADING_RTOL = 1e-9  # leading coefficient at the optimal probes
QFI_RTOL = 1e-6  # |QFI - oracle| <= QFI_RTOL |oracle| + QFI_ATOL_EPS / eps
QFI_ATOL_EPS = 1e-9
SEARCH_SAMPLES = 256  # random probes a search must not lose to


@dataclass
class Op:
    """One timed call: ``run`` is timed, ``check`` returns None or a failure reason."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: int = 1
    #: fails today because of a fault named in CHANGES.md
    known_fault: bool = False


def qfi_mismatch(got, ref, eps):
    got = np.asarray(got, dtype=float)
    bad = np.abs(got - ref) > QFI_RTOL * np.abs(ref) + QFI_ATOL_EPS / eps
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"QFI {got.flat[i]!r} vs oracle {np.asarray(ref).flat[i]!r} at eps={eps}"
    return None


def eta_mismatch(eta, regime, noise_ops):
    ref_eta, ref_regime, _, _ = oracle.eta(noise_ops)
    if not 1.0 - ETA_TOL <= eta <= 1.5 + ETA_TOL:
        return f"eta {eta!r} outside [1, 3/2]"
    if abs(eta - ref_eta) > ETA_TOL:
        return f"eta {eta!r} vs oracle {ref_eta!r}"
    if regime != ref_regime:
        return f"regime {regime} vs oracle {ref_regime}"
    return None


def normalized_random(q, seed, num_m):
    """Seeded random noise operators scaled so that ``lambda_max(sum M^dag M) = 1``.

    The canonical channel is then valid up to eps = 0.9, so every eps of
    the benchmark's grids lies inside its validity interval.
    """
    ms = q.catalog.random_low_noise(seed, num_m=num_m).noise_ops
    lam = np.linalg.eigvalsh(sum(m.conj().T @ m for m in ms))[-1]
    return [m / np.sqrt(lam) for m in ms]


def random_pure(rng, count, dim):
    psi = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def random_unitaries(rng, count):
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    u, _ = np.linalg.qr(z)
    return u


def random_max_entangled(rng, count):
    """``(U x I)|Phi+>`` for random qubit unitaries U."""
    return random_unitaries(rng, count).reshape(count, 4) / np.sqrt(2.0)


def reduced_system(psi):
    """System (first qubit) reduced state of a two-qubit pure state."""
    m = np.asarray(psi).reshape(2, 2)
    return m @ m.conj().T


def purification(x):
    """A two-qubit pure state whose first-qubit reduced state has Bloch vector x."""
    p, v = np.linalg.eigh(oracle.bloch_density(x))
    p = np.clip(p, 0.0, None)
    return sum(np.sqrt(p[i]) * np.kron(v[:, i], np.eye(2)[i]) for i in range(2))


# ---------------------------------------------------------------------------
# eta_corpus
# ---------------------------------------------------------------------------

ETA_CORPUS = 1000  # seeded random channels per run
ETA_CHUNK = 100  # of them in each round
GAD_BETAS = (0.1, 1.0, 5.0)
#: fixed, seed-independent weak-noise slice: C04 channels 0..11 and the
#: random_low_noise(83, num_m=4) repro, every operator scaled by 1e-6
WEAK_SEEDS = tuple((s, 1 + s % 6) for s in range(12)) + ((83, 4),)
WEAK_SCALE = 1e-6


class EtaCorpus:
    kinds = ("eta",)

    def __init__(self, q, seed, workdir):
        self.q = q
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=ETA_CORPUS)
        self.random = [
            q.catalog.random_low_noise(int(s), num_m=1 + i % 6).noise_ops
            for i, s in enumerate(seeds)
        ]
        self.fixed = [q.catalog.depolarizing().noise_ops] + [
            q.catalog.gad(b).noise_ops for b in GAD_BETAS
        ]
        self.weak = [
            tuple(WEAK_SCALE * m for m in q.catalog.random_low_noise(s, num_m=n).noise_ops)
            for s, n in WEAK_SEEDS
        ]

    def _op(self, ms, known_fault=False):
        def run():
            return self.q.lownoise.enhancement_factor(ms, method="DIRECT")

        return Op("eta", run, lambda rep: eta_mismatch(rep.eta, rep.regime, ms),
                  known_fault=known_fault)

    def round(self, r):
        start = (r * ETA_CHUNK) % ETA_CORPUS
        chunk = self.random[start:start + ETA_CHUNK]
        return (
            [self._op(ms) for ms in chunk + self.fixed]
            + [self._op(ms, known_fault=True) for ms in self.weak]
        )


# ---------------------------------------------------------------------------
# qfi_batch
# ---------------------------------------------------------------------------

QFI_EPS = (1e-3, 1e-2, 1e-1)
QFI_BATCH = 2000
QFI_POOL = 8  # seeded random canonical channels, two per round
QFI_GAD_BETAS = (0.5, 2.0)


class QfiBatch:
    kinds = ("qfi2", "qfi4")

    def __init__(self, q, seed, workdir):
        self.q = q
        rng = np.random.default_rng(seed)
        ch = q.channels
        self.channels = [(q.catalog.depolarizing(), oracle.depolarizing_family())]
        self.channels += [(q.catalog.gad(b), oracle.gad_family(b)) for b in QFI_GAD_BETAS]
        for i in range(QFI_POOL):
            ms = normalized_random(q, int(rng.integers(2**31 - 1)), 1 + i % 6)
            self.channels.append((ch.from_noise_operators(ms), oracle.canonical_family(ms)))
        self.families = [
            (ch.family_from_low_noise(ln), ch.extend_family(ch.family_from_low_noise(ln), 2))
            for ln, _ in self.channels
        ]
        half = QFI_BATCH // 2
        self.inputs = {
            "qfi2": [oracle.projector(random_pure(rng, QFI_BATCH, 2)) for _ in range(2)],
            "qfi4": [
                oracle.projector(
                    np.concatenate([random_pure(rng, half, 4), random_max_entangled(rng, half)])
                )
                for _ in range(2)
            ],
        }
        self._oracle = {}

    def _reference(self, idx, eps, kind, b):
        key = (idx, eps, kind, b)
        if key not in self._oracle:
            fam = self.channels[idx][1]
            if kind == "qfi4":
                fam = fam.extended()
            self._oracle[key] = oracle.qfi(fam, eps, self.inputs[kind][b])
        return self._oracle[key]

    def round(self, r):
        chosen = [0, 1 + r % 2, 3 + (2 * r) % QFI_POOL, 3 + (2 * r + 1) % QFI_POOL]
        b = r % 2
        ops = []
        for idx in chosen:
            for eps in QFI_EPS:
                for kind, fam in zip(self.kinds, self.families[idx]):
                    rho = self.inputs[kind][b]

                    def run(fam=fam, eps=eps, rho=rho):
                        return self.q.estimation.QfiEvaluator(fam, eps).qfi(rho)

                    def check(vals, idx=idx, eps=eps, kind=kind):
                        return qfi_mismatch(vals, self._reference(idx, eps, kind, b), eps)

                    ops.append(Op(kind, run, check, work=len(rho)))
        return ops


# ---------------------------------------------------------------------------
# probe_search
# ---------------------------------------------------------------------------

SEARCH_EPS = 0.05
SWEEP_EPS = tuple(np.geomspace(1e-3, 1e-1, 6))
THETA = 0.7
#: base channels (C04 seeds 0..11) and random unitary families, one of each per round
PROBE_POOL = 12


class ProbeSearch:
    kinds = ("search2", "search4", "search4_unitary", "probes", "point_qfi")

    def __init__(self, q, seed, workdir):
        self.q = q
        rng = np.random.default_rng(seed)
        ch = q.channels
        # A search's cost depends strongly on the channel, so every seed uses the
        # same base channels, each conjugated by a seeded random unitary: the
        # inputs change with the seed while runs stay comparable.
        self.noise = []
        for i in range(PROBE_POOL):
            u = random_unitaries(rng, 1)[0]
            ms = [u @ m @ u.conj().T for m in normalized_random(q, i, 1 + i % 6)]
            fam = ch.family_from_low_noise(ch.from_noise_operators(ms))
            self.noise.append((ms, fam, ch.extend_family(fam, 2), oracle.canonical_family(ms)))
        self.unitaries = []
        for _ in range(PROBE_POOL):
            # random eigenbasis and offset, spectral gap 1: the squared gap is
            # the maximal QFI, and a unit gap keeps the checks' tolerances absolute
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            gen = 0.5 * (z + z.conj().T)
            w, v = np.linalg.eigh(gen)
            gen, w = gen / (w[1] - w[0]), w / (w[1] - w[0])

            def build(theta, w=w, v=v):
                return (v * np.exp(-1j * theta * w)) @ v.conj().T

            fam = q.unitary.UnitaryFamily(parameter="theta", validity=(-10.0, 10.0),
                                          build=build, dim=2)
            self.unitaries.append((gen, fam))
        self.samples2 = random_pure(rng, SEARCH_SAMPLES, 2)
        product = np.einsum("ni,j->nij", self.samples2, np.eye(2)[0]).reshape(-1, 4)
        self.samples4 = np.concatenate([random_pure(rng, SEARCH_SAMPLES, 4), product])
        self._best_sample = {}

    def _sample_max(self, i, dim):
        if (i, dim) not in self._best_sample:
            fam = self.noise[i][3]
            states = self.samples2 if dim == 2 else self.samples4
            if dim == 4:
                fam = fam.extended()
            self._best_sample[(i, dim)] = float(
                oracle.qfi(fam, SEARCH_EPS, oracle.projector(states)).max()
            )
        return self._best_sample[(i, dim)]

    def _search_op(self, i, dim):
        ms, fam, fam_ext, ofam = self.noise[i]
        target = fam if dim == 2 else fam_ext

        def run():
            return self.q.estimation.maximize_qfi_pure(target, SEARCH_EPS, dim)

        def check(result):
            psi, value = result
            ref_fam = ofam if dim == 2 else ofam.extended()
            attained = oracle.qfi(ref_fam, SEARCH_EPS, oracle.projector(psi))
            reason = qfi_mismatch(value, attained, SEARCH_EPS)
            if reason:
                return "search value not attained by its state: " + reason
            if value < (1.0 - QFI_RTOL) * self._sample_max(i, dim):
                return f"search value {value!r} below a random probe's {self._sample_max(i, dim)!r}"
            return None

        return Op(f"search{dim}", run, check)

    def _unitary_op(self, i):
        gen, fam = self.unitaries[i]
        q = self.q

        def run():
            gap_sq, _ = q.unitary.unitary_qfi_max(q.unitary.log_hamiltonian(fam, THETA))
            ext = q.channels.extend_family(q.unitary.unitary_channel_family(fam), 2)
            psi, best = q.estimation.maximize_qfi_pure(ext, THETA, 4)
            return gap_sq, psi, best

        def check(result):
            gap_sq, psi, best = result
            ref = oracle.unitary_qfi_max(gen)
            if abs(gap_sq - ref) > QFI_RTOL * ref:
                return f"unitary_qfi_max {gap_sq!r} vs squared gap {ref!r}"
            if abs(best - ref) > QFI_RTOL * ref:
                return f"extended search {best!r} vs squared gap {ref!r}"
            attained = oracle.qfi(oracle.unitary_family(gen).extended(), THETA, oracle.projector(psi))
            if abs(attained - best) > QFI_RTOL * ref:
                return f"extended search value {best!r} not attained ({attained!r})"
            return None

        return Op("search4_unitary", run, check)

    def round(self, r):
        i = r % PROBE_POOL
        ms, fam, fam_ext, ofam = self.noise[i]
        probes = {}
        q = self.q

        def run_probes():
            report = q.lownoise.enhancement_factor(ms)
            probes["states"] = q.lownoise.optimal_input_states(report)
            return report

        def check_probes(report):
            reason = eta_mismatch(report.eta, report.regime, ms)
            if reason:
                return reason
            pure, ext = probes["states"]
            for got, ref in (
                (oracle.leading_coefficient(ms, oracle.projector(pure)), report.leading_pure),
                (oracle.leading_coefficient(ms, reduced_system(ext)), report.leading_extended),
            ):
                if abs(got - ref) > LEADING_RTOL * abs(ref):
                    return f"probe leading coefficient {got!r} vs reported {ref!r}"
            _, _, pure_ref, ext_ref = oracle.eta(ms)
            tr_h = oracle.geometry(ms)[2]
            for got, ref in ((report.leading_pure, pure_ref), (report.leading_extended, ext_ref)):
                if abs(got - ref * tr_h) > LEADING_RTOL * tr_h:
                    return f"leading coefficient {got!r} vs oracle {ref * tr_h!r}"
            return None

        ops = [
            self._search_op(i, 2),
            self._search_op(i, 4),
            self._unitary_op(i),
            Op("probes", run_probes, check_probes),
        ]
        for eps in SWEEP_EPS:
            for extended in (False, True):

                def run(eps=eps, extended=extended):
                    if "states" not in probes:
                        raise RuntimeError("no probes: the probe operation failed")
                    psi = probes["states"][1 if extended else 0]
                    return psi, q.estimation.channel_qfi(
                        fam_ext if extended else fam, oracle.projector(psi), eps
                    ).qfi

                def check(result, eps=eps, extended=extended):
                    psi, value = result
                    ref_fam = ofam.extended() if extended else ofam
                    return qfi_mismatch(value, oracle.qfi(ref_fam, eps, oracle.projector(psi)), eps)

                ops.append(Op("point_qfi", run, check))
        return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_EPS = 0.05
SWEEP_ARGS = ("--eps-start", "1e-3", "--eps-end", "1e-1", "--steps", "20")
GRID = 10000


class Cli:
    kinds = ("import", "eta", "eta_grid", "qfi", "sweep", "validate")

    def __init__(self, q, seed, workdir, env=None, in_process=False):
        self.q = q
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        rng = np.random.default_rng(seed)
        self.ms = normalized_random(q, int(rng.integers(2**31 - 1)), 2 + seed % 5)
        x = rng.standard_normal(3)
        self.bloch = x / np.linalg.norm(x)
        io_ = q.channel_io
        files = {
            "dep.json": io_.demo_dict("depolarizing"),
            "rand.json": {"dim": 2, "type": "low_noise",
                          "M": [io_.matrix_to_json(m) for m in self.ms]},
        }
        # malformed files: one entry of M is NaN, or the JSON literal true
        for name, entry in (("nan.json", float("nan")), ("true.json", True)):
            m = [[[entry, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
            files[name] = {"dim": 2, "type": "low_noise", "M": [m]}
        for name, data in files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        self._sweep_ref = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def invoke(self, *args):
        """``qest <args>``: a child process, or ``cli.main`` in the traced run."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.q.cli.main(list(args))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "qest.cli", *args], env=self.env, cwd=self.workdir,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _json(result):
        code, out, err = result
        if code != 0:
            return None, f"exit {code}: {err.strip()[-200:]}"
        return json.loads(out), None

    def _sweep_reference(self):
        """Oracle QFI at the oracle's own optimal probes on the sweep grid."""
        if self._sweep_ref is None:
            h, j, tr_h = oracle.geometry(self.ms)
            _, x_sphere = oracle.sphere_min(h / tr_h, j / tr_h)
            _, _, pure, extended = oracle.eta(self.ms)
            w, v = np.linalg.eigh(h / tr_h)
            keep = w > oracle.REL_TOL * w[-1]
            x_ball = -(v[:, keep] @ ((v.T @ (j / tr_h))[keep] / w[keep])) if extended > pure else x_sphere
            fam = oracle.canonical_family(self.ms)
            grid = np.geomspace(1e-3, 1e-1, 20)
            self._sweep_ref = (
                grid,
                np.array([oracle.qfi(fam, e, oracle.bloch_density(x_sphere)) for e in grid]),
                np.array([oracle.qfi(fam.extended(), e, oracle.projector(purification(x_ball)))
                          for e in grid]),
            )
        return self._sweep_ref

    def _check_sweep(self, name, twin=None):
        def check(result):
            code, _, err = result
            if code != 0:
                return f"sweep exit {code}: {err.strip()[-200:]}"
            with open(self.path(name), "rb") as fh:
                data = fh.read()
            if twin is not None:
                with open(self.path(twin), "rb") as fh:
                    if fh.read() != data:
                        return "sweep CSV differs between two invocations"
            rows = [[float(v) for v in line.split(",")] for line in data.decode().splitlines()[1:]]
            grid, ref_s, ref_sa = self._sweep_reference()
            if len(rows) != len(grid):
                return f"sweep wrote {len(rows)} rows, expected {len(grid)}"
            for row, eps, a, b in zip(rows, grid, ref_s, ref_sa):
                reason = qfi_mismatch([row[1], row[2]], np.array([a, b]), eps)
                if reason or abs(row[0] - eps) > 1e-15 * eps:
                    return reason or f"sweep eps {row[0]!r} vs {eps!r}"
            return None

        return check

    def _sweep_op(self, name, twin=None):
        def run():
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(name))
            return self.invoke("sweep", self.path("rand.json"), *SWEEP_ARGS, "--out", self.path(name))

        return Op("sweep", run, self._check_sweep(name, twin))

    def round(self, r):
        rand, dep = self.path("rand.json"), self.path("dep.json")
        spec = ",".join(f"{v:.17g}" for v in self.bloch)

        def check_eta(result):
            out, reason = self._json(result)
            return reason or eta_mismatch(out["eta"], out["regime"], self.ms)

        def check_eta_grid(result):
            out, reason = self._json(result)
            reason = reason or eta_mismatch(out["eta"], out["regime"], self.ms)
            if reason:
                return reason
            ref = oracle.eta(self.ms)[0]
            if abs(out["eta_bruteforce"] - ref) > BRUTE_TOL:
                return f"eta_bruteforce {out['eta_bruteforce']!r} vs oracle {ref!r}"
            return None

        def check_qfi_bloch(result):
            out, reason = self._json(result)
            ref = oracle.qfi(oracle.canonical_family(self.ms), CLI_EPS, oracle.bloch_density(self.bloch))
            return reason or qfi_mismatch(out["qfi"], ref, CLI_EPS)

        def check_qfi_bell(result):
            out, reason = self._json(result)
            closed = 3.0 / (CLI_EPS * (4.0 - 3.0 * CLI_EPS))
            return reason or qfi_mismatch(out["qfi"], closed, CLI_EPS)

        def check_validate(result):
            out, reason = self._json(result)
            return reason or (None if out["ok"] is True else "validate reported ok = false")

        def check_parse_error(result):
            code, _, _ = result
            return None if code == 2 else f"malformed file: exit {code}, expected 2"

        eps = str(CLI_EPS)
        return [
            Op("import", self.import_qest,
               lambda res: None if res[0] == 0 else f"exit {res[0]}: {res[2][-200:]}"),
            Op("eta", lambda: self.invoke("eta", rand), check_eta),
            Op("eta_grid", lambda: self.invoke("eta", rand, "--method", "both", "--grid", str(GRID)),
               check_eta_grid),
            Op("qfi", lambda: self.invoke("qfi", rand, "--epsilon", eps, f"--input={spec}"),
               check_qfi_bloch),
            Op("qfi", lambda: self.invoke("qfi", dep, "--epsilon", eps, "--input", "bell", "--ancilla"),
               check_qfi_bell),
            self._sweep_op("a.csv"),
            self._sweep_op("b.csv", twin="a.csv"),
            Op("validate", lambda: self.invoke("validate", rand), check_validate),
            Op("eta", lambda: self.invoke("eta", self.path("nan.json")), check_parse_error,
               known_fault=True),
            Op("eta", lambda: self.invoke("eta", self.path("true.json")), check_parse_error,
               known_fault=True),
        ]

    def import_qest(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import qest"], env=self.env, cwd=self.workdir,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr


WORKLOADS = {
    "eta_corpus": EtaCorpus,
    "qfi_batch": QfiBatch,
    "probe_search": ProbeSearch,
    "cli": Cli,
}


def reference_round(q, workdir):
    """One call into every traced function, on fixed inputs.

    The traced run ends with this round on every workload, so that no layer
    reads a constant zero time; it is the same fixed work on each workload.
    """
    ms = normalized_random(q, 0, 3)
    ln = q.channels.from_noise_operators(ms)
    report = q.lownoise.enhancement_factor(ms)
    pure, _ = q.lownoise.optimal_input_states(report)
    q.lownoise.eta_bruteforce(ms, 1000)
    fam = q.channels.family_from_low_noise(ln)
    q.estimation.channel_qfi(fam, oracle.projector(pure), SEARCH_EPS)
    small = q.estimation.SearchConfig(sphere_points=50, schmidt_points=3, refine=False)
    q.estimation.maximize_qfi_pure(q.channels.extend_family(fam, 2), SEARCH_EPS, 4, search=small)
    q.unitary.unitary_qfi_max(q.unitary.log_hamiltonian(q.catalog.rotation_unitary([0, 0, 1]), THETA))
    cli = Cli(q, 0, workdir, in_process=True)
    rand = cli.path("rand.json")
    cli.invoke("validate", rand)
    cli.invoke("eta", rand)
    cli.invoke("qfi", rand, "--epsilon", str(CLI_EPS), "--input", "0,0,1")
    cli.invoke("sweep", rand, "--eps-start", "1e-2", "--eps-end", "1e-1", "--steps", "2",
               "--out", cli.path("ref.csv"))
