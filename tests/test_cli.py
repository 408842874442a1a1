import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qest.linalg
from qest.channel_io import CHANNEL_TYPES, channel_from_dict, demo_dict, matrix_to_json
from qest.catalog import depolarizing, gad, random_low_noise
from qest.cli import main
from qest.lownoise import enhancement_factor


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def dep_file(tmp_path):
    return write_json(tmp_path / "dep.json", {"dim": 2, "type": "depolarizing"})


@pytest.fixture
def gad_file(tmp_path):
    return write_json(tmp_path / "gad.json", {"dim": 2, "type": "gad", "betaE": 1.0})


@pytest.fixture
def random_file(tmp_path):
    return write_json(tmp_path / "rand.json", demo_dict("random", seed=42, num_m=3))


class TestValidate:
    def test_depolarizing_passes(self, dep_file, capsys):
        assert main(["validate", dep_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert all(r < 1e-12 for r in report["trace_preserving_residuals"].values())
        assert report["first_order_residual"] < 1e-12

    def test_unnormalized_kappa_fails(self, tmp_path, capsys):
        dep = depolarizing()
        payload = {
            "dim": 2,
            "type": "low_noise",
            "M": [matrix_to_json(m) for m in dep.noise_ops],
            "kappa": [[0.9, 0.0]],
            "N1": [matrix_to_json(dep.first_order[0])],
        }
        path = write_json(tmp_path / "bad.json", payload)
        assert main(["validate", path]) == 1

    def test_wrong_first_order_fails(self, tmp_path, capsys):
        dep = depolarizing()
        payload = {
            "dim": 2,
            "type": "low_noise",
            "M": [matrix_to_json(m) for m in dep.noise_ops],
            "kappa": [[1.0, 0.0]],
            "N1": [matrix_to_json(dep.first_order[0] + 0.01 * np.eye(2))],
        }
        path = write_json(tmp_path / "bad.json", payload)
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["first_order_residual"], 0.02, atol=1e-12)

    def test_overflowing_kappa_fails(self, tmp_path, capsys):
        dep = depolarizing()
        payload = {
            "dim": 2,
            "type": "low_noise",
            "M": [matrix_to_json(m) for m in dep.noise_ops],
            "kappa": [[1e200, 0.0]],
            "N1": [matrix_to_json(dep.first_order[0])],
        }
        path = write_json(tmp_path / "huge.json", payload)
        assert main(["validate", path]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_subnormal_noise_sum_passes(self, tmp_path, capsys):
        # entries +-1e-159 make lambda_max(sum M^dag M) subnormal: 0.9/lambda_max
        # overflows, yet the validity interval must stay finite
        op = [[[1e-159, 0.0], [-1e-159, 0.0]], [[1e-159, 0.0], [1e-159, 0.0]]]
        path = write_json(tmp_path / "weak.json", {"dim": 2, "type": "low_noise", "M": [op]})
        assert main(["validate", path]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["ok"] is True
        assert all(np.isfinite(float(eps)) for eps in report["trace_preserving_residuals"])
        assert err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["validate", "eta"])
    def test_overflowing_noise_operator_fails_in_one_line(self, tmp_path, capsys, command):
        # M^dag M overflows to inf: refused with exit 1 and no RuntimeWarning
        payload = {"dim": 2, "type": "low_noise", "M": [[[1e200, 0.0], [0.0, 1e200]]]}
        path = write_json(tmp_path / "huge.json", payload)
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("validation error")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "type": ', encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "incomplete.json", {"dim": 2, "type": "low_noise"})
        assert main(["validate", path]) == 2
        assert "missing required field 'M'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 3, "type": "depolarizing"},
            {"dim": 4, "type": "gad", "betaE": 1.0},
            {"dim": 7, "type": "unitary_rotation", "axis": [0.0, 0.0, 1.0]},
        ],
        ids=["depolarizing", "gad", "unitary_rotation"],
    )
    def test_catalog_type_must_declare_dim_2(self, tmp_path, capsys, payload):
        path = write_json(tmp_path / "wrong_dim.json", payload)
        for command in ("validate", "eta"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error") and "$.dim" in err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 4

    def test_unitary_file(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "rot.json", {"dim": 2, "type": "unitary_rotation", "axis": [0, 0, 1]}
        )
        assert main(["validate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    @pytest.mark.parametrize(
        "command", [["validate"], ["qfi", "--epsilon", "2.0", "--input", "1,0,0"]]
    )
    def test_barely_non_unitary_rotation_fails(self, tmp_path, capsys, command):
        # the axis passes the 1e-9 norm check of rotation_unitary, but U(2)
        # misses unitarity by 2.8e-10, more than the trace-preservation tolerance
        path = write_json(
            tmp_path / "edge.json",
            {"dim": 2, "type": "unitary_rotation", "axis": [0, 0, 1.0000000002]},
        )
        assert main([command[0], path] + command[1:]) == 1
        err = capsys.readouterr().err
        assert "not trace preserving" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"M": []}, "$.M: need at least one noise operator"),
            (
                {"M": [[[1, 0], [0, 1]], [[1, 0, 0]]]},
                "$.M[1]: operator shape (1, 3) does not match dim 2",
            ),
            (
                {"M": [[[0, 1], [0, 0]]], "kappa": [1], "N1": [[[0.5]]]},
                "$.N1[0]: operator shape (1, 1) does not match dim 2",
            ),
            ({"M": [[[0, 1], [0, 0]]], "kappa": [1]}, "$: missing required field 'N1'"),
        ],
    )
    def test_operator_list_errors(self, tmp_path, capsys, payload, message):
        path = write_json(tmp_path / "ops.json", {"dim": 2, "type": "low_noise", **payload})
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_tolerance_override(self, dep_file, monkeypatch):
        monkeypatch.setenv("QEST_TOL", "1e-30")
        # even exact generators carry float roundoff, so an absurd tolerance fails
        assert main(["validate", dep_file]) in (0, 1)
        for raw in ("not-a-number", "nan", "inf", "0", "-1"):
            monkeypatch.setenv("QEST_TOL", raw)
            assert main(["validate", dep_file]) == 1


class TestEta:
    def test_depolarizing(self, dep_file, capsys):
        assert main(["eta", dep_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "J_ZERO"
        np.testing.assert_allclose(report["eta"], 1.5, atol=1e-9)

    def test_gad(self, gad_file, capsys):
        assert main(["eta", gad_file]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["eta"], 1.0, atol=1e-9)
        assert report["regime"] == "SINGULAR_H"

    def test_both_records_agreement(self, dep_file, capsys):
        assert main(["eta", dep_file, "--method", "both"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agreement"] is not None and report["agreement"] < 1e-10

    def test_closed_on_singular_geometry(self, gad_file, capsys):
        assert main(["eta", gad_file, "--method", "closed"]) == 3

    def test_grid_adds_bruteforce(self, random_file, capsys):
        assert main(["eta", random_file, "--grid", "1500"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 1.0 - 1e-9 <= report["eta"] <= 1.5 + 1e-9
        np.testing.assert_allclose(report["eta_bruteforce"], report["eta"], atol=1e-4)

    def test_unitary_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "rot.json", {"dim": 2, "type": "unitary_rotation", "axis": [0, 0, 1]}
        )
        assert main(["eta", path]) == 3

    @pytest.mark.parametrize(
        "entry, value, where",
        [
            ((0, 0, 0, 0), float("nan"), "$.M[0][0][0][0]"),
            ((0, 1, 1, 1), float("inf"), "$.M[0][1][1][1]"),
            ((1, 0, 1), -float("inf"), "$.M[1][0][1]"),
            ((0, 0, 0), [True, 0], "$.M[0][0][0][0]"),
        ],
    )
    def test_non_finite_or_boolean_entry_is_a_parse_error(
        self, tmp_path, capsys, entry, value, where
    ):
        payload = demo_dict("random", seed=42, num_m=3)
        *outer, last = entry
        target = payload["M"]
        for i in outer:
            target = target[i]
        target[last] = value
        path = write_json(tmp_path / "bad.json", payload)
        assert main(["eta", path]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"dim": 2, "type": "gad", "betaE": True}, "$.betaE"),
            ({"dim": 2, "type": "unitary_rotation", "axis": [0, float("nan"), 1]}, "$.axis[1]"),
        ],
    )
    def test_bad_scalar_fields_are_parse_errors(self, tmp_path, capsys, payload, where):
        path = write_json(tmp_path / "bad.json", payload)
        assert main(["eta", path]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err


    def test_tiny_j_gives_finite_eta(self, tmp_path, capsys):
        # J ~ 8e-164; bench/oracle.eta gives (1.0, J_ZERO)
        ms = [np.zeros((2, 2)), np.array([[0, 1j], [1j, 0]]),
              1e-73 * np.array([[0, 1], [1j, 0]])]
        payload = {"dim": 2, "type": "low_noise", "M": [matrix_to_json(m) for m in ms]}
        path = write_json(tmp_path / "tiny.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["eta", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "J_ZERO"
        assert abs(report["eta"] - 1.0) <= 1e-9

    def test_solver_failure_is_a_domain_error(self, random_file, capsys, monkeypatch):
        def fail(a):  # what numpy's eigh gufunc writes when LAPACK fails
            return np.full(a.shape[:-1], np.nan), np.full(a.shape, np.nan, dtype=a.dtype)

        monkeypatch.setattr(qest.linalg, "_eigh_lo", fail)
        assert main(["eta", random_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and "did not converge" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestQfi:
    def test_ground_state(self, dep_file, capsys):
        assert main(["qfi", dep_file, "--epsilon", "0.1", "--input", "0,0,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["qfi"], 5.263157894736842, atol=1e-6)
        np.testing.assert_allclose(report["estimator_variance"], 0.19, atol=1e-6)
        np.testing.assert_allclose(
            report["estimator_variance"], report["inverse_qfi"], atol=1e-9
        )

    def test_bell_with_ancilla(self, dep_file, capsys):
        assert main(
            ["qfi", dep_file, "--epsilon", "0.1", "--input", "bell", "--ancilla"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["qfi"], 8.108108108108109, atol=1e-6)

    def test_divergent_region_rejected(self, dep_file, capsys):
        assert main(["qfi", dep_file, "--epsilon", "0", "--input", "0,0,1"]) == 3
        assert "leading-order" in capsys.readouterr().err

    def test_epsilon_outside_validity(self, gad_file):
        assert main(["qfi", gad_file, "--epsilon", "1.5", "--input", "0,0,1"]) == 3

    def test_bell_without_ancilla_rejected(self, dep_file):
        assert main(["qfi", dep_file, "--epsilon", "0.1", "--input", "bell"]) == 3

    def test_bad_input_spec(self, dep_file):
        assert main(["qfi", dep_file, "--epsilon", "0.1", "--input", "x"]) == 3

    def test_rotation_at_a_large_angle(self, tmp_path, capsys):
        # the QFI of a rotation is 1 at every angle; U is differentiated at a
        # fixed step, so only the rounding of U at 1e5 is left
        assert main(["demo", "unitary_rotation"]) == 0
        path = tmp_path / "rot.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["qfi", str(path), "--epsilon", "100000", "--input", "1,0,0"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["qfi"] - 1.0) < 1e-4

    @pytest.mark.parametrize("spec", ["nan,0,0", "0,0,inf"])
    def test_non_finite_bloch_input_is_named(self, dep_file, capsys, spec):
        assert main(["qfi", dep_file, "--epsilon", "0.05", "--input", spec]) == 1
        err = capsys.readouterr().err
        assert err == "validation error: Bloch vector has a NaN or infinite component\n"


class TestSweep:
    def test_header_and_convergence(self, dep_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", dep_file, "--eps-start", "1e-3", "--eps-end", "1e-1",
             "--steps", "12", "--out", str(out)]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epsilon,qfi_S,qfi_SA,eps_qfi_S,eps_qfi_SA"
        assert len(lines) == 13
        first = [float(v) for v in lines[1].split(",")]
        np.testing.assert_allclose(first[0], 1e-3, rtol=1e-12)
        # the scaled columns approach the leading coefficients 1/2 and 3/4
        np.testing.assert_allclose(first[3], 0.5, atol=2e-3)
        np.testing.assert_allclose(first[4], 0.75, atol=3e-3)

    def test_byte_exact_reproducibility(self, dep_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", dep_file, "--eps-start", "1e-3", "--eps-end", "1e-1", "--steps", "7"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_gad_sweep_ratio_approaches_one(self, gad_file, tmp_path):
        out = tmp_path / "gad.csv"
        assert main(
            ["sweep", gad_file, "--eps-start", "1e-3", "--eps-end", "1e-2",
             "--steps", "4", "--out", str(out)]
        ) == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text(encoding="utf-8").splitlines()[1:]
        ]
        for row in rows:
            np.testing.assert_allclose(row[4] / row[3], 1.0, atol=5e-3)

    def test_single_step(self, dep_file, tmp_path):
        out = tmp_path / "one.csv"
        assert main(
            ["sweep", dep_file, "--eps-start", "0.05", "--eps-end", "0.1",
             "--steps", "1", "--out", str(out)]
        ) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_unwritable_path(self, dep_file, tmp_path):
        assert main(
            ["sweep", dep_file, "--eps-start", "1e-2", "--eps-end", "1e-1",
             "--steps", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv")]
        ) == 4

    def test_bad_range(self, dep_file, tmp_path):
        assert main(
            ["sweep", dep_file, "--eps-start", "0.1", "--eps-end", "0.01",
             "--steps", "3", "--out", str(tmp_path / "x.csv")]
        ) == 3


@pytest.mark.parametrize("spec", ["x,0,0", "1,0", "1,0,0,0"])
@pytest.mark.parametrize("option", ["--input", "--axis"])
def test_a_malformed_triple_is_a_domain_error(dep_file, capsys, option, spec):
    argv = (["qfi", dep_file, "--epsilon", "0.1", "--input", spec] if option == "--input"
            else ["demo", "unitary_rotation", "--axis", spec])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: {option} needs") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["demo", "random", "--seed", "-1"],
    ["demo", "random", "--num-M", "7"],
    ["demo", "unitary_rotation", "--axis", "nan,0,0"],
    ["demo", "unitary_rotation", "--axis", "x,0,0"],
], ids=["seed=-1", "num_M=7", "axis=nan", "axis=x"])
def test_a_bad_demo_argument_is_refused_in_one_line(capsys, argv):
    assert main(argv) in (1, 3)
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err


class TestDemoAndRoundTrip:
    def test_demo_output_parses(self, capsys):
        for name in ("depolarizing", "gad", "unitary_rotation", "random"):
            assert main(["demo", name]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["type"] in ("depolarizing", "gad", "unitary_rotation", "low_noise")

    def test_demo_unknown_name(self, capsys):
        assert main(["demo", "wormhole"]) == 2

    def test_round_trip_preserves_eta(self):
        cases = [
            (demo_dict("depolarizing"), depolarizing()),
            (demo_dict("gad", beta_e=0.7), gad(0.7)),
            (demo_dict("random", seed=42, num_m=3), random_low_noise(42, num_m=3)),
        ]
        for payload, original in cases:
            rebuilt = channel_from_dict(json.loads(json.dumps(payload)))
            eta_a = enhancement_factor(rebuilt.low_noise.noise_ops).eta
            eta_b = enhancement_factor(original.noise_ops).eta
            assert abs(eta_a - eta_b) < 1e-12


class TestOperatorScale:
    """Operators of size 1e-170 build, validate and keep their eta; a noise
    sum that overflows is refused in one line."""

    def test_tiny_demo_keeps_eta(self, tmp_path, capsys):
        assert main(["demo", "random", "--scale", "1e-170"]) == 0
        path = tmp_path / "scaled.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["eta", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert abs(json.loads(out)["eta"] - enhancement_factor(random_low_noise(42).noise_ops).eta) < 1e-12

    def test_tiny_demo_brute_force(self, tmp_path, capsys):
        assert main(["demo", "random", "--scale", "1e-170"]) == 0
        path = tmp_path / "tiny.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["eta", str(path), "--grid", "1000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["eta_bruteforce"] - report["eta"]) <= 1e-4

    def test_tiny_demo_validates(self, tmp_path, capsys):
        assert main(["demo", "random", "--scale", "1e-170"]) == 0
        path = tmp_path / "tiny.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "NaN" not in out and json.loads(out)["ok"] is True

    def test_large_demo_validates(self, tmp_path, capsys):
        # the first-order residual is judged in units of the noise sum, which here is ~1e8
        assert main(["demo", "random", "--scale", "1e4"]) == 0
        path = tmp_path / "large.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["first_order_residual"] < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_noise_sum_is_refused_in_one_line(self, tmp_path, capsys):
        expected = "validation error: the noise sum overflows; scale the noise operators down\n"
        assert main(["demo", "random", "--scale", "1e160"]) == 1
        assert capsys.readouterr() == ("", expected)
        ms = [matrix_to_json(1e160 * m) for m in random_low_noise(42).noise_ops]
        path = write_json(tmp_path / "huge.json", {"dim": 2, "type": "low_noise", "M": ms})
        for command in ("validate", "eta"):
            assert main([command, path]) == 1
            assert capsys.readouterr() == ("", expected)


exponents = st.integers(min_value=-320, max_value=308)
signs = st.sampled_from((0.0, 1.0, -1.0))


@st.composite
def extreme_numbers(draw):
    """0 or +-10^e, anywhere in the double range, subnormals included."""
    return draw(signs) * 10.0 ** draw(exponents)


@st.composite
def extreme_matrices(draw):
    """2x2 complex matrix of entries 0 or +-10^e, one decade e per matrix,
    so that a file mixes tiny, ordinary and huge operators."""
    scale = 10.0 ** draw(exponents)
    return [[[draw(signs) * scale, draw(signs) * scale] for _ in range(2)] for _ in range(2)]


@st.composite
def extreme_low_noise_files(draw):
    payload = {"dim": 2, "type": "low_noise",
               "M": draw(st.lists(extreme_matrices(), min_size=1, max_size=3))}
    if draw(st.booleans()):
        num = draw(st.integers(min_value=1, max_value=2))
        payload["kappa"] = [[draw(extreme_numbers()), draw(extreme_numbers())]
                            for _ in range(num)]
        payload["N1"] = [draw(extreme_matrices()) for _ in range(num)]
    return payload


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@given(extreme_low_noise_files())
@settings(max_examples=150)
def test_exit_code_contract_on_extreme_entries(fuzz_dir, payload):
    # whatever finite numbers a channel file holds, validate and eta end with
    # a documented exit code, never with an exception
    path = write_json(fuzz_dir / "channel.json", payload)
    for command in ("validate", "eta"):
        assert 0 <= main([command, path]) <= 4


# the schema's keys, and keys a channel file might mistakenly use for them
FUZZ_KEYS = ("dim", "type", "M", "kappa", "N1", "betaE", "axis", "kappas", "first_order", "U")

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
# a list of 2x2 matrices of leaves, to reach the matrix readers
matrix_trees = st.lists(
    st.lists(st.lists(json_leaves, min_size=2, max_size=2), min_size=2, max_size=2),
    min_size=1, max_size=2,
)


@st.composite
def json_channel_trees(draw):
    """An object of random JSON trees under channel-file keys; about half the
    time ``type`` and ``dim`` are valid, so the trees reach the builders."""
    payload = {key: draw(matrix_trees if key in ("M", "N1") and draw(st.booleans()) else json_trees)
               for key in draw(st.sets(st.sampled_from(FUZZ_KEYS), max_size=5))}
    if draw(st.booleans()):
        payload.update(type=draw(st.sampled_from(CHANNEL_TYPES)), dim=2)
    return payload


@given(json_channel_trees())
@settings(max_examples=100)
def test_exit_code_contract_on_random_json_trees(fuzz_dir, payload):
    # whatever JSON tree a channel file holds, every command that reads one
    # ends with a documented exit code and a message, never a traceback
    path = write_json(fuzz_dir / "tree.json", payload)
    for argv in (["eta", path], ["validate", path], ["qfi", path, "--epsilon", "0.05", "--input", "0,0,1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert 0 <= code <= 4 and "Traceback" not in err.getvalue()
