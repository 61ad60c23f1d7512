"""The benchmark's output checks accept real outputs and reject wrong ones.

    python3 -m pytest bench/test_checks.py

Each test runs the workload's own commands (seed 0, round 0) through
bootperc.cli.main, checks that the outputs pass, then changes one value
and checks that the output now fails.
"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from bootperc import cli  # noqa: E402


def _run_ops(ops, tmp_path) -> dict:
    outputs = {}
    for name, argv in ops:
        out = tmp_path / f"{name}.out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        outputs[name] = out.read_text()
    return outputs


def _ops(workload: str, names=None) -> list:
    ops = workloads.WORKLOADS[workload](0, 0)
    return [op for op in ops if names is None or op[0] in names]


def _problems(check, outputs: dict) -> dict:
    return {op: why for op, why in check(outputs).items() if why}


def _edit_csv(text: str, edit) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        edit(rows[0], row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def bp_outputs(tmp_path_factory):
    return _run_ops(_ops("bp-mc"), tmp_path_factory.mktemp("bp"))


def test_bp_outputs_pass(bp_outputs):
    assert _problems(checks.check_bp_mc, bp_outputs) == {}


def _times_1_5(p_hat: float) -> float:
    """p_hat * 1.5, rounded to a whole number of hits so that only the
    binomial test can tell."""
    trials = workloads.BP_TRIALS
    return round(1.5 * p_hat * trials) / trials


@pytest.mark.parametrize("op", ["survive-r2", "survive-r3", "hit"])
def test_p_hat_scaled_by_1_5_fails(bp_outputs, op):
    text = bp_outputs[op]
    if op == "survive-r2":
        def scale(header, row):
            col = header.index("p_hat")
            row[col] = repr(_times_1_5(float(row[col])))

        wrong = _edit_csv(text, scale)
    else:
        rec = json.loads(text)
        rec["p_hat"] = _times_1_5(rec["p_hat"])
        wrong = json.dumps(rec)
    assert op in _problems(checks.check_bp_mc, {**bp_outputs, op: wrong})


@pytest.fixture(scope="module")
def exact_outputs(tmp_path_factory):
    ops = _ops("exact", {"counts-r2", "psi-r2", "dlambda-r2"})
    return _run_ops(ops, tmp_path_factory.mktemp("exact"))


def test_exact_outputs_pass(exact_outputs):
    assert _problems(checks.check_exact, exact_outputs) == {}


@pytest.mark.parametrize("cell", [(7, 2), (40, 5)])
def test_count_entry_off_by_one_fails(exact_outputs, cell):
    def bump(header, row):
        if (int(row[1]), int(row[2])) == cell:
            row[4] = str(int(row[4]) + 1)

    wrong = _edit_csv(exact_outputs["counts-r2"], bump)
    assert wrong != exact_outputs["counts-r2"]
    problems = _problems(checks.check_exact, {**exact_outputs, "counts-r2": wrong})
    assert list(problems) == ["counts-r2"]


def test_lambda_shifted_by_1e_6_fails(exact_outputs):
    rec = json.loads(exact_outputs["psi-r2"])
    rec["lambda"] += 1e-6
    wrong = json.dumps(rec)
    assert "psi-r2" in _problems(checks.check_exact, {**exact_outputs, "psi-r2": wrong})


@pytest.fixture(scope="module")
def pki_outputs(tmp_path_factory):
    return _run_ops(_ops("gnp-pki"), tmp_path_factory.mktemp("pki"))


def test_pki_outputs_pass(pki_outputs):
    assert _problems(checks.check_gnp_pki, pki_outputs) == {}


def test_first_step_frequency_doubled_fails(pki_outputs):
    def double(header, row):
        if (row[0], row[1]) == ("3", "1"):
            row[2] = repr(float(row[2]) * 2)

    wrong = _edit_csv(pki_outputs["pki"], double)
    assert wrong != pki_outputs["pki"]
    problems = _problems(checks.check_gnp_pki, {"pki": wrong})
    assert any(w.startswith("(3,1) frequency") for w in problems["pki"])


def test_gnp_threshold_outputs_pass(tmp_path):
    outputs = _run_ops(_ops("gnp-threshold"), tmp_path)
    assert _problems(checks.check_gnp_threshold, outputs) == {}
    side = _run_ops(workloads.gnp_threshold_side(0), tmp_path)
    assert _problems(checks.check_gnp_threshold_side, side) == {}


def test_oracles_agree_with_each_other():
    """Brute force and the recurrence agree where both run, and the walk DP
    gives the exact survival probability criterion 08 is checked against."""
    for r in (2, 3, 4):
        rec = checks.recurrence_counts(r, 7)
        for k in range(r + 1, 8):
            brute = checks.brute_force_counts(r, k)
            assert {i: rec[(k, i)] for i in range(1, k - r + 1)} == {
                i: brute.get(i, 0) for i in range(1, k - r + 1)}
    assert checks.walk_survival(2, 0.2) == pytest.approx(1.934754e-02, rel=1e-6, abs=0)
