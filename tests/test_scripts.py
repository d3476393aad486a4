"""Smoke tests for the command-line scripts under ``scripts/``: each runs as a
subprocess on a small input and must write a well-formed CSV."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

from hypernorm.sdp import ANCHOR_AT

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return list(csv.reader(io.StringIO(out.stdout)))


def test_hyper_certificate_table():
    rows = run_script("hyper_certificate_table.py", "--max-l", "3", "--max-d", "1")
    assert rows[0] == ["l", "d", "n_coeffs", "value", "bound_9d", "oracle_fourth",
                       "certificate_bound", "sos_residual", "seconds"]
    body = rows[1:]
    # (l, d) in {2, 3} x {0, 1}
    assert [(r[0], r[1]) for r in body] == [("2", "0"), ("2", "1"), ("3", "0"), ("3", "1")]
    for r in body:
        assert float(r[7]) <= 1e-6


def test_random_operator_sweep():
    rows = run_script("random_operator_sweep.py", "--n", "4", "--seeds", "1", "--ratio", "5")
    assert rows[0] == ["dist", "n", "m", "seed", "a22", "upper", "iterations", "witnesses",
                       "oracle", "oracle_floor", "oracle_steps", "oracle_newton_steps"]
    body = rows[1:]
    assert [r[0] for r in body] == ["sign", "gaussian", "unit"]
    for r in body:
        assert (r[1], r[2], r[3]) == ("4", "80", "0")
        assert float(r[4]) <= float(r[5]) + 1e-6
        assert float(r[5]) - float(r[4]) <= 1e-4 * max(1.0, float(r[4]))
        # a certified stop happens at an anchor iteration and names at least
        # one witness; the loop's own stop names none
        iterations, witnesses = int(r[6]), int(r[7])
        assert 1 <= iterations <= 20_000 and witnesses >= 0
        assert witnesses == 0 or iterations in ANCHOR_AT
        # 64 restarts, the top singular vector and the 4 largest rows, each
        # taking between 1 and 300 power steps; the finish takes at most 8
        steps, newton = int(r[10]), int(r[11])
        assert 69 <= steps <= 300 * 69 and 0 <= newton <= 8


def test_psd_crossover():
    rows = run_script("psd_crossover.py", "--sizes", "6", "12", "--reps", "2")
    assert rows[0] == ["n", "k", "full_pos_us", "pos_us", "pos_ratio", "full_neg_us", "neg_us", "neg_ratio"]
    body = rows[1:]
    assert [(r[0], r[1]) for r in body] == [("6", "1"), ("6", "2"), ("6", "3"),
                                           ("12", "1"), ("12", "2"), ("12", "3"), ("12", "4"), ("12", "6")]
    for r in body:
        assert all(float(x) > 0 for x in r[2:])


def test_relaxation_build_cost():
    rows = run_script("relaxation_build_cost.py", "--a22-sizes", "3", "--reps", "1")
    assert rows[0] == ["case", "n", "d", "m", "build_s", "anchor_s", "extract_s", "peak_kib"]
    body = rows[1:]
    assert [r[0] for r in body] == ["a22-gauss-n3-m36", "L4-gauss-n4-m800", "L4-sign-n8-m3200", "L4-gauss-n8-m64",
                                    "L6-gauss-n6-m36", "L8-gauss-n4-m16", "L4-hyper-l4-d2"]
    assert [(r[1], r[2], r[3]) for r in body][-1] == ("11", "4", "16")
    for r in body:
        assert all(float(v) > 0 for v in r[4:])
