"""The certificate must agree with the brute-force oracle, verdict for verdict.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from certify import Instance, certify  # noqa: E402
from treecenter import oracle_solve, parse_tree, random_tree, serialize_tree  # noqa: E402
from treecenter.oracle import candidate_values  # noqa: E402
from treecenter.solver import SolverConfig, solve  # noqa: E402

SHAPES = ("uniform-attach", "path", "caterpillar", "star")
MODES = ("continuous", "discrete")

# A 5-vertex path on which the float solver answers 16361073.673399715
# (continuous, k = 1) although the optimum is 13862134744875/1397728.
WRONG_FLOAT_TEXT = """5 1
140891 596853 888598 841235 800875
1 2 3
2 3 9
3 4 4
4 5 16
"""
WRONG_FLOAT_ANSWER = 16361073.673399715


def small_instances(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        weights = rng.choice([(0, 3), (0, 20), (0, 10**6)])
        tree = random_tree(n, seed=rng.randrange(2**32), weight_range=weights,
                           shape=rng.choice(SHAPES))
        yield serialize_tree(tree, rng.randint(1, max(1, n // 2)))


def verdict(text, lam, mode, scalar):
    return certify(Instance(text), lam, mode == "discrete", scalar == "exact")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scalar", ("exact", "float"))
def test_verdict_on_solver_answers_equals_oracle_comparison(mode, scalar):
    seen = 0
    for text in small_instances(40, seed=MODES.index(mode) * 2 + (scalar == "float")):
        exact_tree, k = parse_tree(text, "exact")
        opt = oracle_solve(exact_tree, k, mode)
        tree, _ = parse_tree(text, scalar)
        try:
            lam = solve(tree, k, SolverConfig(mode=mode, scalar=scalar)).lambda_star
        except AssertionError:
            continue  # a float solve that raises has no answer to certify
        expected = lam == opt if scalar == "exact" else lam == float(opt)
        assert verdict(text, lam, mode, scalar) == expected, (text, lam, opt)
        seen += 1
    assert seen >= 30


@pytest.mark.parametrize("mode", MODES)
def test_exact_verdict_rejects_every_nearby_value(mode):
    for text in small_instances(25, seed=7 if mode == "discrete" else 8):
        exact_tree, k = parse_tree(text, "exact")
        opt = oracle_solve(exact_tree, k, mode)
        values = candidate_values(exact_tree, mode)
        i = values.index(opt)
        w = max(exact_tree.weights)
        probes = {opt, opt + Fraction(1, 10**9), opt - Fraction(1, 10**9),
                  opt + 1, opt / 2, *values[max(0, i - 2):i + 3]}
        if w:
            probes.add(opt - Fraction(1, 4 * w * w + 2))
        for lam in probes:
            if lam >= 0:
                assert verdict(text, lam, mode, "exact") == (lam == opt), (text, lam, opt)


@pytest.mark.parametrize("mode", MODES)
def test_float_verdict_accepts_only_the_rounded_optimum(mode):
    for text in small_instances(25, seed=9 if mode == "discrete" else 10):
        exact_tree, k = parse_tree(text, "exact")
        right = float(oracle_solve(exact_tree, k, mode))
        for lam in (right, math.nextafter(right, math.inf), math.nextafter(right, 0.0),
                    right * 1.5 + 1):
            assert verdict(text, lam, mode, "float") == (lam == right), (text, lam, right)


def test_known_wrong_float_answer_is_rejected():
    exact_tree, k = parse_tree(WRONG_FLOAT_TEXT, "exact")
    opt = oracle_solve(exact_tree, k, "continuous")
    assert opt == Fraction(13862134744875, 1397728)
    assert not verdict(WRONG_FLOAT_TEXT, WRONG_FLOAT_ANSWER, "continuous", "float")
    assert verdict(WRONG_FLOAT_TEXT, float(opt), "continuous", "float")
    assert verdict(WRONG_FLOAT_TEXT, opt, "continuous", "exact")
    tree, _ = parse_tree(WRONG_FLOAT_TEXT, "float")
    lam = solve(tree, k, SolverConfig(scalar="float")).lambda_star
    assert verdict(WRONG_FLOAT_TEXT, lam, "continuous", "float") == (lam == float(opt))
