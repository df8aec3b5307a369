"""Acceptance gate: the end-to-end criteria, one pass/fail line each.

Everything here is exact arithmetic, so the tolerance for value checks is
exact equality; the only non-exact bounds are the wall-clock limits.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import pytest

from twistpairs import planecubic
from twistpairs.cli import main
from twistpairs.exactnum import is_perfect_square, same_square_class
from twistpairs.planecubic import BASE_POINT, PlaneCubic, ProjPoint, tangent_image_numerators
from twistpairs.polyident import counterexample, disc_defect, point_defect, weierstrass_defect
from twistpairs.twistgen import (
    Config,
    ROUTE_ISOMORPHIC,
    certificate_from_dict,
    corollary_mode,
    jzero_generate,
    lambda_search,
    prepare_pair,
    verify_certificate,
)
from twistpairs.weierstrass import (
    INFINITY,
    RATIONAL_TORSION_ORDERS,
    Curve,
    WPoint,
    are_isomorphic_over_q,
    certify_nontorsion,
    quadratic_twist,
)

import random


def tangent_image(cubic):
    """The tangent point's Weierstrass image, from its closed-form numerators."""
    x_num, y_num = tangent_image_numerators(cubic.a, cubic.b, cubic.c, cubic.d)
    return WPoint(x_num / (cubic.a - cubic.c) ** 2, y_num / (cubic.a - cubic.c) ** 3)


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(
        f"ACCEPTANCE {number} ({description}): PASS"
        f" [{time.monotonic() - started:.2f}s]"
    )


def test_criterion_1_worked_pair(tmp_path, capsys):
    with criterion(1, "worked pair end to end"):
        started = time.monotonic()
        cubic = PlaneCubic(1, 1, 2, 2)
        model = cubic.to_weierstrass()
        assert (model.a, model.b) == (Fraction(-6), Fraction(-63, 4))
        seed = cubic.tangent_point()
        assert seed.affine() == (Fraction(-1), Fraction(-1))
        image = tangent_image(cubic)
        assert image == WPoint(Fraction(12), Fraction(81, 2))
        assert cubic.transform_point(seed) == image

        out_file = tmp_path / "worked.json"
        code = main([
            "generate", "--curve1", "1,1", "--curve2", "2,2",
            "--count", "5", "--output", str(out_file),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "Y^2 = X^3 - 6*X - 63/4" in captured.err
        assert "seed point: (-1, -1) maps to (12, 81/2)" in captured.err

        bundle = json.loads(out_file.read_text())
        certs = [certificate_from_dict(raw) for raw in bundle["certificates"]]
        assert len(certs) == 5
        first = certs[0]
        assert first.k == 1 and first.value == -1
        twist_model = quadratic_twist(Curve(1, 1), first.value)
        assert twist_model == Curve(1, -1)
        x, t = first.solutions[0]
        point = WPoint(first.value * x, first.value**2 * t)
        assert point == WPoint(Fraction(1), Fraction(1)) and twist_model.contains(point)
        for cert in certs:
            ok, reason = verify_certificate(cert, [Curve(1, 1), Curve(2, 2)])
            assert ok, reason
        pairs = list(combinations([c.value for c in certs], 2))
        assert len(pairs) == 10
        for v1, v2 in pairs:
            assert is_perfect_square(v1 * v2) is None
        assert time.monotonic() - started < 60


def test_criterion_2_symbolic_suite(monkeypatch):
    with criterion(2, "symbolic identity suite"):
        assert counterexample(weierstrass_defect) is None
        assert counterexample(point_defect) is None
        assert counterexample(disc_defect) is None

        # randomized agreement on the relation variety, 200+ samples
        rng = random.Random(101)
        for _ in range(200):
            a, c, d, x, y = (Fraction(rng.randint(-15, 15), rng.randint(1, 5)) for _ in range(5))
            b = y**3 + c * y + d - x**3 - a * x
            big_x, big_y = planecubic.change_of_variables(a, b, c, d, x, y)
            coeff_a, coeff_b = planecubic.weierstrass_coefficients(a, b, c, d)
            assert big_y**2 == big_x**3 + coeff_a * big_x + coeff_b

        # a single flipped coefficient must be caught: 3xy becomes -3xy
        original = planecubic.change_of_variables

        def flipped(a, b, c, d, x, y):
            big_x, big_y = original(a, b, c, d, x, y)
            return big_x - 6 * x * y, big_y

        monkeypatch.setattr(planecubic, "change_of_variables", flipped)
        assert counterexample(weierstrass_defect) is not None


def test_criterion_3_group_law_suite():
    with criterion(3, "plane cubic group law suite"):
        cubic = PlaneCubic(1, 1, 2, 2)
        seed = cubic.tangent_point()
        assert cubic.third_intersection(BASE_POINT, BASE_POINT) == seed

        pool = [cubic.scalar_mul(k, seed) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]
        for point in pool:
            assert cubic.add(point, BASE_POINT) == point
            assert cubic.add(point, cubic.negate(point)) == BASE_POINT
            x, y = point.affine()
            assert x**3 + x + 1 == y**3 + 2 * y + 2
        for p, q in product(pool, repeat=2):
            assert cubic.add(p, q) == cubic.add(q, p)
        for p, q, r in product(pool, repeat=3):
            assert cubic.add(cubic.add(p, q), r) == cubic.add(p, cubic.add(q, r))

        model = cubic.to_weierstrass()
        seed_image = tangent_image(cubic)
        for k in range(1, 9):
            plane_image = cubic.transform_point(cubic.scalar_mul(k, seed))
            model_multiple = model.scalar_mul(k, seed_image)
            assert plane_image in (model_multiple, model.negate(model_multiple))


def test_criterion_4_torsion_detector():
    with criterion(4, "torsion detector"):
        mordell = Curve(0, 1)
        order_six = WPoint(Fraction(2), Fraction(3))
        assert mordell.scalar_mul(6, order_six) == INFINITY
        assert certify_nontorsion(mordell, order_six) is False
        order_two = WPoint(Fraction(-1), Fraction(0))
        assert mordell.scalar_mul(2, order_two) == INFINITY
        assert certify_nontorsion(mordell, order_two) is False

        model = Curve(Fraction(-6), Fraction(-63, 4))
        point = WPoint(Fraction(12), Fraction(81, 2))
        assert certify_nontorsion(model, point) is True
        assert RATIONAL_TORSION_ORDERS == (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
        assert all(not model.scalar_mul(n, point).is_infinity for n in RATIONAL_TORSION_ORDERS)


def test_criterion_5_j_zero_path():
    with criterion(5, "j-invariant-zero path"):
        started = time.monotonic()
        certs, pair, report = jzero_generate(
            Curve(0, 1), Curve(0, 2), Config(target_count=3)
        )
        assert report.pair.trials[-1].scale == 5
        assert pair[1].b - pair[0].b == 215
        assert 215 % 5 == 0 and 215 % 25 != 0
        assert report.pair.scale == 215
        seed = ProjPoint(6, 1, 1)
        cubic = PlaneCubic(0, 215, 0, 430)
        assert cubic.contains(seed)
        assert len(certs) >= 3
        # the certificates are about the sextic twists by 215, which are no
        # quadratic twists of the given curves: 215 is no rational cube
        assert pair == (Curve(0, 215), Curve(0, 430))
        for cert in certs:
            ok, reason = verify_certificate(cert, pair)
            assert ok, reason
            assert verify_certificate(cert, [Curve(0, 1), Curve(0, 2)]) == (
                False, "solution-mismatch"
            )
        for v1, v2 in combinations([c.value for c in certs], 2):
            assert not same_square_class(v1, v2)
        assert time.monotonic() - started < 60


def test_criterion_6_corollary_mode():
    with criterion(6, "corollary mode"):
        certs, pair, _ = corollary_mode(Curve(1, 1), Fraction(2), Config(target_count=2))
        assert pair == (Curve(1, 1), Curve(4, 8))
        for cert in certs:
            D = cert.value
            assert verify_certificate(cert, pair) == (True, None)
            # the twist by D of the partner is the twist by D*delta of the curve
            assert are_isomorphic_over_q(
                quadratic_twist(pair[1], D),
                quadratic_twist(Curve(1, 1), 2 * D),
            ) is not None

        _, _, report_square = corollary_mode(Curve(1, 1), Fraction(4), Config(target_count=1))
        assert report_square.pair.route == ROUTE_ISOMORPHIC


def test_criterion_7_robustness():
    with criterion(7, "robustness"):
        with pytest.raises(ValueError):
            PlaneCubic(0, 1, 0, 1)
        pp = prepare_pair(Curve(0, 1), Curve(0, 1))
        assert pp.route == ROUTE_ISOMORPHIC

        pp = lambda_search(Curve(1, 1), Curve(1, 2), 40)
        assert pp.trials[0].scale == 1
        assert pp.trials[0].outcome == "a-equals-scaled-c"
        assert pp.scale not in (1, -1)
        assert pp.trials[-1].outcome == "accepted"


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "byte-identical reruns"):
        runs = [
            ["generate", "--curve1", "1,1", "--curve2", "2,2", "--count", "5"],
            ["jzero", "--curve1", "0,1", "--curve2", "0,2", "--count", "3"],
            ["corollary", "--curve", "1,1", "--delta", "2", "--count", "2"],
            ["elementary", "--curve", "1,1", "--count", "3"],
        ]
        for i, argv in enumerate(runs):
            first = tmp_path / f"first{i}.json"
            second = tmp_path / f"second{i}.json"
            assert main(argv + ["--output", str(first)]) == 0
            assert main(argv + ["--output", str(second)]) == 0
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes()
