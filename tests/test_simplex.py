import itertools
import random
from fractions import Fraction

import pytest

from spreadlab.simplex import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    Constraint,
    solve,
)

F = Fraction


def con(coeffs, rel, rhs, label=""):
    return Constraint(coeffs={j: F(a) for j, a in coeffs.items()}, relation=rel, rhs=F(rhs), label=label)


class TestOptimize:
    def test_textbook_maximum(self):
        # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18
        result = solve(
            2,
            [con({0: 1}, LE, 4), con({1: 2}, LE, 12), con({0: 3, 1: 2}, LE, 18)],
            objective={0: F(3), 1: F(5)},
            maximize=True,
        )
        assert result.status == OPTIMAL
        assert result.x == (F(2), F(6))
        assert result.objective == 36

    def test_minimize(self):
        # min x + y st x + 2y >= 4, 3x + y >= 6
        result = solve(
            2,
            [con({0: 1, 1: 2}, GE, 4), con({0: 3, 1: 1}, GE, 6)],
            objective={0: F(1), 1: F(1)},
        )
        assert result.status == OPTIMAL
        assert result.objective == F(14, 5)

    def test_equality_constraints(self):
        result = solve(
            3,
            [con({0: 1, 1: 1, 2: 1}, EQ, 1), con({0: 1, 2: -1}, EQ, 0)],
            objective={1: F(1)},
            maximize=True,
        )
        assert result.status == OPTIMAL
        assert result.x == (F(0), F(1), F(0))

    def test_unbounded(self):
        result = solve(2, [con({0: 1, 1: -1}, LE, 1)], objective={0: F(1)}, maximize=True)
        assert result.status == UNBOUNDED

    def test_degenerate_terminates(self):
        # Beale's cycling instance; Bland's rule must exit with the optimum
        result = solve(
            4,
            [
                con({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, LE, 0),
                con({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, LE, 0),
                con({2: 1}, LE, 1),
            ],
            objective={0: F(3, 4), 1: -150, 2: F(1, 50), 3: -6},
            maximize=True,
        )
        assert result.status == OPTIMAL
        assert result.objective == F(1, 20)

    def test_feasibility_only_call(self):
        result = solve(2, [con({0: 1, 1: 1}, EQ, 3), con({0: 1}, LE, 1)])
        assert result.status == OPTIMAL
        x = result.x
        assert x[0] + x[1] == 3 and x[0] <= 1 and all(v >= 0 for v in x)


class TestInfeasibility:
    def test_contradictory_bounds(self):
        constraints = [con({0: 1}, GE, 2), con({0: 1}, LE, 1)]
        result = solve(1, constraints)
        assert result.status == INFEASIBLE
        assert result.certificate.verify(constraints)

    def test_equality_clash(self):
        constraints = [
            con({0: 1, 1: 1}, EQ, 1),
            con({0: 1}, GE, 3),
        ]
        result = solve(2, constraints)
        assert result.status == INFEASIBLE
        assert result.certificate.verify(constraints)

    def test_negative_rhs_equality(self):
        constraints = [con({0: 1, 1: 2}, EQ, -1)]
        result = solve(2, constraints)
        assert result.status == INFEASIBLE
        assert result.certificate.verify(constraints)

    def test_certificate_rejects_wrong_sign(self):
        # flipped, the first row's multiplier breaks its sign rule: positive
        # on the >= row, or, in the other order, negative on the <= row
        for constraints in ([con({0: 1}, GE, 2), con({0: 1}, LE, 1)], [con({0: 1}, LE, 1), con({0: 1}, GE, 2)]):
            result = solve(1, constraints)
            cert = result.certificate
            assert cert.verify(constraints)
            flipped = type(cert)(multipliers=tuple(-m for m in cert.multipliers))
            assert not flipped.verify(constraints)

    def test_certificate_rejects_wrong_length(self):
        constraints = [con({0: 1}, GE, 2), con({0: 1}, LE, 1)]
        cert = solve(1, constraints).certificate
        assert not type(cert)(multipliers=cert.multipliers[:1]).verify(constraints)
        assert not type(cert)(multipliers=(*cert.multipliers, F(0))).verify(constraints)


class TestMalformedInput:
    @pytest.mark.parametrize("num_vars, constraints, objective, problem", [
        (1, [con({0: 1}, "<>", 1)], None, "unknown relation '<>'"),
        (1, [con({1: 1}, LE, 1)], None, "coefficient index 1 out of range for 1 variables"),
        (1, [con({0: 1}, LE, 1)], {-1: F(1)}, "objective index -1 out of range for 1 variables"),
    ], ids=["relation", "coefficient", "objective"])
    def test_refused(self, num_vars, constraints, objective, problem):
        with pytest.raises(ValueError) as info:
            solve(num_vars, constraints, objective=objective)
        assert str(info.value) == problem


def _feasible_by_vertex_enumeration(constraints, num_vars):
    """Independent 2-variable feasibility check: test every intersection
    of constraint/axis boundary pairs, plus the origin."""
    lines = []
    for c in constraints:
        a = [c.coeffs.get(j, F(0)) for j in range(num_vars)]
        lines.append((a, c.rhs))
    lines.append(([F(1), F(0)], F(0)))
    lines.append(([F(0), F(1)], F(0)))

    def satisfies(pt):
        if any(v < 0 for v in pt):
            return False
        for c in constraints:
            lhs = sum(c.coeffs.get(j, F(0)) * pt[j] for j in range(num_vars))
            if c.relation == LE and lhs > c.rhs:
                return False
            if c.relation == GE and lhs < c.rhs:
                return False
            if c.relation == EQ and lhs != c.rhs:
                return False
        return True

    for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        x = (b1 * a2[1] - b2 * a1[1]) / det
        y = (a1[0] * b2 - a2[0] * b1) / det
        if satisfies((x, y)):
            return True
    return satisfies((F(0), F(0)))


class TestAgainstVertexEnumeration:
    def test_random_two_variable_systems(self):
        rng = random.Random(61)
        for _ in range(120):
            constraints = []
            for _ in range(rng.randint(1, 5)):
                coeffs = {j: F(rng.randint(-3, 3)) for j in range(2)}
                rel = rng.choice([LE, GE, EQ])
                constraints.append(con(coeffs, rel, rng.randint(-4, 4)))
            result = solve(2, constraints)
            oracle = _feasible_by_vertex_enumeration(constraints, 2)
            assert (result.status == OPTIMAL) == oracle
            if result.status == OPTIMAL:
                pt = result.x
                for c in constraints:
                    lhs = sum(c.coeffs.get(j, F(0)) * pt[j] for j in range(2))
                    if c.relation == LE:
                        assert lhs <= c.rhs
                    elif c.relation == GE:
                        assert lhs >= c.rhs
                    else:
                        assert lhs == c.rhs
            else:
                assert result.status == INFEASIBLE
                assert result.certificate.verify(constraints)
