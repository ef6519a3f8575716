"""Exact linear feasibility and optimization over the rationals.

Dense two-phase primal simplex.  Bland's rule (lowest eligible index
enters; ties in the ratio test go to the row whose basic variable has the
lowest index) rules out cycling, so termination is unconditional.

The tableau is kept as a matrix of Python ints plus a single positive
denominator: true entries are M[i][j] / den.  A pivot on (r, c) maps
entry (i, j) to (M[i][j] * M[r][c] - M[i][c] * M[r][j]) // den, leaves
row r alone, and installs M[r][c] as the new denominator; every division
is exact because each entry is a minor of the starting integer matrix.
This avoids Fraction normalization in the hot loop while staying exact.

Every variable is constrained to be nonnegative; callers encode free
quantities as differences when needed.  Infeasible systems come back with
a Farkas certificate, a weighting of the constraints whose consequence is
contradictory, checkable independently of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

LE = "<="
GE = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """Sparse row: sum of coeffs[j] * x_j, related to rhs by <=, >= or ==."""

    coeffs: Mapping[int, Fraction]
    relation: str
    rhs: Fraction
    label: str = ""


@dataclass(frozen=True)
class FarkasCertificate:
    """Constraint multipliers proving that no nonnegative solution exists.

    Aggregating the constraints with these weights (nonnegative on <=
    rows, nonpositive on >= rows, unrestricted on == rows) produces a row
    whose variable coefficients are all nonnegative but whose right hand
    side is negative: no x >= 0 can satisfy it.
    """

    multipliers: tuple[Fraction, ...]

    def verify(self, constraints: Sequence[Constraint]) -> bool:
        """Recompute the aggregation; only the variables the rows touch can
        get a nonzero coefficient, so only those are sign-tested."""
        if len(self.multipliers) != len(constraints):
            return False
        combined: dict[int, Fraction] = {}
        rhs_total = Fraction(0)
        for mu, con in zip(self.multipliers, constraints):
            if not mu:
                # a zero multiplier passes both sign rules and adds nothing
                continue
            if con.relation == LE and mu < 0:
                return False
            if con.relation == GE and mu > 0:
                return False
            for j, a in con.coeffs.items():
                combined[j] = combined.get(j, 0) + mu * a
            rhs_total += mu * con.rhs
        return all(c >= 0 for c in combined.values()) and rhs_total < 0


@dataclass(frozen=True)
class LpResult:
    status: str
    x: "tuple[Fraction, ...] | None" = None
    objective: "Fraction | None" = None
    certificate: "FarkasCertificate | None" = None


def _pivot(M: list[list[int]], den: int, r: int, c: int) -> int:
    prow = M[r]
    pval = prow[c]
    for i, row in enumerate(M):
        if i == r:
            continue
        f = row[c]
        if f == 0:
            if pval != den:
                M[i] = [a * pval // den for a in row]
        else:
            M[i] = [(a * pval - f * b) // den for a, b in zip(row, prow)]
    if pval < 0:
        for i in range(len(M)):
            M[i] = [-a for a in M[i]]
        return -pval
    return pval


def _run_phase(
    M: list[list[int]],
    den: int,
    basis: list[int],
    active: list[bool],
    obj_row: int,
    num_cols: int,
    rhs_col: int,
) -> tuple[int, str]:
    """Minimize the objective row over columns 0..num_cols-1.  Returns the
    updated denominator and OPTIMAL or UNBOUNDED."""
    m = len(basis)
    while True:
        orow = M[obj_row]
        enter = -1
        for j in range(num_cols):
            if orow[j] < 0:
                enter = j
                break
        if enter < 0:
            return den, OPTIMAL
        leave = -1
        lv_rhs = lv_coef = 0
        for i in range(m):
            if not active[i]:
                continue
            coef = M[i][enter]
            if coef <= 0:
                continue
            rhs = M[i][rhs_col]
            if leave < 0:
                better = True
            else:
                lhs, rhs_cmp = rhs * lv_coef, lv_rhs * coef
                better = lhs < rhs_cmp or (lhs == rhs_cmp and basis[i] < basis[leave])
            if better:
                leave, lv_rhs, lv_coef = i, rhs, coef
        if leave < 0:
            return den, UNBOUNDED
        den = _pivot(M, den, leave, enter)
        basis[leave] = enter


def solve(
    num_vars: int,
    constraints: Sequence[Constraint],
    objective: "Mapping[int, Fraction] | None" = None,
    maximize: bool = False,
) -> LpResult:
    """Solve min (or max) of objective over {x >= 0 : constraints hold}.

    With objective None this is a pure feasibility question; the result is
    OPTIMAL with some feasible point and no objective value.  INFEASIBLE
    results always carry a verified-shape Farkas certificate.
    """
    cons = list(constraints)
    for con in cons:
        if con.relation not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {con.relation!r}")
        for j in con.coeffs:
            if not (isinstance(j, int) and 0 <= j < num_vars):
                raise ValueError(
                    f"coefficient index {j!r} out of range for {num_vars} variables"
                )
    m = len(cons)

    # column layout: structural | slacks | artificials | rhs
    slack_col: dict[int, int] = {}
    col = num_vars
    for i, con in enumerate(cons):
        if con.relation in (LE, GE):
            slack_col[i] = col
            col += 1
    first_art = col

    scale: list[int] = []
    flip: list[int] = []
    needs_art: list[bool] = []
    for i, con in enumerate(cons):
        rhs = Fraction(con.rhs)
        denoms = [Fraction(v).denominator for v in con.coeffs.values()]
        denoms.append(rhs.denominator)
        r = math.lcm(*denoms)
        s = -1 if rhs < 0 else 1
        scale.append(r)
        flip.append(s)
        if con.relation == EQ:
            needs_art.append(True)
        else:
            sigma = s if con.relation == LE else -s
            needs_art.append(sigma != 1)

    art_col: dict[int, int] = {}
    for i in range(m):
        if needs_art[i]:
            art_col[i] = col
            col += 1
    rhs_col = col
    width = col + 1

    M: list[list[int]] = []
    basis: list[int] = []
    for i, con in enumerate(cons):
        row = [0] * width
        sr = flip[i] * scale[i]
        for j, a in con.coeffs.items():
            row[j] = int(Fraction(a) * sr)
        row[rhs_col] = int(Fraction(con.rhs) * sr)
        if i in slack_col:
            row[slack_col[i]] = flip[i] if con.relation == LE else -flip[i]
        if i in art_col:
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        M.append(row)

    # phase one objective: total artificial mass, priced out for the
    # starting basis so the row starts consistent
    p1 = [0] * width
    for i in art_col:
        p1[art_col[i]] = 1
    for i in art_col:
        row = M[i]
        for j in range(width):
            p1[j] -= row[j]
    M.append(p1)
    p1_row = m

    p2_row = -1
    obj_scale = 1
    if objective is not None:
        sense = -1 if maximize else 1
        cvec = {j: sense * Fraction(v) for j, v in objective.items()}
        for j in cvec:
            if not (isinstance(j, int) and 0 <= j < num_vars):
                raise ValueError(
                    f"objective index {j!r} out of range for {num_vars} variables"
                )
        obj_scale = math.lcm(*[v.denominator for v in cvec.values()]) if cvec else 1
        p2 = [0] * width
        for j, v in cvec.items():
            p2[j] = int(v * obj_scale)
        M.append(p2)
        p2_row = m + 1

    den = 1
    active = [True] * m

    den, status = _run_phase(M, den, basis, active, p1_row, first_art, rhs_col)
    if status != OPTIMAL:
        raise RuntimeError("phase one objective is bounded below by zero")

    if M[p1_row][rhs_col] < 0:
        multipliers = []
        p1row = M[p1_row]
        for i in range(m):
            if i in art_col:
                y = 1 - Fraction(p1row[art_col[i]], den)
            else:
                y = -Fraction(p1row[slack_col[i]], den)
            multipliers.append(-y * flip[i] * scale[i])
        return LpResult(status=INFEASIBLE, certificate=FarkasCertificate(tuple(multipliers)))

    # drive surviving artificials out of the basis; rows that cannot be
    # pivoted are redundant and drop out of further play
    for i in range(m):
        if basis[i] >= first_art:
            target = -1
            for j in range(first_art):
                if M[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                den = _pivot(M, den, i, target)
                basis[i] = target
            else:
                active[i] = False

    objective_value: "Fraction | None" = None
    if p2_row >= 0:
        den, status = _run_phase(M, den, basis, active, p2_row, first_art, rhs_col)
        if status == UNBOUNDED:
            return LpResult(status=UNBOUNDED)
        value = -Fraction(M[p2_row][rhs_col], den * obj_scale)
        objective_value = -value if maximize else value

    x = [Fraction(0)] * num_vars
    for i in range(m):
        if active[i] and basis[i] < num_vars:
            x[basis[i]] = Fraction(M[i][rhs_col], den)
    return LpResult(status=OPTIMAL, x=tuple(x), objective=objective_value)
