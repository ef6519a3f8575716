"""Consistent price systems: existence, construction, verification.

A consistent price system at cost level lambda' is a pair (S-tilde, Q):
a shadow price lying inside every node's spread together with a measure
under which it is a martingale.  Q is carried by its density process Z
against the reference measure; in Z and the price-weighted mass
Z * S-tilde the conditions are linear: `_cps_row` writes each one as a
labelled row, and `_cps_constraints` lists every row in `_row_keys`
order.

On a tree the shadow prices a node can carry form an interval, so
existence is decided exactly by one backward pass (the recursion of
Roux & Zastawniak).  Each leaf starts at its spread [(1 - lambda') S, S];
an internal node intersects its own spread with the hull of its
children's intervals.  In the equivalent mode every node keeps positive
mass, so an end of the hull is attained only if every child attains it,
and a system exists only if no interval is empty; the hull runs over
every child, empty or not.  In the absolutely continuous mode Z may die
out, so empty children are dropped, an end is attained if any child
attains it, and a system exists if the root's interval is nonempty.

A nonempty root interval is turned into a witness top down: each node's
value is placed inside its children's intervals; a second top-down pass
then weighs them, with the plainest one-step weights that average the
children back to the node's value: P itself when the children's P-mean
is that value, else P scaled down with the rest on one extreme child.
So Z costs one product per node.  In the equivalent mode every leaf
density is positive, so the witness is equivalent and clears a leaf
floor of exactly its minimum leaf density; `max_equivalence_margin`
gives the best floor any system clears.

The threshold, the infimum of the feasible cost levels, is read off the
same recursion.  In the equivalent mode the level only scales the low
ends, so the empty intervals of the very pass that decides, run at
level 0, give it in closed form; the absolutely continuous mode, whose
threshold is always attained, bisects the candidate levels with one
pass per probe.

An empty interval is turned into a Farkas certificate over the same
rows, read off the intervals in one top-down pass from the node where
the contradiction closes, so infeasibility stays checkable independently
of how it was found.  The certificate holds only the rows it uses, those
with a nonzero multiplier, in row order; `_cps_row`, the writer of the
full system, writes them, and no other row is built.  Its multipliers do
not depend on the leaf floor epsilon > 0 of the rows, so its size never
matters; epsilon = 0 goes with the absolutely continuous mode, where the
shadow price is only defined on the support.

The interval pass, the placement, the weights and the equivalent-mode
threshold follow the integer rule of `tree`: each compares by
cross-multiplying `as_integer_ratio()` pairs and builds one Fraction per
value it stores, so the values are those of step-by-step Fraction
arithmetic.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import simplex
from .market import Market
from .rationals import ascii_int, format_map, format_rational, node_keys, parse_rational, rational_reader
from .simplex import Constraint, FarkasCertificate
from .tree import (
    AdaptedProcess, EventTree, InputError, NodeId, _adapted_problems, _density_law, ensure_bound, support_drift
)

EQUIVALENT = "equivalent"
ABSOLUTELY_CONTINUOUS = "absolutely_continuous"

DEFAULT_EPSILON = Fraction(1, 10**6)

_ZERO, _ONE = Fraction(0), Fraction(1)


class CpsError(InputError):
    """An invalid price-system description or query."""


def _level_and_floor(fee, epsilon=_ZERO, names=("cost level", "epsilon")) -> tuple[Fraction, Fraction]:
    """A cost level and a leaf floor read by `parse_rational`; raises
    CpsError, naming each by ``names``, unless 0 <= lambda' < 1 and
    epsilon >= 0."""
    problems = []
    try:
        fee = parse_rational(fee)
        if not 0 <= fee < 1:
            problems.append(f"{names[0]} must satisfy 0 <= lambda' < 1, got {fee}")
    except ValueError as exc:
        problems.append(f"{names[0]}: {exc}")
    try:
        epsilon = parse_rational(epsilon)
        if epsilon < 0:
            problems.append(f"{names[1]} must be nonnegative, got {epsilon}")
    except ValueError as exc:
        problems.append(f"{names[1]}: {exc}")
    if problems:
        raise CpsError(problems)
    return fee, epsilon


@dataclass(frozen=True)
class CpsQuery:
    """What to search for: cost level, leaf floor, and mode, the measure
    class EQUIVALENT or ABSOLUTELY_CONTINUOUS.

    The floor must agree with the mode (epsilon > 0 for equivalent, 0 for
    absolutely continuous).  It does not decide feasibility: it is the
    right-hand side of the ``floor:`` rows in an infeasibility certificate.
    """

    fee: Fraction
    epsilon: Fraction = DEFAULT_EPSILON
    mode: str = EQUIVALENT

    def __post_init__(self):
        fee, epsilon = _level_and_floor(self.fee, self.epsilon)
        object.__setattr__(self, "fee", fee)
        object.__setattr__(self, "epsilon", epsilon)
        if (epsilon > 0) != _equivalent_mode(self.mode):
            raise CpsError([
                f"mode {self.mode} and epsilon {epsilon} disagree: "
                "equivalent mode needs epsilon > 0, absolutely continuous needs epsilon = 0"
            ])


@dataclass(frozen=True)
class ConsistentPriceSystem:
    """Shadow price inside the spread plus the measure that makes it a
    martingale, the measure given as a density process against the
    reference measure; bound to its tree and checked once, when built, by
    `ensure_adapted`'s check: construction raises CpsError listing every
    problem it finds in the density or, nodes left out aside, the shadow
    price.  `verify_cps` tests the rest.

    ``shadow_price`` may be partial: in the absolutely continuous mode it
    is only defined where the density is positive, and the nodes it omits
    are off the support.
    """

    tree: EventTree
    shadow_price: Mapping[NodeId, Fraction]
    density: AdaptedProcess
    fee: Fraction

    def __post_init__(self):
        problems = _adapted_problems(self.tree, self.density.values, "density")
        problems += _adapted_problems(self.tree, self.shadow_price, "shadow price", partial=True)
        if problems:
            raise CpsError(problems)


def _require_shadow(tree: EventTree, cps: ConsistentPriceSystem, nodes: Iterable[NodeId]) -> Mapping[NodeId, Fraction]:
    """A system's shadow price, read on ``tree`` at ``nodes``: TreeError if the
    system is bound to another tree, ValueError naming the nodes it leaves out.
    A bound shadow price holds no node outside its tree, so one as long as
    the tree covers every node and no node is walked."""
    ensure_bound(tree, cps, "price system")
    shadow = cps.shadow_price
    if len(shadow) < len(tree.nodes) and any(n not in shadow for n in nodes):
        raise ValueError(f"shadow price missing at nodes {[n for n in nodes if n not in shadow]}")
    return shadow


@dataclass(frozen=True)
class CpsInfeasibility:
    """Proof that no price system exists at the queried level.

    ``constraints`` are the rows the certificate uses, each with a nonzero
    multiplier, in the order of the full system and written by the same
    row writer; a row left out has multiplier 0.  The certificate
    aggregates them into a contradiction; verify() recomputes that
    aggregation from scratch.
    """

    certificate: FarkasCertificate
    constraints: tuple[Constraint, ...]

    def verify(self) -> bool:
        return self.certificate.verify(self.constraints)


@dataclass(frozen=True)
class FindCpsResult:
    """A feasible outcome carries the system and its minimum leaf
    density, the floor the system clears; an infeasible one carries the
    certificate."""

    feasible: bool
    cps: "ConsistentPriceSystem | None" = None
    infeasibility: "CpsInfeasibility | None" = None
    min_leaf_density: "Fraction | None" = None


def _row_keys(tree: EventTree, epsilon: Fraction) -> list[tuple[str, NodeId]]:
    """The (kind, node) of each row of the CPS system, in row order."""
    keys = [("unit_root_mass", tree.root)]
    keys += ((kind, n) for n in tree.internal for kind in ("mass_drift", "price_drift"))
    keys += ((kind, n) for n in tree.nodes for kind in ("bid", "ask"))
    keys += (("floor", leaf) for leaf in tree.leaves if epsilon > 0)
    return keys


# a row's block in `_row_keys` and its place among its node's rows there
_ROW_BLOCK = {
    "unit_root_mass": (0, 0),
    "mass_drift": (1, 0),
    "price_drift": (1, 1),
    "bid": (2, 0),
    "ask": (2, 1),
    "floor": (3, 0),
}


def _row_rank(pos: Mapping[NodeId, int], kind: str, node: NodeId) -> tuple[int, int, int]:
    """Sorts (kind, node) keys into `_row_keys` order: internal nodes and
    leaves come in ``tree.nodes`` order, whose positions ``pos`` gives."""
    block, place = _ROW_BLOCK[kind]
    return block, pos[node], place


def _cps_row(
    market: Market, fee: Fraction, epsilon: Fraction, pos: Mapping[NodeId, int], kind: str, node: NodeId
) -> Constraint:
    """One row in 2N nonnegative variables: mass z per node, at ``pos``,
    then price-weighted mass y = z * S-tilde per node."""
    z, label = pos[node], f"{kind}:{node}"
    y = len(pos) + z
    if kind == "bid":
        return Constraint({y: _ONE, z: -(1 - fee) * market.price[node]}, simplex.GE, _ZERO, label)
    if kind == "ask":
        return Constraint({y: _ONE, z: -market.price[node]}, simplex.LE, _ZERO, label)
    if kind == "floor":
        return Constraint({z: _ONE}, simplex.GE, epsilon, label)
    if kind == "unit_root_mass":
        return Constraint({z: _ONE}, simplex.EQ, _ONE, kind)
    # a drift row, sum p_c x_c - x_n = 0, in x = z or in x = y
    shift, tree = (0 if kind == "mass_drift" else len(pos)), market.tree
    row = {shift + z: -_ONE}
    for c in tree.children[node]:
        row[shift + pos[c]] = tree.cond_prob[c]
    return Constraint(row, simplex.EQ, _ZERO, label)


def _cps_constraints(
    market: Market, fee: Fraction, epsilon: Fraction
) -> tuple[int, list[Constraint], dict[NodeId, int]]:
    """The whole system, (2N, `_cps_row` of each `_row_keys` entry, pos)."""
    tree = market.tree
    pos = {n: i for i, n in enumerate(tree.nodes)}
    rows = [_cps_row(market, fee, epsilon, pos, *key) for key in _row_keys(tree, epsilon)]
    return 2 * len(pos), rows, pos


def _system(
    tree: EventTree, density: Mapping[NodeId, Fraction], shadow: Mapping[NodeId, Fraction], fee: Fraction
) -> ConsistentPriceSystem:
    """The system with density Z and the shadow values kept where Z > 0."""
    return ConsistentPriceSystem(
        tree=tree,
        shadow_price={n: s for n, s in shadow.items() if density[n].numerator > 0},
        density=AdaptedProcess(density),
        fee=fee,
    )


class _Box(NamedTuple):
    """The shadow prices a node can carry: an interval with, for each end,
    whether it is attained."""

    lo: Fraction
    lo_closed: bool
    hi: Fraction
    hi_closed: bool


def _cut(kn: int, kd: int, hi: Fraction, kids: list, equivalent: bool) -> "tuple[_Box, bool]":
    """A node's interval and whether it is nonempty: its spread
    [keep hi, hi], keep = kn / kd, cut by the hull of its children's
    intervals ``kids``.  In the equivalent mode every child keeps mass, so
    an end of the hull is attained only if every child attains it; in the
    absolutely continuous mode, if any child does."""
    kids = iter(kids)
    bottom, bottom_closed, top, top_closed = next(kids)
    bn, bd = bottom.as_integer_ratio()
    tn, td = top.as_integer_ratio()
    for kid_lo, kid_lo_closed, kid_hi, kid_hi_closed in kids:
        # a child that lowers the bottom leaves the others above it; one
        # that misses the bottom opens it (equivalent), one on it closes it
        n, d = kid_lo.as_integer_ratio()
        side = n * bd - bn * d
        if side < 0:
            bottom, bottom_closed, bn, bd = kid_lo, kid_lo_closed and not equivalent, n, d
        elif bottom_closed != (kid_lo_closed and not side):
            bottom_closed = not equivalent
        n, d = kid_hi.as_integer_ratio()
        side = n * td - tn * d
        if side > 0:
            top, top_closed, tn, td = kid_hi, kid_hi_closed and not equivalent, n, d
        elif top_closed != (kid_hi_closed and not side):
            top_closed = not equivalent
    # the spread's own ends are attained; where they meet the hull's, the
    # hull's closedness stands for the same value; the bid keep hi = n / d
    # is built only when it bounds the interval
    hn, hd = hi.as_integer_ratio()
    n, d = kn * hn, kd * hd
    if n * bd > bn * d:
        bottom, bottom_closed, bn, bd = hi if kn == kd else Fraction(n, d), True, n, d
    if hn * td < tn * hd:
        top, top_closed, tn, td = hi, True, hn, hd
    side = tn * bd - bn * td
    return _Box(bottom, bottom_closed, top, top_closed), side > 0 or (not side and bottom_closed and top_closed)


def _shadow_intervals(
    market: Market, fee: Fraction, equivalent: bool
) -> "tuple[dict[NodeId, _Box], dict[NodeId, _Box | None]]":
    """Backward pass over the tree: the interval of each node.

    Returns (live, dead).  ``live`` maps nodes with a nonempty interval to
    it.  ``dead`` maps a node that can carry no mass to its empty interval,
    or to None when every child is dead.  In the equivalent mode a system
    exists exactly when ``dead`` is empty, and the hull runs over every
    child, empty or not, so node n's interval is [(1 - lambda') L_n, H_n]
    with L_n, H_n and their closedness free of the level: `_threshold`
    reads them.  In the absolutely continuous mode a dead child drops out,
    and a system exists exactly when the root is live.
    """
    tree, price = market.tree, market.price.values
    kn, kd = (1 - fee).as_integer_ratio()
    live: dict[NodeId, _Box] = {}
    dead: dict[NodeId, "_Box | None"] = {}
    for n in reversed(tree.nodes):
        hi = price[n]
        children = tree.children[n]
        if not children:
            # a positive price leaves the spread nonempty
            hn, hd = hi.as_integer_ratio()
            live[n] = _Box(hi if kn == kd else Fraction(kn * hn, kd * hd), True, hi, True)
            continue
        if equivalent:
            kids = [live.get(c) or dead[c] for c in children]
        else:
            kids = [live[c] for c in children if c in live]
            if not kids:
                dead[n] = None
                continue
        box, nonempty = _cut(kn, kd, hi, kids, equivalent)
        (live if nonempty else dead)[n] = box
    return live, dead


def _place(v: Fraction, boxes: list, probs: list) -> list:
    """Child values inside the children's intervals that v is an average
    of, with weights proportional to P when the intervals allow it.

    Every child takes the value of its interval nearest to v, which is v
    itself when inside; the values then slide toward the far ends of
    the intervals until their P-mean reaches v.  When even the far ends do
    not reach it, they are returned and the weights must lean toward
    them.  v is then strictly between the lowest and the highest value,
    or equal to all of them, whenever v is in the intervals'
    equivalent-mode hull.

    Every value is carried as (Fraction or None, num, den): an interval
    end or v itself keeps its Fraction, a midpoint or a slid value is
    built once, when it is returned.
    """
    vn, vd = v.as_integer_ratio()
    near = []  # per child: p, the ends and the nearest value u, as integer pairs
    gap, gap_den = 0, 1  # the P-weighted moves off v, sum p (u - v), times vd
    for (lo, lo_closed, hi, hi_closed), p in zip(boxes, probs):
        pn, pd = p.as_integer_ratio()
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        below, above = vn * ld - ln * vd, vn * hd - hn * vd
        if below < 0 or not (below or lo_closed):
            u = (lo, ln, ld) if lo_closed else (None, ln * hd + hn * ld, 2 * ld * hd)
        elif above > 0 or not (above or hi_closed):
            u = (hi, hn, hd) if hi_closed else (None, ln * hd + hn * ld, 2 * ld * hd)
        else:
            near.append((pn, pd, ln, ld, hn, hd, v, vn, vd))
            continue
        _, un, ud = u
        near.append((pn, pd, ln, ld, hn, hd, *u))
        n, d = pn * (un * vd - vn * ud), pd * ud
        gap, gap_den = gap * d + n * gap_den, gap_den * d
    if not gap:
        return [Fraction(un, ud) if u is None else u for *_, u, un, ud in near]
    # toward the low ends when the P-mean is above v, else the high ends;
    # pull: how far the P-mean moves when every value reaches its far end
    low = gap > 0
    far, pull, pull_den = [], 0, 1
    for (lo, lo_closed, hi, hi_closed), (pn, pd, ln, ld, hn, hd, u, un, ud) in zip(boxes, near):
        if low:
            f = (lo, ln, ld) if lo_closed else (None, ln * ud + un * ld, 2 * ld * ud)
        else:
            f = (hi, hn, hd) if hi_closed else (None, un * hd + hn * ud, 2 * ud * hd)
        _, fn, fd = f
        step = fn * ud - un * fd  # (f - u) ud fd
        far.append((*f, step))
        if step:
            n, d = pn * abs(step), pd * ud * fd
            pull, pull_den = pull * d + n * pull_den, pull_den * d
    gap = abs(gap)
    if pull * gap_den * vd < gap * pull_den:
        return [Fraction(fn, fd) if f is None else f for f, fn, fd, _ in far]
    # s = gap / pull = sn / sd, and each value that moves is u + s (f - u)
    sn, sd = gap * pull_den, gap_den * vd * pull
    return [
        Fraction(un * fd * sd + sn * step, ud * fd * sd) if step else Fraction(un, ud) if u is None else u
        for (*_, u, un, ud), (_, _, fd, step) in zip(near, far)
    ]


def _density(tree: EventTree, shadow: Mapping[NodeId, Fraction]) -> dict[NodeId, Fraction]:
    """Density of plain one-step weights for fixed shadow values, top down.

    At a node with value v, the children that carry a value (all of them
    in the equivalent mode), with values u_c and probabilities p_c, get
    weights q_c = p_c / sum p when their P-mean is v.  Otherwise the
    weights lean on one extreme child e, the (first) lowest when the mean
    is above v and the highest when below: with t = (v - u_e) / (mean - u_e),
    q_c = t p_c / sum p, plus 1 - t on e.  `_place` puts v strictly between
    the lowest and the highest value, or makes every value v, so t is in
    (0, 1] and every such child keeps mass.  Z_c = Z_n q_c / p_c; children
    without a value get none.

    The sums, the mean test, the choice of e and r are integer pairs; the
    children other than e share one Fraction Z_n r, and e gets one more.
    """
    prob = tree.cond_prob
    density = dict.fromkeys(tree.nodes, _ZERO)
    density[tree.root] = _ONE
    for n in tree.internal:
        v = shadow.get(n)
        if v is None:
            continue
        children = tree.children[n]
        kids = [c for c in children if c in shadow]
        full = len(kids) == len(children)
        # total = sum p = tn / td and mass = sum p u = mn / md, unnormalized
        tn, td, mn, md = 0, 1, 0, 1
        terms = []
        for c in kids:
            pn, pd = prob[c].as_integer_ratio()
            un, ud = shadow[c].as_integer_ratio()
            terms.append((pn, pd, un, ud))
            if not full:
                tn, td = tn * pd + pn * td, td * pd
            d = pd * ud
            mn, md = mn * d + pn * un * md, md * d
        if full:
            tn = td = 1
        vn, vd = v.as_integer_ratio()
        gap = vn * tn * md - mn * vd * td  # the sign of v total - mass
        z = density[n]
        if full and not gap:
            for c in kids:
                density[c] = z
            continue
        # r = rn / rd = t / sum p: every child's ratio Z_c / Z_n, e's without its surplus
        if gap:
            e, (_, _, en, ed) = 0, terms[0]
            for i, (_, _, un, ud) in enumerate(terms):
                side = un * ed - en * ud
                if side > 0 if gap > 0 else side < 0:
                    e, en, ed = i, un, ud
            # (v - u_e) / (mass - u_e total)
            rn, rd = (vn * ed - en * vd) * md * td, vd * (mn * ed * td - en * tn * md)
        else:
            e, rn, rd = None, td, tn
        zn, zd = z.as_integer_ratio()
        zr = Fraction(zn * rn, zd * rd)
        for c in kids:
            density[c] = zr
        if e is not None:
            # Z_n (r + (1 - r total) / p_e)
            pn, pd, _, _ = terms[e]
            density[kids[e]] = Fraction(zn * (rn * pn * td + (rd * td - rn * tn) * pd), zd * rd * td * pn)
    return density


def _interval_witness(
    tree: EventTree, live: Mapping[NodeId, _Box], fee: Fraction
) -> tuple[ConsistentPriceSystem, Fraction]:
    """System built top down inside the intervals: the root takes its
    interval's midpoint, each node places its children's values with
    `_place`, and `_density` weighs them.  Returns the system and its
    minimum leaf density."""
    ln, ld = live[tree.root].lo.as_integer_ratio()
    hn, hd = live[tree.root].hi.as_integer_ratio()
    shadow = {tree.root: Fraction(ln * hd + hn * ld, 2 * ld * hd)}
    for n in tree.nodes:
        v = shadow.get(n)
        if v is None:
            continue
        kids = [c for c in tree.children[n] if c in live]
        if kids:
            shadow.update(zip(kids, _place(v, [live[c] for c in kids], [tree.cond_prob[c] for c in kids])))
    density = _density(tree, shadow)
    return _system(tree, density, shadow, fee), min(density[leaf] for leaf in tree.leaves)


def _interval_certificate(
    market: Market,
    query: CpsQuery,
    live: Mapping[NodeId, _Box],
    dead: "Mapping[NodeId, _Box | None]",
) -> CpsInfeasibility:
    """Farkas certificate over the rows it uses, read off the intervals.

    Every row is used in its "<=" direction (">=" rows with a negative
    multiplier), and each node has up to five derived inequalities, each a
    combination of rows; extra terms with nonnegative coefficients are
    allowed, since every variable is nonnegative.  Per node n with
    interval [a, b]:

    * lower(n): a z_n - y_n <= 0, from the bid row when a is the node's
      own attained bid (1 - lambda') S_n, else from the drift rows plus
      lower(c) of the live children and a p_c gone(c) of the dead ones;
    * upper(n): y_n - b z_n <= 0, from the ask row when b is the node's
      own attained ask S_n, or symmetrically with p_c cap(c) for the dead
      children;
    * floor(n): -z_n <= -epsilon, from the leaf floors and mass drifts.
      Adding p_c (a_c - a) floor(c) for each child strictly above an open
      end cancels that child's surplus and makes the inequality strict;
    * gone(n): z_n <= 0 for a dead node (absolutely continuous mode),
      from its crossed ends, or from its children all being dead, and
      cap(n): y_n <= 0, from its ask row and gone(n).

    The contradiction closes at the first empty node of the backward pass,
    whose children are all live (equivalent mode):
    lower + upper (+ (a - b) floor when the ends cross) leaves a
    nonnegative row with a negative right-hand side; or at the root
    (absolutely continuous mode), where gone(root) meets unit_root_mass.

    A node's derived inequalities are used only by the node itself
    (cap(n) uses gone(n), which uses lower(n) and upper(n)) and by its
    parent.  So one pass from the closing node down its subtree
    (equivalent mode) or the whole tree finds each node's weights final
    when it gets there, and adds them onto ``mu``, the row multipliers by
    (kind, node), and onto the children's weights.
    """
    tree, price = market.tree, market.price
    prob = tree.cond_prob
    keep = 1 - query.fee
    equivalent = query.mode == EQUIVALENT
    mu, lower, upper, floor, gone, cap = (defaultdict(int) for _ in range(6))
    if equivalent:
        failed, box = next(iter(dead.items()))
        lower[failed] = upper[failed] = Fraction(1)
        if box.lo > box.hi:
            floor[failed] = box.lo - box.hi
        scope, frontier = [], [failed]
        while frontier:
            scope.extend(frontier)
            frontier = [c for n in frontier for c in tree.children[n]]
    else:
        mu["unit_root_mass", tree.root] = -_ONE
        gone[tree.root] = Fraction(1)
        scope = tree.nodes

    for n in scope:
        kids = tree.children[n]
        box = live.get(n, dead.get(n))
        w = cap[n]
        if w:
            mu["ask", n] += w
            gone[n] += w * price[n]
        w = gone[n]
        if w:
            if box is None:
                mu["mass_drift", n] -= w
                for c in kids:
                    gone[c] += w * prob[c]
            else:
                w /= box.lo - box.hi
                lower[n] += w
                upper[n] += w
        w = lower[n]
        if w:
            bottom = box.lo
            if box.lo_closed and bottom == keep * price[n]:
                mu["bid", n] -= w
            else:
                mu["price_drift", n] += w
                mu["mass_drift", n] -= w * bottom
                for c in kids:
                    if c in live:
                        lower[c] += w * prob[c]
                        if equivalent and live[c].lo > bottom:
                            floor[c] += w * prob[c] * (live[c].lo - bottom)
                    else:
                        gone[c] += w * bottom * prob[c]
        w = upper[n]
        if w:
            top = box.hi
            if box.hi_closed and top == price[n]:
                mu["ask", n] += w
            else:
                mu["price_drift", n] -= w
                mu["mass_drift", n] += w * top
                for c in kids:
                    if c in live:
                        upper[c] += w * prob[c]
                        if equivalent and live[c].hi < top:
                            floor[c] += w * prob[c] * (top - live[c].hi)
                    else:
                        cap[c] += w * prob[c]
        w = floor[n]
        if w:
            if kids:
                mu["mass_drift", n] += w
                for c in kids:
                    floor[c] += w * prob[c]
            else:
                mu["floor", n] -= w
    pos = {n: i for i, n in enumerate(tree.nodes)}
    used = sorted((key for key, w in mu.items() if w), key=lambda key: _row_rank(pos, *key))
    return CpsInfeasibility(
        certificate=FarkasCertificate(tuple(mu[key] for key in used)),
        constraints=tuple(_cps_row(market, query.fee, query.epsilon, pos, *key) for key in used),
    )


def find_cps(market: Market, query: CpsQuery) -> FindCpsResult:
    """Decide whether a price system exists at the queried cost level.

    The interval recursion decides exactly.  Feasible outcomes carry the
    system and its minimum leaf density, which is positive in the
    equivalent mode.
    Infeasible outcomes carry an exact Farkas certificate over the rows
    of `_cps_constraints` that it uses.
    """
    equivalent = query.mode == EQUIVALENT
    live, dead = _shadow_intervals(market, query.fee, equivalent)
    # an equivalent system needs every node, an absolutely continuous one the root
    if (dead if equivalent else market.tree.root in dead):
        return FindCpsResult(
            feasible=False, infeasibility=_interval_certificate(market, query, live, dead)
        )
    cps, margin = _interval_witness(market.tree, live, query.fee)
    if equivalent and margin <= 0:
        raise RuntimeError(f"equivalent-mode witness has minimum leaf density {margin}")
    return FindCpsResult(feasible=True, cps=cps, min_leaf_density=margin)


def verify_cps(
    market: Market,
    cps: ConsistentPriceSystem,
    fee: "Fraction | None" = None,
    epsilon: "Fraction | None" = None,
) -> tuple[bool, list[str]]:
    """Check every defining property of a price system, exactly.

    Checks: the density's law by `_density_law` (Z(root) = 1, Z >= 0,
    zero one-step drift), the shadow price present on the support and
    inside the spread, its drift under Q, E_Q[S-tilde_next | n] -
    S-tilde(n), zero at every node Q charges, by `support_drift`, and
    (when epsilon is given) the leaf floor; the system checked its values
    per node when it was built.  A node the shadow price leaves out is
    read as 0 there: it weighs Z = 0 in its parent's mean, or is already
    reported missing.  Returns all violations found, each naming its
    node.  A system bound to another tree raises TreeError; a level
    outside [0, 1) or a negative epsilon raises CpsError.
    """
    tree = market.tree
    ensure_bound(tree, cps, "price system")
    fee, epsilon = _level_and_floor(
        cps.fee if fee is None else fee, _ZERO if epsilon is None else epsilon
    )
    violations = _density_law(tree, cps.density)
    z, shadow = cps.density.values, cps.shadow_price
    keep = 1 - fee
    kn, kd = keep.as_integer_ratio()
    price = market.price.values
    for n in tree.nodes:
        if n in shadow:
            s = shadow[n]
            sn, sd = s.as_integer_ratio()
            hi = price[n]
            hn, hd = hi.as_integer_ratio()
            # keep * hi <= s <= hi, cross-multiplied
            if not (kn * hn * sd <= sn * kd * hd and sn * hd <= hn * sd):
                violations.append(
                    f"node {n}: shadow price {s} outside spread [{keep * hi}, {hi}]"
                )
        elif z[n].numerator:
            violations.append(f"node {n}: shadow price missing on support (density {z[n]})")

    if len(shadow) < len(z):
        shadow = {n: shadow.get(n, _ZERO) for n in tree.nodes}
    for n, drift in support_drift(tree, AdaptedProcess(shadow), cps.density).items():
        if drift.numerator:
            violations.append(f"node {n}: shadow price drift under Q {drift} (martingale property fails)")

    if epsilon:
        for leaf in tree.leaves:
            if cps.density[leaf] < epsilon:
                violations.append(
                    f"node {leaf}: leaf density {cps.density[leaf]} below floor {epsilon}"
                )
    return not violations, violations


def max_equivalence_margin(
    market: Market, fee: Fraction
) -> "tuple[Fraction | None, ConsistentPriceSystem | None]":
    """Best achievable equivalence: maximize the minimum leaf density.

    Returns (margin, system at that margin), or (None, None) when not
    even an absolutely continuous system exists.  A margin of zero means
    the cost level is attainable only with a degenerate measure.
    """
    tree = market.tree
    fee, _ = _level_and_floor(fee)
    num_vars, cons, pos = _cps_constraints(market, fee, Fraction(0))
    t = num_vars
    for leaf in tree.leaves:
        cons.append(
            Constraint({pos[leaf]: Fraction(1), t: Fraction(-1)}, simplex.GE, Fraction(0), f"margin:{leaf}")
        )
    result = simplex.solve(num_vars + 1, cons, objective={t: Fraction(1)}, maximize=True)
    if result.status == simplex.INFEASIBLE:
        return None, None
    if result.status != simplex.OPTIMAL:
        raise RuntimeError("margin is bounded by the unit root mass")
    nodes, x = tree.nodes, result.x
    shadow = {n: y / z for n, z, y in zip(nodes, x, x[len(nodes):]) if z > 0}
    return result.objective, _system(tree, dict(zip(nodes, x)), shadow, fee)


def _equivalent_mode(measure: str) -> bool:
    """True for the EQUIVALENT measure class, False for ABSOLUTELY_CONTINUOUS."""
    if measure not in (EQUIVALENT, ABSOLUTELY_CONTINUOUS):
        raise CpsError([f"unknown measure class {measure!r}"])
    return measure == EQUIVALENT


def _threshold(market: Market, equivalent: bool) -> tuple[Fraction, bool]:
    """The threshold, the infimum of the cost levels with a price system,
    and whether a system exists at the threshold itself.

    Equivalent mode, the pass `find_cps` decides by: node n's interval
    at level lambda' is [(1 - lambda') L_n, H_n], where neither L_n, H_n
    nor which ends are closed depends on the level, and a system exists
    exactly when every node is nonempty.  So one pass at level 0 gives
    the threshold t = max (1 - H_n / L_n) over its empty nodes, and it is
    attained iff every empty node with (1 - t) L_n = H_n has both ends
    closed.

    Absolutely continuous mode, where an empty child drops out instead of
    emptying its parent: every interval end of the backward pass is a bid
    (1 - lambda') S_x or an ask S_y of a node in the subtree, and a
    node's interval can only empty where one end is its own quote.  So
    the root's emptiness changes only at levels 1 - S_d / S_a with one
    node an ancestor of the other and S_d < S_a.  Every end is closed
    (leaves and spreads are, and a cut in this mode only closes ends),
    so the feasible levels form a closed set and the threshold is
    attained, at one of those candidates: close enough to 1 every level
    is feasible, since one constant shadow price then sits in every
    spread.  Feasibility grows with the level, so bisecting the
    candidates, one backward pass per probe, finds it.

    The commands and the theorem checks call this twin, because
    `cps_threshold` drops ``attained``.  Both stay while the benchmark
    harness compares `cps_threshold`'s bare Fraction and traces it by name.
    """
    tree, price = market.tree, market.price

    if equivalent:
        # the level as (num, den), and each need 1 - H_n / L_n = (L_n - H_n) / L_n
        num, den, attained = 0, 1, True
        for box in _shadow_intervals(market, Fraction(0), True)[1].values():
            ln, ld = box.lo.as_integer_ratio()
            hn, hd = box.hi.as_integer_ratio()
            need, need_den = ln * hd - hn * ld, ln * hd
            closed = box.lo_closed and box.hi_closed
            side = need * den - num * need_den
            if side > 0:
                num, den, attained = need, need_den, closed
            elif not side:
                attained = attained and closed
        return Fraction(num, den), attained

    def feasible(fee: Fraction) -> bool:
        return tree.root in _shadow_intervals(market, fee, False)[0]

    if feasible(Fraction(0)):
        return Fraction(0), True
    ratios = set()
    for d in tree.nodes:
        a = tree.parent[d]
        while a is not None:
            lo, hi = sorted((price[a], price[d]))
            if lo < hi:
                ratios.add(lo / hi)
            a = tree.parent[a]
    levels = sorted(1 - r for r in ratios)
    return levels[bisect.bisect_left(levels, True, key=feasible)], True


def cps_threshold(market: Market, measure: str = EQUIVALENT) -> Fraction:
    """The threshold: the infimum of the cost levels at which a price
    system exists, computed exactly.

    ``measure`` is the class of the system's measure, EQUIVALENT or
    ABSOLUTELY_CONTINUOUS.  The infimum need not be attained: a market
    can admit an equivalent system at every positive level but not at 0.
    ``_threshold`` is the twin that also says whether t is attained.
    """
    return _threshold(market, _equivalent_mode(measure))[0]


def _rescaling(low_fee: Fraction, fee, alpha) -> tuple[Fraction, Fraction, Fraction]:
    """The window of the rescaling argument, stated once: the level
    ``fee`` read by `_level_and_floor`, ``alpha`` by `parse_rational`, and
    the factors 1 - alpha and (1 - fee)/(1 - alpha) that promote a price
    system at ``low_fee`` to level ``fee``.  Raises ValueError unless
    low_fee <= alpha <= fee and both rescaled prices stay inside the
    wider spread."""
    fee, _ = _level_and_floor(fee)
    alpha = parse_rational(alpha)
    if not (low_fee <= alpha <= fee):
        raise ValueError(
            f"parameter ordering violated: need {low_fee} <= alpha <= {fee}, got alpha = {alpha}"
        )
    if (1 - alpha) * (1 - low_fee) < (1 - fee):
        raise ValueError(
            f"scaling by 1 - alpha = {1 - alpha} would exit the spread: "
            f"need (1-alpha)(1-{low_fee}) >= {1 - fee}"
        )
    down = 1 - alpha
    return fee, down, (1 - fee) / down


def scale_cps(
    cps: ConsistentPriceSystem, fee: Fraction, alpha: Fraction
) -> tuple[ConsistentPriceSystem, ConsistentPriceSystem]:
    """The two rescalings that promote a low-cost system to level ``fee``.

    Multiplying the shadow price by (1 - alpha), or by (1 - fee)/(1 - alpha),
    keeps it a martingale under the same measure; the window of
    `_rescaling` keeps both inside the wider spread.
    """
    fee, down, up = _rescaling(cps.fee, fee, alpha)
    return tuple(
        ConsistentPriceSystem(
            tree=cps.tree,
            shadow_price={n: factor * s for n, s in cps.shadow_price.items()},
            density=cps.density,
            fee=fee,
        )
        for factor in (down, up)
    )


@dataclass(frozen=True)
class BruteForceResult:
    feasible: bool
    witness: "ConsistentPriceSystem | None"
    margin: "Fraction | None"
    grid_resolution: int


def _spread_grid(market: Market, fee: Fraction, steps: int) -> dict[NodeId, list[Fraction]]:
    """Uniform grid over each node's spread, enriched with every spread
    endpoint from anywhere in the tree that happens to fall inside."""
    tree = market.tree
    endpoints = []
    for n in tree.nodes:
        lo = (1 - fee) * market.price[n]
        endpoints.append(lo)
        endpoints.append(market.price[n])
    grids: dict[NodeId, list[Fraction]] = {}
    for n in tree.nodes:
        lo = (1 - fee) * market.price[n]
        hi = market.price[n]
        values = {lo + Fraction(k, steps) * (hi - lo) for k in range(steps + 1)}
        for e in endpoints:
            if lo <= e <= hi:
                values.add(e)
        grids[n] = sorted(values)
    return grids


def _straddle_possible(v: Fraction, lows: list[Fraction], highs: list[Fraction]) -> bool:
    """Can value v sit strictly between child values drawn from two
    distinct children?  lows/highs are per-child minima and maxima."""
    below = [i for i, lo in enumerate(lows) if lo < v]
    above = [i for i, hi in enumerate(highs) if hi > v]
    if not below or not above:
        return False
    return len(below) > 1 or len(above) > 1 or below[0] != above[0]


def brute_force_cps(
    market: Market,
    fee: Fraction,
    epsilon: Fraction = DEFAULT_EPSILON,
    grid_resolution: int = 8,
) -> BruteForceResult:
    """Independent small-scale oracle for find_cps.

    Discretizes each spread and decides, exactly, whether some assignment
    of on-grid shadow values admits a valid measure: an assignment works
    iff at every internal node the value either equals all child values or
    lies strictly between two of them (that is the existence criterion for
    strictly positive one-step weights).  Sweeping that criterion bottom-up
    over per-node feasible value sets decides all grid assignments at once,
    which is equivalent to enumerating them.

    In the equivalent mode a witness system is extracted and weighed by
    `_density`, the rule `find_cps` uses; the result is feasible only if
    its minimum leaf density, the margin, reaches epsilon.  That margin
    can be below the best floor for the selected values, so the oracle
    may report infeasible where a better-weighted system would clear
    epsilon, never the reverse.  Soundness is one-sided: a reported
    witness always verifies, while infeasibility only speaks for the
    given grid and these weights.
    """
    fee, epsilon = _level_and_floor(fee, epsilon)
    tree = market.tree
    if tree.horizon > 3 or any(len(tree.children[n]) > 3 for n in tree.internal):
        raise ValueError(
            "oracle scale exceeded: needs at most 3 periods and 3 children per node"
        )
    if grid_resolution < 1:
        raise ValueError(f"grid resolution must be at least 1, got {grid_resolution}")

    grids = _spread_grid(market, fee, grid_resolution)
    equivalent = epsilon > 0

    feasible_values: dict[NodeId, set] = {}
    for n in reversed(tree.nodes):
        kids = tree.children[n]
        if not kids:
            feasible_values[n] = set(grids[n])
            continue
        child_sets = [feasible_values[c] for c in kids]
        if equivalent and any(not s for s in child_sets):
            feasible_values[n] = set()
            continue
        live = [s for s in child_sets if s]
        if not live:
            feasible_values[n] = set()
            continue
        lows = [min(s) for s in live]
        highs = [max(s) for s in live]
        ok = set()
        for v in grids[n]:
            if equivalent:
                if all(v in s for s in child_sets) or _straddle_possible(v, lows, highs):
                    ok.add(v)
            else:
                if any(v in s for s in live) or _straddle_possible(v, lows, highs):
                    ok.add(v)
        feasible_values[n] = ok

    root_values = feasible_values[tree.root]
    if not root_values:
        return BruteForceResult(False, None, None, grid_resolution)
    if not equivalent:
        return BruteForceResult(True, None, None, grid_resolution)

    shadow: dict[NodeId, Fraction] = {}

    def assign(n: NodeId, v: Fraction) -> None:
        shadow[n] = v
        kids = tree.children[n]
        if not kids:
            return
        if all(v in feasible_values[c] for c in kids):
            for c in kids:
                assign(c, v)
            return
        # straddle: grab the widest available bracket around v
        best = None
        for c1 in kids:
            lo = min(feasible_values[c1])
            if lo >= v:
                continue
            for c2 in kids:
                if c2 == c1:
                    continue
                hi = max(feasible_values[c2])
                if hi <= v:
                    continue
                score = (v - lo) * (hi - v)
                if best is None or score > best[0]:
                    best = (score, c1, lo, c2, hi)
        _, c_lo, u_lo, c_hi, u_hi = best
        assign(c_lo, u_lo)
        assign(c_hi, u_hi)
        for c in kids:
            if c in (c_lo, c_hi):
                continue
            if v in feasible_values[c]:
                assign(c, v)
            else:
                assign(c, min(feasible_values[c], key=lambda u: abs(u - v)))

    # prefer the root value with the roomiest bracket; ties to the middle
    assign(tree.root, sorted(root_values)[len(root_values) // 2])

    density = _density(tree, shadow)
    margin = min(density[leaf] for leaf in tree.leaves)
    witness = ConsistentPriceSystem(
        tree=tree,
        shadow_price=dict(shadow),
        density=AdaptedProcess(density),
        fee=fee,
    )
    if margin >= epsilon:
        return BruteForceResult(True, witness, margin, grid_resolution)
    return BruteForceResult(False, witness, margin, grid_resolution)


def load_cps(document: Mapping, tree: EventTree) -> tuple[ConsistentPriceSystem, Fraction]:
    """Parse a price-system document; returns the system, bound to
    ``tree``, and its epsilon.

    Expected keys: "S_tilde" and "Z" as maps from node id text (or int
    ids) to rational text, "lambda_prime", "epsilon".  "S_tilde" may omit
    nodes (taken as off-support); "Z" must cover every node;
    "lambda_prime" must be in [0, 1) and "epsilon" nonnegative.
    """
    if not isinstance(document, Mapping):
        raise CpsError(["price-system document must be a JSON object"])
    problems: list[str] = []
    for key in ("S_tilde", "Z", "lambda_prime", "epsilon"):
        if key not in document:
            problems.append(f"missing '{key}'")
    if problems:
        raise CpsError(problems)
    for key in ("S_tilde", "Z"):
        if not isinstance(document[key], Mapping):
            problems.append(f"'{key}' must be an object, got {type(document[key]).__name__}")
    if problems:
        raise CpsError(problems)

    read = rational_reader()

    def parse_map(raw: Mapping, label: str) -> dict[NodeId, Fraction]:
        out: dict[NodeId, Fraction] = {}
        for key, value in raw.items():
            if isinstance(key, str):
                try:
                    node = ascii_int(key)
                except ValueError:
                    node = None
            else:
                # int() would read 1.5 and True as node 1
                node = key if type(key) is int else None
            if node is None:
                problems.append(f"{label}: bad node id {key!r}")
                continue
            if node not in tree.node_set:
                problems.append(f"{label}: node {node} not in tree")
                continue
            if node in out:
                problems.append(f"{label}: node {node} given twice")
                continue
            try:
                out[node] = read(value)
            except ValueError as exc:
                problems.append(f"{label}: node {node}: {exc}")
        return out

    shadow = parse_map(document["S_tilde"], "S_tilde")
    density = parse_map(document["Z"], "Z")
    try:
        fee, epsilon = _level_and_floor(
            document["lambda_prime"], document["epsilon"], ("lambda_prime", "epsilon")
        )
    except CpsError as exc:
        problems.extend(exc.problems)
    missing = [n for n in tree.nodes if n not in density]
    if missing:
        problems.append(f"Z: missing nodes {missing}")
    if problems:
        raise CpsError(problems)

    return ConsistentPriceSystem(tree=tree, shadow_price=shadow, density=AdaptedProcess(density), fee=fee), epsilon


def cps_to_doc(cps: ConsistentPriceSystem, epsilon: Fraction) -> dict:
    """Serialize to the documented wire shape (node ids become text keys)."""
    keys = node_keys(cps.tree.nodes)
    return {
        "S_tilde": format_map(cps.shadow_price, keys),
        "Z": format_map(cps.density.values, keys),
        "lambda_prime": format_rational(cps.fee),
        "epsilon": format_rational(epsilon),
    }
