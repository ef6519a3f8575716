"""Consistent price systems: existence, construction, verification.

A consistent price system at cost level lambda' is a pair (S-tilde, Q):
a shadow price lying inside every node's spread together with a measure
under which it is a martingale.  Q is carried by its density process Z
against the reference measure; with Y = Z * S-tilde the conditions are
linear in (Z, Y), and `_cps_constraints` writes them out as rows.

On a tree the shadow prices a node can carry form an interval, so
existence is decided exactly by one backward pass (the recursion of
Roux & Zastawniak).  Each leaf starts at its spread [(1 - lambda') S, S];
an internal node intersects its own spread with the hull of its
children's intervals.  In the equivalent mode every child keeps positive
mass, so an end of the hull is attained only if every child attains it,
and one empty child empties the parent.  In the absolutely continuous
mode Z may die out, so empty children are dropped and an end is attained
if any child attains it.

A nonempty root interval is turned into a witness top down: each node's
value is placed inside its children's intervals, and the one-step
weights maximize the minimum leaf density for the values placed.  In the
equivalent mode that minimum is positive, so the witness is equivalent
and clears a leaf floor of exactly that minimum; `max_equivalence_margin`
gives the best floor any system clears.

An empty interval is turned into a Farkas certificate over the same
rows, read off the intervals, so infeasibility stays checkable
independently of how it was found.  Its multipliers do not depend on the
leaf floor epsilon > 0 of the rows, so epsilon only selects the mode:
epsilon = 0 is the absolutely continuous mode, where the shadow price is
only defined on the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import simplex
from .market import Market, MarketError, validate_market
from .rationals import format_rational, parse_rational
from .simplex import Constraint, FarkasCertificate
from .tree import AdaptedProcess, EventTree, InputError, NodeId, density_problems, one_step_mean

EQUIVALENT = "equivalent"
ABSOLUTELY_CONTINUOUS = "absolutely_continuous"

DEFAULT_EPSILON = Fraction(1, 10**6)


class CpsError(InputError):
    """An invalid price-system description or query."""


@dataclass(frozen=True)
class CpsQuery:
    """What to search for: cost level, leaf floor, and mode.

    The floor does not decide feasibility: it selects the mode (epsilon > 0
    for equivalent, 0 for absolutely continuous) and is the right-hand side
    of the ``floor:`` rows in an infeasibility certificate.
    """

    fee: Fraction
    epsilon: Fraction = DEFAULT_EPSILON
    mode: str = EQUIVALENT

    def __post_init__(self):
        object.__setattr__(self, "fee", Fraction(self.fee))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        problems = []
        if not (0 <= self.fee < 1):
            problems.append(f"cost level must satisfy 0 <= lambda' < 1, got {self.fee}")
        if self.epsilon < 0:
            problems.append(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.mode not in (EQUIVALENT, ABSOLUTELY_CONTINUOUS):
            problems.append(f"unknown mode {self.mode!r}")
        elif (self.epsilon > 0) != (self.mode == EQUIVALENT):
            problems.append(
                f"mode {self.mode} and epsilon {self.epsilon} disagree: "
                "equivalent mode needs epsilon > 0, absolutely continuous needs epsilon = 0"
            )
        if problems:
            raise CpsError(problems)


@dataclass(frozen=True)
class ConsistentPriceSystem:
    """Shadow price inside the spread plus the measure that makes it a
    martingale, the measure given as a density process against the
    reference measure.

    ``shadow_price`` may be partial: in the absolutely continuous mode it
    is only defined where the density is positive, and ``off_support``
    lists the nodes left out.
    """

    shadow_price: Mapping[NodeId, Fraction]
    density: AdaptedProcess
    fee: Fraction
    off_support: tuple[NodeId, ...] = ()

    def leaf_measure(self, tree: EventTree) -> dict[NodeId, Fraction]:
        """The measure Q as leaf weights: Q(leaf) = Z(leaf) * P(leaf)."""
        return {leaf: self.density[leaf] * tree.node_prob[leaf] for leaf in tree.leaves}


@dataclass(frozen=True)
class CpsInfeasibility:
    """Proof that no price system exists at the queried level.

    The certificate aggregates the stored constraint rows into a
    contradiction; verify() recomputes that aggregation from scratch.
    """

    fee: Fraction
    epsilon: Fraction
    certificate: FarkasCertificate
    num_vars: int
    constraints: tuple[Constraint, ...]

    def verify(self) -> bool:
        return self.certificate.verify(self.num_vars, self.constraints)


@dataclass(frozen=True)
class FindCpsResult:
    feasible: bool
    cps: "ConsistentPriceSystem | None" = None
    price_mass: "AdaptedProcess | None" = None
    infeasibility: "CpsInfeasibility | None" = None


def _cps_constraints(
    market: Market, fee: Fraction, epsilon: Fraction
) -> tuple[int, list[Constraint], dict[NodeId, int]]:
    """Feasibility system in 2N nonnegative variables: mass z per node,
    then price-weighted mass y = z * S-tilde per node."""
    tree = market.tree
    pos = {n: i for i, n in enumerate(tree.nodes)}
    count = len(tree.nodes)
    cons: list[Constraint] = []

    cons.append(Constraint({pos[tree.root]: Fraction(1)}, simplex.EQ, Fraction(1), "unit_root_mass"))
    for n in tree.internal:
        zrow = {pos[n]: Fraction(-1)}
        yrow = {count + pos[n]: Fraction(-1)}
        for c in tree.children[n]:
            zrow[pos[c]] = tree.cond_prob[c]
            yrow[count + pos[c]] = tree.cond_prob[c]
        cons.append(Constraint(zrow, simplex.EQ, Fraction(0), f"mass_drift:{n}"))
        cons.append(Constraint(yrow, simplex.EQ, Fraction(0), f"price_drift:{n}"))
    for n in tree.nodes:
        lo = (1 - fee) * market.price[n]
        hi = market.price[n]
        cons.append(
            Constraint({count + pos[n]: Fraction(1), pos[n]: -lo}, simplex.GE, Fraction(0), f"bid:{n}")
        )
        cons.append(
            Constraint({count + pos[n]: Fraction(1), pos[n]: -hi}, simplex.LE, Fraction(0), f"ask:{n}")
        )
    if epsilon > 0:
        for leaf in tree.leaves:
            cons.append(Constraint({pos[leaf]: Fraction(1)}, simplex.GE, epsilon, f"floor:{leaf}"))
    return 2 * count, cons, pos


def _system_from_solution(
    tree: EventTree, x, pos: Mapping[NodeId, int], fee: Fraction
) -> tuple[ConsistentPriceSystem, AdaptedProcess]:
    count = len(tree.nodes)
    density = {n: x[pos[n]] for n in tree.nodes}
    mass_price = {n: x[count + pos[n]] for n in tree.nodes}
    shadow = {n: mass_price[n] / density[n] for n in tree.nodes if density[n] > 0}
    off = tuple(n for n in tree.nodes if density[n] == 0)
    cps = ConsistentPriceSystem(
        shadow_price=shadow,
        density=AdaptedProcess(density),
        fee=fee,
        off_support=off,
    )
    return cps, AdaptedProcess(mass_price)


class _Box(NamedTuple):
    """The shadow prices a node can carry: an interval with, for each end,
    whether it is attained and whether it is the node's own quote (rather
    than the hull of its children's intervals)."""

    lo: Fraction
    lo_closed: bool
    lo_own: bool
    hi: Fraction
    hi_closed: bool
    hi_own: bool

    def is_empty(self) -> bool:
        return self.lo > self.hi or (
            self.lo == self.hi and not (self.lo_closed and self.hi_closed)
        )

    def contains(self, v: Fraction) -> bool:
        return (self.lo < v or (v == self.lo and self.lo_closed)) and (
            v < self.hi or (v == self.hi and self.hi_closed)
        )

    def nearest(self, v: Fraction) -> Fraction:
        """v itself when inside, else the end next to it, or the midpoint
        when that end is open."""
        if v < self.lo or (v == self.lo and not self.lo_closed):
            return self.lo if self.lo_closed else (self.lo + self.hi) / 2
        if v > self.hi or (v == self.hi and not self.hi_closed):
            return self.hi if self.hi_closed else (self.lo + self.hi) / 2
        return v

    def low_point(self, u: Fraction) -> Fraction:
        """The lowest attained value, or halfway down from u to an open end."""
        return self.lo if self.lo_closed else (self.lo + u) / 2

    def high_point(self, u: Fraction) -> Fraction:
        return self.hi if self.hi_closed else (u + self.hi) / 2


def _shadow_intervals(
    market: Market, fee: Fraction, equivalent: bool
) -> "tuple[dict[NodeId, _Box], dict[NodeId, _Box | None]]":
    """Backward pass over the tree: the interval of each node.

    Returns (live, dead).  ``live`` maps nodes with a nonempty interval to
    it.  ``dead`` maps a node that can carry no mass to its empty interval,
    or to None when every child is dead.  In the equivalent mode the pass
    stops at the first empty node, since every ancestor is empty too, so
    ``dead`` holds at most that node.
    """
    tree = market.tree
    keep = 1 - fee
    attained = all if equivalent else any
    live: dict[NodeId, _Box] = {}
    dead: dict[NodeId, "_Box | None"] = {}
    for n in reversed(tree.nodes):
        hi = market.price[n]
        lo = keep * hi
        kids = [live[c] for c in tree.children[n] if c in live]
        if not tree.children[n]:
            box = _Box(lo, True, True, hi, True, True)
        elif not kids:
            dead[n] = None
            continue
        else:
            bottom = min(b.lo for b in kids)
            bottom_closed = attained(b.lo == bottom and b.lo_closed for b in kids)
            top = max(b.hi for b in kids)
            top_closed = attained(b.hi == top and b.hi_closed for b in kids)
            if lo > bottom or (lo == bottom and bottom_closed):
                low = (lo, True, True)
            else:
                low = (bottom, bottom_closed, False)
            if hi < top or (hi == top and top_closed):
                high = (hi, True, True)
            else:
                high = (top, top_closed, False)
            box = _Box(*low, *high)
        if box.is_empty():
            dead[n] = box
            if equivalent:
                break
        else:
            live[n] = box
    return live, dead


def _place(v: Fraction, boxes: list, probs: list) -> list:
    """Child values inside the children's intervals that v is an average
    of, with weights proportional to P when the intervals allow it.

    Every child takes the value of its interval nearest to v; the values
    then slide toward the far ends of the intervals until their P-mean
    reaches v.  When even the far ends do not reach it, they are returned
    and the weights must lean toward them.  v is then strictly between
    the lowest and the highest value, or equal to all of them, whenever
    v is in the intervals' equivalent-mode hull.
    """
    if all(b.contains(v) for b in boxes):
        return [v] * len(boxes)
    near = [b.nearest(v) for b in boxes]
    total = sum(probs)
    mean = sum(p * u for p, u in zip(probs, near)) / total
    if mean == v:
        return near
    if mean > v:
        far = [b.low_point(u) for b, u in zip(boxes, near)]
    else:
        far = [b.high_point(u) for b, u in zip(boxes, near)]
    far_mean = sum(p * u for p, u in zip(probs, far)) / total
    if (far_mean - v) * (mean - v) > 0:
        return far
    s = (mean - v) / (mean - far_mean)
    return [u + s * (f - u) for u, f in zip(near, far)]


def _max_min_density(
    tree: EventTree, shadow: Mapping[NodeId, Fraction]
) -> tuple[dict[NodeId, Fraction], Fraction]:
    """Density for fixed shadow values that maximizes the minimum leaf
    density; returns the density at every node and that minimum.

    Children without a shadow value get no mass.  Bottom up, with the
    subtree margins m_c already fixed, a node's margin is
    min_c (q_c / p_c) m_c, maximized over one-step weights q >= 0 summing
    to 1 that average the children's values to the node's; the optimum of
    that one-dimensional problem has a closed form in the three bounds
    computed below.  A subtree that already loses mass (margin 0) is
    weighted as if its margin were 1.
    """
    margin: dict[NodeId, Fraction] = {}
    weights: dict[NodeId, dict[NodeId, Fraction]] = {}
    for n in reversed(tree.nodes):
        if n not in shadow:
            continue
        if not tree.children[n]:
            margin[n] = Fraction(1)
            continue
        kids = [c for c in tree.children[n] if c in shadow]
        sub = [margin[c] for c in kids]
        lost = len(kids) < len(tree.children[n]) or min(sub) == 0
        if lost:
            sub = [Fraction(1)] * len(kids)
        v = shadow[n]
        u = [shadow[c] for c in kids]
        beta = [tree.cond_prob[c] / m for c, m in zip(kids, sub)]
        umin, umax = min(u), max(u)
        bounds = [Fraction(1) / sum(beta)]
        d_lo = sum(b * (ui - umin) for b, ui in zip(beta, u))
        d_hi = sum(b * (umax - ui) for b, ui in zip(beta, u))
        if d_lo > 0:
            bounds.append((v - umin) / d_lo)
        if d_hi > 0:
            bounds.append((umax - v) / d_hi)
        t = min(bounds)
        q = [t * b for b in beta]
        if umax > umin:
            # residual mass goes to the extreme children; the split is the
            # unique one preserving both the total and the mean
            sigma = 1 - sum(q)
            tau = v - sum(qc * uc for qc, uc in zip(q, u))
            r_hi = (tau - sigma * umin) / (umax - umin)
            r_lo = sigma - r_hi
            q[u.index(umin)] += r_lo
            q[u.index(umax)] += r_hi
        else:
            total = sum(q)
            q = [qc / total for qc in q]
        weights[n] = dict(zip(kids, q))
        low = min(qc * mc / tree.cond_prob[c] for c, qc, mc in zip(kids, q, sub))
        margin[n] = Fraction(0) if lost else low
    density: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        up = tree.parent[n]
        if up is None:
            density[n] = Fraction(1)
        elif up in weights:
            density[n] = density[up] * weights[up].get(n, 0) / tree.cond_prob[n]
        else:
            density[n] = Fraction(0)
    return density, margin[tree.root]


def _interval_witness(
    tree: EventTree, live: Mapping[NodeId, _Box], fee: Fraction
) -> tuple[ConsistentPriceSystem, AdaptedProcess, Fraction]:
    """System built top down inside the intervals: the root takes its
    interval's midpoint, each node places its children's values with
    `_place`, and `_max_min_density` weighs them.  Returns the system, the
    mass process y = z * S-tilde and the minimum leaf density."""
    root = live[tree.root]
    shadow = {tree.root: (root.lo + root.hi) / 2}
    for n in tree.nodes:
        if n not in shadow:
            continue
        kids = [c for c in tree.children[n] if c in live]
        if kids:
            values = _place(shadow[n], [live[c] for c in kids], [tree.cond_prob[c] for c in kids])
            shadow.update(zip(kids, values))
    density, margin = _max_min_density(tree, shadow)
    cps = ConsistentPriceSystem(
        shadow_price={n: s for n, s in shadow.items() if density[n] > 0},
        density=AdaptedProcess(density),
        fee=fee,
        off_support=tuple(n for n in tree.nodes if density[n] == 0),
    )
    mass = {n: density[n] * shadow[n] if density[n] > 0 else Fraction(0) for n in tree.nodes}
    return cps, AdaptedProcess(mass), margin


class _Derivation:
    """A derived inequality: a combination of constraint rows, given as
    (label, multiplier) pairs, plus nonnegative multiples of earlier
    derivations."""

    __slots__ = ("rows", "parts")

    def __init__(self, rows, parts):
        self.rows = rows
        self.parts = parts


def _interval_certificate(
    market: Market,
    query: CpsQuery,
    live: Mapping[NodeId, _Box],
    dead: "Mapping[NodeId, _Box | None]",
) -> CpsInfeasibility:
    """Farkas certificate over `_cps_constraints`, read off the intervals.

    Every row is used in its "<=" direction (">=" rows with a negative
    multiplier), and a derivation stands for the inequality the combined
    rows imply; extra terms with nonnegative coefficients are allowed,
    since every variable is nonnegative.  Per node n with interval [a, b]:

    * lower(n): a z_n - y_n <= 0, from the bid row when a is the node's
      own quote, else from the drift rows plus lower(c) of the live
      children and a p_c gone(c) of the dead ones;
    * upper(n): y_n - b z_n <= 0, from the ask row, or symmetrically with
      p_c cap(c) for the dead children;
    * floor(n): -z_n <= -epsilon, from the leaf floors and mass drifts.
      Adding p_c (a_c - a) floor(c) for each child strictly above an open
      end cancels that child's surplus and makes the inequality strict;
    * gone(n): z_n <= 0 for a dead node (absolutely continuous mode),
      from its crossed ends, or from its children all being dead, and
      cap(n): y_n <= 0, from its ask row and gone(n).

    The contradiction closes at the first empty node (equivalent mode):
    lower + upper (+ (a - b) floor when the ends cross) leaves a
    nonnegative row with a negative right-hand side; or at the root
    (absolutely continuous mode), where gone(root) meets unit_root_mass.
    """
    tree = market.tree
    equivalent = query.mode == EQUIVALENT
    made: list[_Derivation] = []

    def derive(rows, parts=()) -> _Derivation:
        d = _Derivation(rows, parts)
        made.append(d)
        return d

    if equivalent:
        (failed,) = dead
        scope, frontier = [], [failed]
        while frontier:
            scope.extend(frontier)
            frontier = [c for n in frontier for c in tree.children[n]]
        scope.reverse()
    else:
        scope = list(reversed(tree.nodes))

    lower: dict[NodeId, _Derivation] = {}
    upper: dict[NodeId, _Derivation] = {}
    floor: dict[NodeId, _Derivation] = {}
    gone: dict[NodeId, _Derivation] = {}
    cap: dict[NodeId, _Derivation] = {}
    prob = tree.cond_prob
    for n in scope:
        kids = tree.children[n]
        if equivalent:
            if kids:
                floor[n] = derive([(f"mass_drift:{n}", 1)], [(prob[c], floor[c]) for c in kids])
            else:
                floor[n] = derive([(f"floor:{n}", -1)])
        box = live.get(n, dead.get(n))
        if box is not None:
            if box.lo_own:
                lower[n] = derive([(f"bid:{n}", -1)])
            else:
                bottom = box.lo
                parts = []
                for c in kids:
                    if c in live:
                        parts.append((prob[c], lower[c]))
                        if equivalent and live[c].lo > bottom:
                            parts.append((prob[c] * (live[c].lo - bottom), floor[c]))
                    else:
                        parts.append((bottom * prob[c], gone[c]))
                lower[n] = derive([(f"price_drift:{n}", 1), (f"mass_drift:{n}", -bottom)], parts)
            if box.hi_own:
                upper[n] = derive([(f"ask:{n}", 1)])
            else:
                top = box.hi
                parts = []
                for c in kids:
                    if c in live:
                        parts.append((prob[c], upper[c]))
                        if equivalent and live[c].hi < top:
                            parts.append((prob[c] * (top - live[c].hi), floor[c]))
                    else:
                        parts.append((prob[c], cap[c]))
                upper[n] = derive([(f"price_drift:{n}", -1), (f"mass_drift:{n}", top)], parts)
        if n in dead and not equivalent:
            if box is None:
                gone[n] = derive([(f"mass_drift:{n}", -1)], [(prob[c], gone[c]) for c in kids])
            else:
                w = 1 / (box.lo - box.hi)
                gone[n] = derive([], [(w, lower[n]), (w, upper[n])])
            cap[n] = derive([(f"ask:{n}", 1)], [(market.price[n], gone[n])])

    if equivalent:
        box = dead[failed]
        parts = [(Fraction(1), lower[failed]), (Fraction(1), upper[failed])]
        if box.lo > box.hi:
            parts.append((box.lo - box.hi, floor[failed]))
        final = derive([], parts)
    else:
        final = derive([("unit_root_mass", -1)], [(Fraction(1), gone[tree.root])])

    num_vars, cons, _ = _cps_constraints(market, query.fee, query.epsilon)
    index = {con.label: i for i, con in enumerate(cons)}
    multipliers = [Fraction(0)] * len(cons)
    weight = {final: Fraction(1)}
    # parts are made before the derivations that use them, so walking
    # backwards settles each derivation's total weight before it is spread
    for d in reversed(made):
        w = weight.pop(d, None)
        if w is None:
            continue
        for label, mu in d.rows:
            multipliers[index[label]] += w * mu
        for coef, part in d.parts:
            weight[part] = weight.get(part, 0) + w * coef
    return CpsInfeasibility(
        fee=query.fee,
        epsilon=query.epsilon,
        certificate=FarkasCertificate(tuple(multipliers)),
        num_vars=num_vars,
        constraints=tuple(cons),
    )


def find_cps(market: Market, query: CpsQuery) -> FindCpsResult:
    """Decide whether a price system exists at the queried cost level.

    The interval recursion decides exactly.  Feasible outcomes carry the
    system plus the raw price-weighted mass process y = z * S-tilde; in
    the equivalent mode every leaf density of the system is positive.
    Infeasible outcomes carry an exact Farkas certificate over the
    constraints of `_cps_constraints`.
    """
    problems = validate_market(market)
    if problems:
        raise MarketError(problems)
    equivalent = query.mode == EQUIVALENT
    live, dead = _shadow_intervals(market, query.fee, equivalent)
    if market.tree.root not in live:
        return FindCpsResult(
            feasible=False, infeasibility=_interval_certificate(market, query, live, dead)
        )
    cps, price_mass, margin = _interval_witness(market.tree, live, query.fee)
    if equivalent and margin <= 0:
        raise RuntimeError(f"equivalent-mode witness has minimum leaf density {margin}")
    return FindCpsResult(feasible=True, cps=cps, price_mass=price_mass)


def _lp_find_cps(market: Market, query: CpsQuery) -> FindCpsResult:
    """The exact simplex over `_cps_constraints`, with the leaf floor
    epsilon as a hard constraint: the reference the tests compare
    `find_cps` against.  It is infeasible wherever the best minimum leaf
    density is below epsilon, even when an equivalent system exists.
    """
    num_vars, cons, pos = _cps_constraints(market, query.fee, query.epsilon)
    result = simplex.solve(num_vars, cons)
    if result.status == simplex.INFEASIBLE:
        return FindCpsResult(
            feasible=False,
            infeasibility=CpsInfeasibility(
                fee=query.fee,
                epsilon=query.epsilon,
                certificate=result.certificate,
                num_vars=num_vars,
                constraints=tuple(cons),
            ),
        )
    cps, price_mass = _system_from_solution(market.tree, result.x, pos, query.fee)
    return FindCpsResult(feasible=True, cps=cps, price_mass=price_mass)


def verify_cps(
    market: Market,
    cps: ConsistentPriceSystem,
    fee: "Fraction | None" = None,
    epsilon: "Fraction | None" = None,
) -> tuple[bool, list[str]]:
    """Check every defining property of a price system, exactly.

    Checks: density domain, Z(root) = 1, Z >= 0, zero one-step drift of Z
    and of Z * S-tilde, shadow price present on the support and inside the
    spread, and (when epsilon is given) the leaf floor.  Returns all
    violations found, each naming its node.
    """
    tree = market.tree
    if fee is None:
        fee = cps.fee
    violations = density_problems(tree, cps.density)
    z = cps.density.values
    if not all(n in z for n in tree.nodes):
        return False, violations

    keep = 1 - fee
    price, shadow = market.price.values, cps.shadow_price
    mass_price: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        if n in shadow:
            s = shadow[n]
            hi = price[n]
            lo = keep * hi
            if not (lo <= s <= hi):
                violations.append(
                    f"node {n}: shadow price {s} outside spread [{lo}, {hi}]"
                )
            mass_price[n] = z[n] * s
        elif z[n] == 0:
            mass_price[n] = Fraction(0)
        else:
            violations.append(f"node {n}: shadow price missing on support (density {z[n]})")
            mass_price[n] = Fraction(0)

    for n in tree.internal:
        y_next = one_step_mean(tree, mass_price, n)
        if y_next != mass_price[n]:
            violations.append(
                f"node {n}: shadow price drift under Q (weighted drift {y_next - mass_price[n]})"
            )

    if epsilon is not None and epsilon > 0:
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
    problems = validate_market(market)
    if problems:
        raise MarketError(problems)
    tree = market.tree
    num_vars, cons, pos = _cps_constraints(market, Fraction(fee), Fraction(0))
    t = num_vars
    for leaf in tree.leaves:
        cons.append(
            Constraint({pos[leaf]: Fraction(1), t: Fraction(-1)}, simplex.GE, Fraction(0), f"margin:{leaf}")
        )
    result = simplex.solve(num_vars + 1, cons, objective={t: Fraction(1)}, maximize=True)
    if result.status == simplex.INFEASIBLE:
        return None, None
    if result.status != simplex.OPTIMAL:
        raise AssertionError("margin is bounded by the unit root mass")
    cps, _ = _system_from_solution(tree, result.x, pos, Fraction(fee))
    return result.objective, cps


def _equivalent_mode(epsilon) -> bool:
    """The mode a leaf floor selects: True (equivalent) for epsilon > 0,
    False (absolutely continuous) for epsilon = 0."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise CpsError([f"epsilon must be nonnegative, got {epsilon}"])
    return epsilon > 0


def _threshold(market: Market, equivalent: bool) -> tuple[Fraction, bool]:
    """The threshold, the infimum of the cost levels with a price system,
    and whether a system exists at the threshold itself.

    Every interval end of the backward pass is a bid (1 - lambda') S_x or
    an ask S_y of a node in the subtree, and a node's interval can only
    empty where one end is its own quote.  So the root's emptiness changes
    only at levels 1 - S_d / S_a with one node an ancestor of the other
    and S_d < S_a.  Feasibility grows with the level, so a binary search
    over those candidates, one backward pass per probe, finds the first
    feasible one; one more pass between it and the last infeasible one
    tells which of the two is the threshold.  Close enough to 1 every
    level is feasible, since one constant shadow price then sits in every
    spread.
    """
    problems = validate_market(market)
    if problems:
        raise MarketError(problems)
    tree, price = market.tree, market.price

    def feasible(fee: Fraction) -> bool:
        return tree.root in _shadow_intervals(market, fee, equivalent)[0]

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
    levels = [Fraction(0)] + [1 - r for r in sorted(ratios, reverse=True)]
    below, first = 0, len(levels)
    while first - below > 1:
        mid = (below + first) // 2
        if feasible(levels[mid]):
            first = mid
        else:
            below = mid
    upper = levels[first] if first < len(levels) else Fraction(1)
    if feasible((levels[below] + upper) / 2):
        return levels[below], False
    return upper, True


def cps_threshold(market: Market, epsilon: Fraction = DEFAULT_EPSILON) -> Fraction:
    """The threshold: the infimum of the cost levels at which a price
    system exists, computed exactly.

    epsilon > 0 asks for an equivalent system and epsilon = 0 for an
    absolutely continuous one; the size of the floor does not move the
    threshold.  The infimum need not be attained: a market can admit a
    system at every positive level but not at 0.
    """
    return _threshold(market, _equivalent_mode(epsilon))[0]


def scale_cps(
    cps: ConsistentPriceSystem, fee: Fraction, alpha: Fraction
) -> tuple[ConsistentPriceSystem, ConsistentPriceSystem]:
    """The two rescalings that promote a low-cost system to level ``fee``.

    Multiplying the shadow price by (1 - alpha), or by (1 - fee)/(1 - alpha),
    keeps it a martingale under the same measure; the parameter window
    below keeps both inside the wider spread.
    """
    fee = Fraction(fee)
    alpha = Fraction(alpha)
    if not (cps.fee <= alpha <= fee):
        raise ValueError(
            f"parameter ordering violated: need {cps.fee} <= alpha <= {fee}, got alpha = {alpha}"
        )
    if (1 - alpha) * (1 - cps.fee) < (1 - fee):
        raise ValueError(
            f"scaling by 1 - alpha = {1 - alpha} would exit the spread: "
            f"need (1-alpha)(1-{cps.fee}) >= {1 - fee}"
        )
    down = Fraction(1) - alpha
    up = (Fraction(1) - fee) / (Fraction(1) - alpha)
    first = ConsistentPriceSystem(
        shadow_price={n: down * s for n, s in cps.shadow_price.items()},
        density=cps.density,
        fee=fee,
        off_support=cps.off_support,
    )
    second = ConsistentPriceSystem(
        shadow_price={n: up * s for n, s in cps.shadow_price.items()},
        density=cps.density,
        fee=fee,
        off_support=cps.off_support,
    )
    return first, second


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

    In the equivalent mode a witness system is extracted and its weights
    are chosen to maximize the minimum leaf density for the selected
    values; the result is feasible only if that margin reaches epsilon.
    Soundness is one-sided: a reported witness always verifies, while
    infeasibility only speaks for the given grid.
    """
    fee = Fraction(fee)
    epsilon = Fraction(epsilon)
    tree = market.tree
    if tree.horizon > 3 or any(len(tree.children[n]) > 3 for n in tree.internal):
        raise ValueError(
            "oracle scale exceeded: needs at most 3 periods and 3 children per node"
        )
    if not (0 <= fee < 1):
        raise ValueError(f"cost level must satisfy 0 <= lambda' < 1, got {fee}")
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

    density, margin = _max_min_density(tree, shadow)
    witness = ConsistentPriceSystem(
        shadow_price=dict(shadow),
        density=AdaptedProcess(density),
        fee=fee,
        off_support=(),
    )
    if margin >= epsilon:
        return BruteForceResult(True, witness, margin, grid_resolution)
    return BruteForceResult(False, witness, margin, grid_resolution)


def load_cps(document: Mapping, tree: EventTree) -> tuple[ConsistentPriceSystem, Fraction]:
    """Parse a price-system document; returns the system and its epsilon.

    Expected keys: "S_tilde" and "Z" as maps from node id text to rational
    text, "lambda_prime", "epsilon".  "S_tilde" may omit nodes (taken as
    off-support); "Z" must cover every node.
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

    def parse_map(raw: Mapping, label: str) -> dict[NodeId, Fraction]:
        out: dict[NodeId, Fraction] = {}
        for key, value in raw.items():
            try:
                node = int(key)
            except (TypeError, ValueError):
                problems.append(f"{label}: bad node id {key!r}")
                continue
            if node not in tree.node_set:
                problems.append(f"{label}: node {node} not in tree")
                continue
            try:
                out[node] = parse_rational(value)
            except ValueError as exc:
                problems.append(f"{label}: node {node}: {exc}")
        return out

    shadow = parse_map(document["S_tilde"], "S_tilde")
    density = parse_map(document["Z"], "Z")
    try:
        fee = parse_rational(document["lambda_prime"])
    except ValueError as exc:
        problems.append(f"lambda_prime: {exc}")
        fee = Fraction(0)
    try:
        epsilon = parse_rational(document["epsilon"])
    except ValueError as exc:
        problems.append(f"epsilon: {exc}")
        epsilon = Fraction(0)
    missing = [n for n in tree.nodes if n not in density]
    if missing:
        problems.append(f"Z: missing nodes {missing}")
    if problems:
        raise CpsError(problems)

    cps = ConsistentPriceSystem(
        shadow_price=shadow,
        density=AdaptedProcess(density),
        fee=fee,
        off_support=tuple(n for n in tree.nodes if n not in shadow),
    )
    return cps, epsilon


def cps_to_doc(cps: ConsistentPriceSystem, epsilon: Fraction) -> dict:
    """Serialize to the documented wire shape (node ids become text keys)."""
    return {
        "S_tilde": {str(n): format_rational(s) for n, s in sorted(cps.shadow_price.items())},
        "Z": {str(n): format_rational(cps.density[n]) for n in sorted(cps.density.values)},
        "lambda_prime": format_rational(cps.fee),
        "epsilon": format_rational(epsilon),
    }
