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
children's intervals.  In the equivalent mode every node keeps positive
mass, so an end of the hull is attained only if every child attains it,
and a system exists only if no interval is empty; the hull runs over
every child, empty or not.  In the absolutely continuous mode Z may die
out, so empty children are dropped, an end is attained if any child
attains it, and a system exists if the root's interval is nonempty.

A nonempty root interval is turned into a witness top down: each node's
value is placed inside its children's intervals, and the one-step
weights maximize the minimum leaf density for the values placed.  Those
weights have a closed form per node, one of three cases by which side of
the node's value the children's margin-weighted mean falls, kept as each
child's density ratio Z_c / Z_n, so the witness costs about one more
pass and Z one product per node.  In the equivalent mode that minimum
is positive, so the witness is equivalent and clears a leaf floor of
exactly that minimum; `max_equivalence_margin` gives the best floor any
system clears.

The threshold, the infimum of the feasible cost levels, is read off the
same recursion.  In the equivalent mode the level only scales the low
ends, so the empty intervals of the very pass that decides, run at
level 0, give it in closed form; the absolutely continuous mode searches
the candidate levels with one pass per probe.

An empty interval is turned into a Farkas certificate over the same
rows, read off the intervals in one top-down pass from the node where
the contradiction closes, so infeasibility stays checkable independently
of how it was found.  Its multipliers do not depend on the
leaf floor epsilon > 0 of the rows, so epsilon only selects the mode:
epsilon = 0 is the absolutely continuous mode, where the shadow price is
only defined on the support.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import simplex
from .market import Market
from .rationals import format_rational, parse_rational, rational_reader
from .simplex import Constraint, FarkasCertificate
from .tree import AdaptedProcess, EventTree, InputError, NodeId, _total, density_problems, one_step_mean

EQUIVALENT = "equivalent"
ABSOLUTELY_CONTINUOUS = "absolutely_continuous"

DEFAULT_EPSILON = Fraction(1, 10**6)

_ZERO, _ONE = Fraction(0), Fraction(1)


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
        object.__setattr__(self, "fee", parse_rational(self.fee))
        object.__setattr__(self, "epsilon", parse_rational(self.epsilon))
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


def _system(
    tree: EventTree,
    density: Mapping[NodeId, Fraction],
    shadow: Mapping[NodeId, Fraction],
    fee: Fraction,
) -> tuple[ConsistentPriceSystem, AdaptedProcess]:
    """The system with density Z and the shadow values kept where Z > 0,
    and its mass process Y = Z * S-tilde."""
    support = {n for n in tree.nodes if density[n] > 0}
    cps = ConsistentPriceSystem(
        shadow_price={n: s for n, s in shadow.items() if n in support},
        density=AdaptedProcess(density),
        fee=fee,
        off_support=tuple(n for n in tree.nodes if n not in support),
    )
    mass = {
        n: (shadow[n] if density[n] == 1 else density[n] * shadow[n]) if n in support else _ZERO
        for n in tree.nodes
    }
    return cps, AdaptedProcess(mass)


class _Box(NamedTuple):
    """The shadow prices a node can carry: an interval with, for each end,
    whether it is attained."""

    lo: Fraction
    lo_closed: bool
    hi: Fraction
    hi_closed: bool


def _cut(lo: Fraction, hi: Fraction, kids: list, equivalent: bool) -> _Box:
    """A node's interval: its spread [lo, hi] cut by the hull of its
    children's intervals ``kids``.  In the equivalent mode every child
    keeps mass, so an end of the hull is attained only if every child
    attains it; in the absolutely continuous mode, if any child does."""
    kids = iter(kids)
    bottom, bottom_closed, top, top_closed = next(kids)
    for kid_lo, kid_lo_closed, kid_hi, kid_hi_closed in kids:
        # a child that lowers the bottom leaves the others above it; one
        # that misses the bottom opens it (equivalent), one on it closes it
        if kid_lo < bottom:
            bottom, bottom_closed = kid_lo, kid_lo_closed and not equivalent
        elif bottom_closed != (kid_lo_closed and kid_lo == bottom):
            bottom_closed = not equivalent
        if kid_hi > top:
            top, top_closed = kid_hi, kid_hi_closed and not equivalent
        elif top_closed != (kid_hi_closed and kid_hi == top):
            top_closed = not equivalent
    # the spread's own ends are attained; where they meet the hull's, the
    # hull's closedness stands for the same value
    if lo > bottom:
        bottom, bottom_closed = lo, True
    if hi < top:
        top, top_closed = hi, True
    return _Box(bottom, bottom_closed, top, top_closed)


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
    keep = 1 - fee
    live: dict[NodeId, _Box] = {}
    dead: dict[NodeId, "_Box | None"] = {}
    for n in reversed(tree.nodes):
        hi = price[n]
        lo = keep * hi if fee else hi
        children = tree.children[n]
        if not children:
            # a positive price leaves the spread nonempty
            live[n] = _Box(lo, True, hi, True)
            continue
        if equivalent:
            kids = [live.get(c) or dead[c] for c in children]
        else:
            kids = [live[c] for c in children if c in live]
            if not kids:
                dead[n] = None
                continue
        box = _cut(lo, hi, kids, equivalent)
        nonempty = box.lo < box.hi or (box.lo_closed and box.hi_closed and box.lo == box.hi)
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
    """
    near, moved = [], []  # moved: the P-weighted moves off v, a child left at v adds 0
    for (lo, lo_closed, hi, hi_closed), p in zip(boxes, probs):
        if v < lo or (not lo_closed and v == lo):
            u = lo if lo_closed else (lo + hi) / 2
        elif v > hi or (not hi_closed and v == hi):
            u = hi if hi_closed else (lo + hi) / 2
        else:
            near.append(v)
            continue
        near.append(u)
        moved.append(p * (u - v))
    gap = _total(moved) if moved else 0
    if not gap:
        return near
    # toward the low ends when the P-mean is above v, else the high ends
    if gap > 0:
        far = [lo if lo_closed else (lo + u) / 2 for (lo, lo_closed, _, _), u in zip(boxes, near)]
        upper, lower = near, far
    else:
        far = [hi if hi_closed else (u + hi) / 2 for (_, _, hi, hi_closed), u in zip(boxes, near)]
        upper, lower, gap = far, near, -gap
    # how far the P-mean moves when every value reaches its far end
    pulls = [p * (a - b) for p, a, b in zip(probs, upper, lower) if a is not b]
    pull = _total(pulls) if pulls else 0
    if pull < gap:
        return far
    s = gap / pull
    return [u if f is u else u + s * (f - u) for u, f in zip(near, far)]


def _max_min_density(
    tree: EventTree, shadow: Mapping[NodeId, Fraction]
) -> tuple[dict[NodeId, Fraction], Fraction]:
    """Density for fixed shadow values that maximizes the minimum leaf
    density; returns the density at every node and that minimum.

    Children without a shadow value get no mass.  Bottom up, with the
    subtree margins m_c already fixed, a node's margin is
    min_c (q_c / p_c) m_c, maximized over one-step weights q >= 0 summing
    to 1 that average the children's values u_c to the node's value v.
    With beta_c = p_c / m_c, B = sum beta_c and M = sum beta_c u_c, the
    optimum is q = t beta plus the residual 1 - t B on one extreme child,
    and the node's margin is t itself:

    * v B = M: the beta-weighted mean of the children is v already, so
      t = 1 / B and there is no residual;
    * v B < M: only the low side binds, t = (v - u_min) / (M - u_min B),
      and the residual goes to the (first) lowest child;
    * v B > M: only the high side binds, t = (u_max - v) / (u_max B - M),
      and the residual goes to the (first) highest child.

    A subtree that already loses mass (margin 0) is weighted as if its
    margin were 1.  Each child records its density ratio
    Z_c / Z_n = q_c / p_c, which is t / m_c, plus (1 - t B) / p_c on the
    extreme child, so the top-down pass takes one product per node.
    """
    prob = tree.cond_prob
    margin: dict[NodeId, Fraction] = {}
    ratio: dict[NodeId, Fraction] = {}
    for n in reversed(tree.nodes):
        v = shadow.get(n)
        if v is None:
            continue
        children = tree.children[n]
        if not children:
            margin[n] = _ONE
            continue
        kids = [c for c in children if c in shadow]
        sub = [margin[c] for c in kids]
        lost = len(kids) < len(children) or not all(sub)
        # the margin each child's weight is divided by, None for 1
        scale = [None if lost or m == 1 else m for m in sub]
        beta = [prob[c] if m is None else prob[c] / m for c, m in zip(kids, scale)]
        u = [shadow[c] for c in kids]
        total = _total(beta)
        mean = _total(b * uc for b, uc in zip(beta, u))
        gap = v * total - mean
        if gap:
            e = (min if gap < 0 else max)(range(len(u)), key=u.__getitem__)
            t = (v - u[e]) / (mean - u[e] * total)
            residual = 1 - t * total
        else:
            t, residual = 1 / total, 0
        for c, m in zip(kids, scale):
            ratio[c] = t if m is None else t / m
        if residual:
            ratio[kids[e]] += residual / prob[kids[e]]
        margin[n] = _ZERO if lost else t
    density: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        r = ratio.get(n)
        if r is None:
            density[n] = _ONE if n == tree.root else _ZERO
        else:
            z = density[tree.parent[n]]
            density[n] = r if z == 1 else z if r == 1 else z * r
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
        v = shadow.get(n)
        if v is None:
            continue
        kids = [c for c in tree.children[n] if c in live]
        if kids:
            shadow.update(zip(kids, _place(v, [live[c] for c in kids], [tree.cond_prob[c] for c in kids])))
    density, margin = _max_min_density(tree, shadow)
    cps, mass = _system(tree, density, shadow, fee)
    return cps, mass, margin


def _interval_certificate(
    market: Market,
    query: CpsQuery,
    live: Mapping[NodeId, _Box],
    dead: "Mapping[NodeId, _Box | None]",
) -> CpsInfeasibility:
    """Farkas certificate over `_cps_constraints`, read off the intervals.

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
    when it gets there, and adds them onto the row multipliers and onto
    the children's weights.
    """
    tree, price = market.tree, market.price
    prob = tree.cond_prob
    keep = 1 - query.fee
    equivalent = query.mode == EQUIVALENT
    num_vars, cons, _ = _cps_constraints(market, query.fee, query.epsilon)
    index = {con.label: i for i, con in enumerate(cons)}
    multipliers = [Fraction(0)] * len(cons)

    def add(label: str, mu: Fraction) -> None:
        multipliers[index[label]] += mu

    lower, upper, floor, gone, cap = (defaultdict(int) for _ in range(5))
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
        add("unit_root_mass", -1)
        gone[tree.root] = Fraction(1)
        scope = tree.nodes

    for n in scope:
        kids = tree.children[n]
        box = live.get(n, dead.get(n))
        w = cap[n]
        if w:
            add(f"ask:{n}", w)
            gone[n] += w * price[n]
        w = gone[n]
        if w:
            if box is None:
                add(f"mass_drift:{n}", -w)
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
                add(f"bid:{n}", -w)
            else:
                add(f"price_drift:{n}", w)
                add(f"mass_drift:{n}", -w * bottom)
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
                add(f"ask:{n}", w)
            else:
                add(f"price_drift:{n}", -w)
                add(f"mass_drift:{n}", w * top)
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
                add(f"mass_drift:{n}", w)
                for c in kids:
                    floor[c] += w * prob[c]
            else:
                add(f"floor:{n}", -w)
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
    equivalent = query.mode == EQUIVALENT
    live, dead = _shadow_intervals(market, query.fee, equivalent)
    # an equivalent system needs every node, an absolutely continuous one the root
    if (dead if equivalent else market.tree.root in dead):
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
    num_vars, cons, _ = _cps_constraints(market, query.fee, query.epsilon)
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
    nodes, x = market.tree.nodes, result.x
    shadow = {n: y / z for n, z, y in zip(nodes, x, x[len(nodes):]) if z > 0}
    cps, price_mass = _system(market.tree, dict(zip(nodes, x)), shadow, query.fee)
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
    tree = market.tree
    fee = parse_rational(fee)
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
    cps, _ = _system(tree, dict(zip(nodes, x)), shadow, fee)
    return result.objective, cps


def _equivalent_mode(epsilon) -> bool:
    """The mode a leaf floor selects: True (equivalent) for epsilon > 0,
    False (absolutely continuous) for epsilon = 0."""
    epsilon = parse_rational(epsilon)
    if epsilon < 0:
        raise CpsError([f"epsilon must be nonnegative, got {epsilon}"])
    return epsilon > 0


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
    node an ancestor of the other and S_d < S_a.  Feasibility grows with
    the level, so a binary search over those candidates, one backward
    pass per probe, finds the first feasible one; one more pass between
    it and the last infeasible one tells which of the two is the
    threshold.  Close enough to 1 every level is feasible, since one
    constant shadow price then sits in every spread.
    """
    tree, price = market.tree, market.price

    if equivalent:
        level, attained = Fraction(0), True
        for box in _shadow_intervals(market, Fraction(0), True)[1].values():
            need = 1 - box.hi / box.lo
            closed = box.lo_closed and box.hi_closed
            if need > level:
                level, attained = need, closed
            elif need == level:
                attained = attained and closed
        return level, attained

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
    fee = parse_rational(fee)
    alpha = parse_rational(alpha)
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
    fee = parse_rational(fee)
    epsilon = parse_rational(epsilon)
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

    read = rational_reader()

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
        fee = read(document["lambda_prime"])
    except ValueError as exc:
        problems.append(f"lambda_prime: {exc}")
        fee = Fraction(0)
    try:
        epsilon = read(document["epsilon"])
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
