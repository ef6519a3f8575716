"""The interval pass and the witness written out plainly: the reference the
tests compare `spreadlab.cps` against.

These are the straightforward forms of `_cut`, `_shadow_intervals`,
`_place` and `_density`, one comprehension per quantity, with no
shortcut for values that stay put, products by 1 or sums of zeros.  The
package computes the same `Fraction` values with fewer operations, so
every interval end, shadow price, density and margin must come out equal.

Two independent deciders ride along: `lp_find_cps`, the exact simplex
over the same rows, and `ac_threshold`, the absolutely continuous
threshold searched with a hand-written bisection and a probe between the
last infeasible and the first feasible candidate.
"""

from fractions import Fraction
from typing import NamedTuple

from spreadlab.cps import ConsistentPriceSystem, CpsInfeasibility, FindCpsResult, _cps_constraints, _system
from spreadlab.tree import AdaptedProcess

# bound here, so that a test counting the package's calls to the simplex
# does not count the reference's
from spreadlab.simplex import INFEASIBLE, solve


class Box(NamedTuple):
    """An interval with, for each end, whether it is attained."""

    lo: Fraction
    lo_closed: bool
    hi: Fraction
    hi_closed: bool

    def is_empty(self) -> bool:
        return self.lo > self.hi or (
            self.lo == self.hi and not (self.lo_closed and self.hi_closed)
        )

    def nearest(self, v):
        """v itself when inside, else the end next to it, or the midpoint
        when that end is open."""
        if v < self.lo or (v == self.lo and not self.lo_closed):
            return self.lo if self.lo_closed else (self.lo + self.hi) / 2
        if v > self.hi or (v == self.hi and not self.hi_closed):
            return self.hi if self.hi_closed else (self.lo + self.hi) / 2
        return v

    def low_point(self, u):
        """The lowest attained value, or halfway down from u to an open end."""
        return self.lo if self.lo_closed else (self.lo + u) / 2

    def high_point(self, u):
        return self.hi if self.hi_closed else (u + self.hi) / 2


def cut(lo, hi, kids, attained) -> Box:
    """The spread [lo, hi] cut by the hull of the children's intervals;
    ``attained`` is ``all`` in the equivalent mode and ``any`` in the
    absolutely continuous one."""
    bottom = min(b.lo for b in kids)
    bottom_closed = attained(b.lo == bottom and b.lo_closed for b in kids)
    top = max(b.hi for b in kids)
    top_closed = attained(b.hi == top and b.hi_closed for b in kids)
    if lo > bottom or (lo == bottom and bottom_closed):
        bottom, bottom_closed = lo, True
    if hi < top or (hi == top and top_closed):
        top, top_closed = hi, True
    return Box(bottom, bottom_closed, top, top_closed)


def shadow_intervals(market, fee, equivalent):
    """(live, dead) as `spreadlab.cps._shadow_intervals` returns them."""
    tree = market.tree
    keep = 1 - fee
    attained = all if equivalent else any
    live, dead = {}, {}
    for n in reversed(tree.nodes):
        hi = market.price[n]
        lo = keep * hi
        kids = [live[c] if c in live else dead[c] for c in tree.children[n] if equivalent or c in live]
        if not tree.children[n]:
            box = Box(lo, True, hi, True)
        elif not kids:
            dead[n] = None
            continue
        else:
            box = cut(lo, hi, kids, attained)
        (dead if box.is_empty() else live)[n] = box
    return live, dead


def place(v, boxes, probs):
    """Child values inside ``boxes`` whose P-mean is v when they can be."""
    near = [b.nearest(v) for b in boxes]
    gap = sum(p * (u - v) for p, u in zip(probs, near))
    if gap == 0:
        return near
    if gap > 0:
        far = [b.low_point(u) for b, u in zip(boxes, near)]
    else:
        far = [b.high_point(u) for b, u in zip(boxes, near)]
    far_gap = sum(p * (f - v) for p, f in zip(probs, far))
    if far_gap * gap > 0:
        return far
    s = gap / (gap - far_gap)
    return [u + s * (f - u) for u, f in zip(near, far)]


def plain_density(tree, shadow):
    """Density of the plain one-step weights: q proportional to P over the
    children with a value when their P-mean is the node's value v, else
    t P / sum P plus 1 - t on the extreme child, the lowest when the mean
    is above v and the highest when below, with t = (v - u_e) / (mean - u_e);
    then Z top down as Z_parent q / p."""
    prob = tree.cond_prob
    weights = {}
    for n in tree.internal:
        if n not in shadow:
            continue
        kids = [c for c in tree.children[n] if c in shadow]
        v = shadow[n]
        u = [shadow[c] for c in kids]
        p = [prob[c] for c in kids]
        mean = sum(pc * uc for pc, uc in zip(p, u)) / sum(p)
        if mean == v:
            q = [pc / sum(p) for pc in p]
        else:
            extreme = min(u) if mean > v else max(u)
            t = (v - extreme) / (mean - extreme)
            q = [t * pc / sum(p) for pc in p]
            q[u.index(extreme)] += 1 - t
        weights[n] = dict(zip(kids, q))
    z = {}
    for n in tree.nodes:
        up = tree.parent[n]
        if up is None:
            z[n] = Fraction(1)
        elif up in weights:
            z[n] = z[up] * weights[up].get(n, 0) / tree.cond_prob[n]
        else:
            z[n] = Fraction(0)
    return z


def interval_witness(tree, live, fee):
    """(system, minimum leaf density) as
    `spreadlab.cps._interval_witness` returns them."""
    root = live[tree.root]
    shadow = {tree.root: (root.lo + root.hi) / 2}
    for n in tree.nodes:
        if n not in shadow:
            continue
        kids = [c for c in tree.children[n] if c in live]
        if kids:
            values = place(shadow[n], [live[c] for c in kids], [tree.cond_prob[c] for c in kids])
            shadow.update(zip(kids, values))
    density = plain_density(tree, shadow)
    margin = min(density[leaf] for leaf in tree.leaves)
    cps = ConsistentPriceSystem(
        tree=tree,
        shadow_price={n: s for n, s in shadow.items() if density[n] > 0},
        density=AdaptedProcess(density),
        fee=fee,
    )
    return cps, margin


def lp_find_cps(market, query):
    """The exact simplex over `_cps_constraints`, with the leaf floor
    epsilon as a hard constraint.  It is infeasible wherever the best
    minimum leaf density is below epsilon, even when an equivalent system
    exists."""
    num_vars, cons, _ = _cps_constraints(market, query.fee, query.epsilon)
    result = solve(num_vars, cons)
    if result.status == INFEASIBLE:
        return FindCpsResult(
            feasible=False,
            infeasibility=CpsInfeasibility(
                certificate=result.certificate,
                constraints=tuple(cons),
            ),
        )
    nodes, x = market.tree.nodes, result.x
    shadow = {n: y / z for n, z, y in zip(nodes, x, x[len(nodes):]) if z > 0}
    cps = _system(market.tree, dict(zip(nodes, x)), shadow, query.fee)
    margin = min(cps.density[leaf] for leaf in market.tree.leaves)
    return FindCpsResult(feasible=True, cps=cps, min_leaf_density=margin)


def ac_threshold(market):
    """(threshold, attained) in the absolutely continuous mode: a binary
    search over the levels 1 - S_d / S_a of an ancestor pair, then one
    probe halfway between the last infeasible candidate and the first
    feasible one (or 1) to tell which of the two is the threshold."""
    tree, price = market.tree, market.price

    def feasible(fee):
        return tree.root in shadow_intervals(market, fee, False)[0]

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
