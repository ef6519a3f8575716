"""The interval pass and the witness written out plainly: the reference the
tests compare `spreadlab.cps` against.

These are the straightforward forms of `_cut`, `_shadow_intervals`,
`_place` and `_max_min_density`, one comprehension per quantity, with no
shortcut for values that stay put, products by 1 or sums of zeros.  The
package computes the same `Fraction` values with fewer operations, so
every interval end, shadow price, density and margin must come out equal.
"""

from fractions import Fraction
from typing import NamedTuple

from spreadlab.cps import ConsistentPriceSystem
from spreadlab.tree import AdaptedProcess


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


def max_min_density(tree, shadow):
    """Density maximizing the minimum leaf density for fixed shadow
    values, and that minimum: the one-step weights q = t beta plus the
    residual on one extreme child, then Z top down as Z_parent q / p."""
    prob = tree.cond_prob
    margin, weights = {}, {}
    for n in reversed(tree.nodes):
        if n not in shadow:
            continue
        children = tree.children[n]
        if not children:
            margin[n] = Fraction(1)
            continue
        kids = [c for c in children if c in shadow]
        sub = [margin[c] for c in kids]
        lost = len(kids) < len(children) or min(sub) == 0
        if lost:
            beta = [prob[c] for c in kids]
        else:
            beta = [prob[c] / m for c, m in zip(kids, sub)]
        v = shadow[n]
        u = [shadow[c] for c in kids]
        total = sum(beta)
        mean = sum(b * uc for b, uc in zip(beta, u))
        gap = v * total - mean
        if gap == 0:
            t = 1 / total
            q = [t * b for b in beta]
        else:
            extreme = min(u) if gap < 0 else max(u)
            t = (v - extreme) / (mean - extreme * total)
            q = [t * b for b in beta]
            q[u.index(extreme)] += 1 - t * total
        weights[n] = dict(zip(kids, q))
        margin[n] = Fraction(0) if lost else t
    density = {}
    for n in tree.nodes:
        up = tree.parent[n]
        if up is None:
            density[n] = Fraction(1)
        elif up in weights:
            density[n] = density[up] * weights[up].get(n, 0) / tree.cond_prob[n]
        else:
            density[n] = Fraction(0)
    return density, margin[tree.root]


def interval_witness(tree, live, fee):
    """(system, Y, minimum leaf density) as
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
    density, margin = max_min_density(tree, shadow)
    cps = ConsistentPriceSystem(
        shadow_price={n: s for n, s in shadow.items() if density[n] > 0},
        density=AdaptedProcess(density),
        fee=fee,
        off_support=tuple(n for n in tree.nodes if density[n] == 0),
    )
    mass = {n: density[n] * shadow[n] if density[n] > 0 else Fraction(0) for n in tree.nodes}
    return cps, AdaptedProcess(mass), margin
