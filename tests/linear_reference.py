"""The linear sweeps written out plainly: the reference the tests compare
`spreadlab.strategy`, `spreadlab.valuation`, `spreadlab.theorems`,
`spreadlab.tree` and `verify_cps` against.

Every value here is built by step-by-step Fraction arithmetic and every
sign comes from comparing a value with 0; the shadow decomposition's
cost is its own cash-flow recursion, checked against value = cost +
transform at every node.  The package evaluates each per-node formula
as one integer expression with one normalization, reads signs from
numerators and sets cost = value - transform, so every value and every
message must come out equal, node for node and in the same order.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def slack(bond_in, stock_in, bond, stock, ask, keep):
    """Bond ceiling after trading from (bond_in, stock_in) to ``stock``
    at quotes [keep * ask, ask], minus ``bond``."""
    result = bond_in - bond
    delta = stock - stock_in
    if delta > 0:
        result -= ask * delta
    elif delta < 0:
        result -= keep * ask * delta
    return result


def liquidate(bond, stock, bid, ask):
    """Long stock sells at the bid, short stock covers at the ask."""
    if stock > 0:
        return bond + stock * bid
    if stock < 0:
        return bond + stock * ask
    return bond


def self_financing(market, strategy):
    """(slack per node, nodes with negative slack)."""
    tree = market.tree
    keep = 1 - market.fee
    bond, stock = strategy.bond.values, strategy.stock.values
    result, bad = {}, []
    for n in tree.nodes:
        p = tree.parent[n]
        bond_in, stock_in = (_ZERO, _ZERO) if p is None else (bond[p], stock[p])
        s = result[n] = slack(bond_in, stock_in, bond[n], stock[n], market.price[n], keep)
        if s < 0:
            bad.append(n)
    return result, bad


def admissibility(market, strategy, numeraire_free):
    """(smallest bound, node that binds, requirement per node)."""
    tree = market.tree
    keep = 1 - market.fee
    bond, stock = strategy.bond.values, strategy.stock.values
    per_node, worst, bound = {}, tree.root, _ZERO
    for n in tree.nodes:
        ask = market.price[n]
        bid = keep * ask
        p = tree.parent[n]
        v_pre = _ZERO if p is None else liquidate(bond[p], stock[p], bid, ask)
        v_post = liquidate(bond[n], stock[n], bid, ask)
        v = v_pre if v_pre < v_post else v_post
        if v < 0:
            need = -v / (1 + ask) if numeraire_free else -v
            if need > bound:
                bound, worst = need, n
        else:
            need = _ZERO
        per_node[n] = need
    return bound, worst, per_node


def theorem_conclusion(market, strategy, x):
    """(first node whose pre-trade liquidation is below -x, with its
    position's class and value, or None; the leaf failure messages)."""
    tree = market.tree
    keep = 1 - market.fee
    bond, stock = strategy.bond.values, strategy.stock.values
    witness, failures = None, []
    for n in tree.nodes:
        ask = market.price[n]
        p = tree.parent[n]
        held = (_ZERO, _ZERO) if p is None else (bond[p], stock[p])
        v = liquidate(*held, keep * ask, ask)
        if v < -x:
            if witness is None:
                witness = (n, "long" if held[1] >= 0 else "short", Fraction(v))
            if not tree.children[n]:
                failures.append(f"terminal bound fails at leaf {n}: {v} < {-x}")
    return witness, failures


def shadow_decomposition(market, strategy, shadow):
    """(cost, transform, value): cost cumulates each trade's cash flow at
    the shadow price, transform the held stock times the price change."""
    tree = market.tree
    bond, stock = strategy.bond.values, strategy.stock.values
    cost, transform, value = {}, {}, {}
    for n in tree.nodes:
        p = tree.parent[n]
        v = value[n] = bond[n] + shadow[n] * stock[n]
        if p is None:
            cost[n] = v
            transform[n] = _ZERO
            continue
        c = cost[n] = cost[p] + (bond[n] - bond[p]) + shadow[n] * (stock[n] - stock[p])
        t = transform[n] = transform[p] + stock[p] * (shadow[n] - shadow[p])
        if v != c + t:
            raise RuntimeError(f"node {n}: marked value {v} != cost {c} + transform {t}")
    return cost, transform, value


def total(values):
    """Exact sum of a nonempty iterable, term by term."""
    values = iter(values)
    result = next(values)
    for v in values:
        result += v
    return result


def one_step_mean(tree, values, node):
    """E[X_next | node] under the reference measure."""
    return total(tree.cond_prob[c] * values[c] for c in tree.children[node])


def probability_sum_problems(children, cond):
    """The tree's check that each node's children probabilities sum to 1."""
    problems = []
    for n, kids in children.items():
        if kids:
            s = total(cond[c] for c in kids)
            if s != 1:
                problems.append(f"node {n}: children probabilities sum to {s}, expected 1")
    return problems


def density_problems(tree, z):
    """Z(root) = 1, Z >= 0 and zero one-step drift, for a density whose
    values are all Fractions or ints."""
    problems = []
    if z[tree.root] != 1:
        problems.append(f"node {tree.root}: density at root is {z[tree.root]}, expected 1")
    for n in tree.nodes:
        if z[n] < 0:
            problems.append(f"node {n}: density {z[n]} is negative")
    for n in tree.internal:
        step = one_step_mean(tree, z, n)
        if step != z[n]:
            problems.append(f"node {n}: density drift {step - z[n]} (martingale property fails)")
    return problems


def support_drift(tree, x, z=None):
    """E[X_next | n] - X(n) at the internal nodes the measure charges."""
    if z is None:
        return {n: one_step_mean(tree, x, n) - x[n] for n in tree.internal}
    mass = {n: z[n] * x[n] for n in tree.nodes}
    return {n: one_step_mean(tree, mass, n) / z[n] - x[n] for n in tree.internal if z[n] != 0}


def verify_cps(market, shadow, z, fee, epsilon):
    """(ok, violations) of `verify_cps` for a density defined at every node;
    the shadow price's drift under Q is `support_drift`'s, with a node the
    shadow price leaves out read as 0."""
    tree = market.tree
    violations = density_problems(tree, z)
    keep = 1 - fee
    for n in tree.nodes:
        if n in shadow:
            s = shadow[n]
            hi = market.price[n]
            lo = keep * hi
            if not (lo <= s <= hi):
                violations.append(f"node {n}: shadow price {s} outside spread [{lo}, {hi}]")
        elif z[n] != 0:
            violations.append(f"node {n}: shadow price missing on support (density {z[n]})")
    filled = {n: shadow.get(n, Fraction(0)) for n in tree.nodes}
    for n, drift in support_drift(tree, filled, z).items():
        if drift != 0:
            violations.append(f"node {n}: shadow price drift under Q {drift} (martingale property fails)")
    if epsilon:
        for leaf in tree.leaves:
            if z[leaf] < epsilon:
                violations.append(f"node {leaf}: leaf density {z[leaf]} below floor {epsilon}")
    return not violations, violations
