"""The linear sweeps written out plainly: the reference the tests compare
`spreadlab.strategy`, `spreadlab.valuation`, `spreadlab.theorems`,
`spreadlab.tree` and `verify_cps` against, and `build_tree`, the tree
builder written out pass by pass.

Every value here is built by step-by-step Fraction arithmetic and every
sign comes from comparing a value with 0; the shadow decomposition's
cost is its own cash-flow recursion, checked against value = cost +
transform at every node.  The package evaluates each per-node formula
as one integer expression with one normalization, reads signs from
numerators and sets cost = value - transform, so every value and every
message must come out equal, node for node and in the same order.
"""

from fractions import Fraction

from spreadlab.rationals import parse_rational

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


def build_tree(times, entries):
    """`EventTree.build` written out pass by pass: the tree's fields as a
    dict, or the problem list of the first stage that fails.

    The stages are the rows; the root and the parents; reachability; and
    the leaves, the probabilities and the times.  Each pass below walks
    every row or node again, and every value is parsed where it is read.
    """
    problems = []
    parsed_times = []
    for i, t in enumerate(times):
        try:
            parsed_times.append(parse_rational(t))
        except ValueError as exc:
            problems.append(f"times[{i}]: {exc}")
    times = tuple(parsed_times)

    seen, parent, cond = set(), {}, {}
    for node, par, prob in entries:
        if not isinstance(node, int) or isinstance(node, bool) or node < 0:
            problems.append(f"node {node!r}: ids must be nonnegative integers")
            continue
        if node in seen:
            problems.append(f"node {node}: duplicate id")
            continue
        seen.add(node)
        if par is not None and (not isinstance(par, int) or isinstance(par, bool)):
            problems.append(f"node {node}: parent must be an integer id or null, got {par!r}")
            continue
        parent[node] = par
        try:
            cond[node] = parse_rational(prob)
        except ValueError as exc:
            problems.append(f"node {node}: {exc}")
    if problems:
        return problems

    roots = [n for n, p in parent.items() if p is None]
    if len(roots) != 1 or roots[0] != 0:
        problems.append(f"tree must have exactly one root with id 0 and null parent (found roots {sorted(roots)})")
    for n, p in parent.items():
        if p is not None and p not in parent:
            problems.append(f"node {n}: parent {p} does not exist")
    if problems:
        return problems

    children = {n: [] for n in parent}
    for n, p in parent.items():
        if p is not None:
            children[p].append(n)
    for kids in children.values():
        kids.sort()
    depth, frontier = {0: 0}, [0]
    while frontier:
        frontier = [c for n in frontier for c in children[n]]
        for c in frontier:
            depth[c] = depth[parent[c]] + 1
    problems = [f"node {n}: unreachable from the root" for n in sorted(set(parent) - set(depth))]
    if problems:
        return problems

    horizon = max(depth.values())
    leaves = sorted(n for n in parent if not children[n])
    for n in leaves:
        if depth[n] != horizon:
            problems.append(f"node {n}: leaf at depth {depth[n]}, expected common depth {horizon}")
    if cond[0] != 1:
        problems.append(f"node 0: root probability must be 1 (got {cond[0]})")
    for n, q in cond.items():
        if n != 0 and q <= 0:
            problems.append(f"node {n}: transition probability {q} is not positive")
    problems.extend(probability_sum_problems(children, cond))
    if len(times) != horizon + 1:
        problems.append(f"times has {len(times)} entries, expected {horizon + 1} for depth {horizon}")
    for a, b in zip(times, times[1:]):
        if not a < b:
            problems.append(f"times must be strictly increasing (got {a} before {b})")
    if problems:
        return problems

    nodes = tuple(sorted(parent, key=lambda n: (depth[n], n)))
    return {
        "times": times,
        "nodes": nodes,
        "parent": parent,
        "children": {n: tuple(kids) for n, kids in children.items()},
        "time_index": depth,
        "cond_prob": cond,
        "leaves": tuple(leaves),
        "internal": tuple(n for n in nodes if children[n]),
        "node_set": frozenset(parent),
    }
