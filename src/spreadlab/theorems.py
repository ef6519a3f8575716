"""Supermartingale tools and mechanically checked statements.

The load-bearing fact: once positions are marked at a shadow price that is
a martingale under some measure Q, any self-financing strategy's marked
value can only drift down under Q.  Everything here either certifies that
drift condition, decomposes it, or propagates it into node-wise bounds on
liquidation values; the frictionless statement is that propagation at
lambda = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cps import EQUIVALENT, ConsistentPriceSystem, _equivalent_mode, _require_shadow, _rescaling, _threshold, verify_cps
from .market import Market
from .rationals import parse_rational
from .strategy import Strategy, check_self_financing, derive_bond_account, ensure_strategy
from .tree import (
    AdaptedProcess,
    EventTree,
    NodeId,
    PredictableProcess,
    conditional_expectation,
    density_problems,
    ensure_adapted,
    ensure_predictable,
    support_drift,
)
from .valuation import (
    NUMERAIRE_BASED,
    NUMERAIRE_FREE,
    _liquidate,
    _liquidation_pair,
    admissibility_bound,
)

LONG = "long"
SHORT = "short"


_ZERO = Fraction(0)


@dataclass(frozen=True)
class Decomposition:
    """X = martingale - compensator, the unique such split with the
    compensator predictable, nondecreasing, and zero at the root."""

    martingale: AdaptedProcess
    compensator: PredictableProcess


@dataclass(frozen=True)
class OssmReport:
    """Outcome of the one-step supermartingale check.

    Violations are (node, positive drift) pairs.  On a finite tree the
    one-step criterion is equivalent to the bound over every pair of
    stopping times, so an empty list certifies the full statement, and
    ``decomposition`` then carries the Doob split that the drifts give.
    """

    ok: bool
    violations: tuple[tuple[NodeId, Fraction], ...]
    decomposition: "Decomposition | None" = None


def check_ossm(tree: EventTree, process: AdaptedProcess, density: AdaptedProcess) -> OssmReport:
    """Is the process a supermartingale under the measure given by the
    density?  Only nodes charged by that measure are examined.

    The compensator's increment over each child set is the parent's
    expected one-step drop, which pins the whole Doob decomposition.
    Outside the support the compensator is frozen (the measure never sees
    those nodes).  Process and density values must be Fractions or ints.
    """
    ensure_adapted(tree, process, "process")
    problems = density_problems(tree, density)
    if problems:
        raise ValueError("invalid density: " + "; ".join(problems))
    return _ossm(tree, process, density)


def _ossm(tree: EventTree, process: AdaptedProcess, density: AdaptedProcess) -> OssmReport:
    """``check_ossm`` for a process on every node and a density already
    validated.  The twin stays because ``decompose`` has had the density
    checked once, when its price system was built and by ``verify_cps``
    inside `shadow_decomposition`, and `check_ossm` would check it again."""
    drift = support_drift(tree, process, density)
    violations = tuple((n, d) for n, d in drift.items() if d.numerator > 0)
    if violations:
        return OssmReport(ok=False, violations=violations)

    compensator: dict[NodeId, Fraction] = {tree.root: _ZERO}
    for n in tree.internal:
        level = compensator[n]
        d = drift.get(n)
        if d:
            ln, ld = level.as_integer_ratio()
            dn, dd = d.as_integer_ratio()
            level = Fraction(ln * dd - dn * ld, ld * dd)
        for c in tree.children[n]:
            compensator[c] = level
    x = process.values
    martingale = {}
    for n in tree.nodes:
        xn, xd = x[n].as_integer_ratio()
        cn, cd = compensator[n].as_integer_ratio()
        martingale[n] = Fraction(xn * cd + cn * xd, xd * cd)
    decomposition = Decomposition(
        martingale=AdaptedProcess(martingale),
        compensator=PredictableProcess(compensator),
    )
    return OssmReport(ok=True, violations=(), decomposition=decomposition)


def doob_decompose(tree: EventTree, process: AdaptedProcess, density: AdaptedProcess) -> Decomposition:
    """Split a supermartingale into martingale minus rising compensator.

    The split is the one ``check_ossm`` certifies with; a positive drift
    anywhere in the support is rejected.
    """
    report = check_ossm(tree, process, density)
    if not report.ok:
        n, d = report.violations[0]
        raise ValueError(f"node {n}: positive drift {d}, not a supermartingale under this measure")
    return report.decomposition


def shadow_values(strategy: Strategy, cps: ConsistentPriceSystem, pre_trade: bool = False) -> AdaptedProcess:
    """Position marked at the shadow price, node by node, on the
    strategy's tree; pre-trade, the root's empty position marks to 0.

    Needs a system bound to the strategy's tree with the shadow price on
    every node, so absolutely continuous systems with dead branches are
    rejected.
    """
    tree = strategy.tree
    s = _require_shadow(tree, cps, tree.nodes)
    bond, stock, parent = strategy.bond.values, strategy.stock.values, tree.parent
    marked = {}
    for n in tree.nodes:
        h = parent[n] if pre_trade else n
        marked[n] = _ZERO if h is None else bond[h] + stock[h] * s[n]
    return AdaptedProcess(marked)


@dataclass(frozen=True)
class ShadowDecomposition:
    """Marked value = cumulative trading cost + cumulative price-move term.

    The transform cumulates, along root paths, the held stock times the
    shadow price change, and cost = value - transform.  Its increment at
    a node is then the cash flow of that node's trade valued at the shadow
    price (the root trade counts, coming from the empty position), so the
    cost never rises from parent to child and is at most 0 at the root.
    """

    cost: AdaptedProcess
    transform: AdaptedProcess
    value: AdaptedProcess


def shadow_decomposition(
    market: Market, strategy: Strategy, cps: ConsistentPriceSystem
) -> ShadowDecomposition:
    """Split the marked value into its falling and its martingale part.

    The transform is summed along root paths and cost = value - transform.
    Self-financing makes every cost increment nonpositive once the shadow
    price sits inside the market's own spread, which is why the system is
    verified against the market's cost level, not its own.  That makes the
    cost never rise from parent to child, and never exceed 0 at the root;
    each node is checked, and a breach raises RuntimeError naming it.
    """
    tree = market.tree
    report = check_self_financing(market, strategy)
    if not report.ok:
        raise ValueError(f"strategy is not self-financing at nodes {list(report.violations)}")
    s = _require_shadow(tree, cps, tree.nodes)
    ok, violations = verify_cps(market, cps, fee=market.fee)
    if not ok:
        raise ValueError(
            "price system invalid at the market's cost level: " + "; ".join(violations)
        )

    bond, stock, parent = strategy.bond.values, strategy.stock.values, tree.parent
    cost: dict[NodeId, Fraction] = {}
    transform: dict[NodeId, Fraction] = {}
    value: dict[NodeId, Fraction] = {}
    # each of v, t and c is one integer expression and one normalization
    for n in tree.nodes:
        p = parent[n]
        bn, bd = bond[n].as_integer_ratio()
        sn, sd = s[n].as_integer_ratio()
        hn, hd = stock[n].as_integer_ratio()
        # v = bond + S-tilde * stock
        vn, vd = bn * sd * hd + sn * hn * bd, bd * sd * hd
        v = value[n] = Fraction(vn, vd)
        if p is None:
            # the root trade comes from the empty position: all of it is cost
            cost[n] = v
            transform[n] = _ZERO
            if vn > 0:
                raise RuntimeError(f"node {n}: root cost {v} is positive")
            continue
        # t = t_p + stock_p * (S-tilde - S-tilde_p), then c = v - t
        tn, td = transform[p].as_integer_ratio()
        hn, hd = stock[p].as_integer_ratio()
        un, ud = s[p].as_integer_ratio()
        mn, md = hn * (sn * ud - un * sd), hd * sd * ud
        tn, td = tn * md + mn * td, td * md
        transform[n] = Fraction(tn, td)
        cn, cd = vn * td - tn * vd, vd * td
        c = cost[n] = Fraction(cn, cd)
        pn, pd = cost[p].as_integer_ratio()
        if cn * pd > pn * cd:
            raise RuntimeError(f"node {n}: cost rose from {cost[p]} to {c}")
    return ShadowDecomposition(
        cost=AdaptedProcess(cost),
        transform=AdaptedProcess(transform),
        value=AdaptedProcess(value),
    )


@dataclass(frozen=True)
class TheoremWitness:
    """A node where the claimed bound fails, tagged by position side.

    ``long`` means the incoming stock position is >= 0 there, ``short``
    that it is <= 0; a flat position counts as long.
    """

    node: NodeId
    classification: str
    value: Fraction


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of a checked statement: hypothesis report plus conclusion.

    ``holds`` speaks only about the conclusion; an unmet hypothesis with a
    violated conclusion is reported as both (the statement is then silent,
    not wrong).  ``cps_levels`` holds the one pair (t, attained): t is the
    infimum of the cost levels with a price system, and ``attained`` says
    whether a system exists at t itself.
    """

    holds: bool
    x: Fraction
    witness: "TheoremWitness | None"
    hypothesis_ok: bool
    hypothesis_failures: tuple[str, ...]
    cps_levels: tuple[tuple[Fraction, bool], ...]
    mode: str
    admissibility_bound: Fraction


def check_admissibility_theorem(
    market: Market,
    strategy: Strategy,
    x,
    mode: str = NUMERAIRE_BASED,
    measure: str = EQUIVALENT,
) -> TheoremVerdict:
    """Does a terminal liquidation bound propagate to every node?

    Hypotheses checked: the strategy is self-financing, its pre-trade
    liquidation value at every leaf is >= -x, and a price system exists at
    every cost level in (0, lambda), its measure of the class ``measure``:
    EQUIVALENT or ABSOLUTELY_CONTINUOUS.  That holds exactly when the
    threshold is 0, and at lambda = 0 it must also be attained: a
    martingale measure, as that failure then reads.  The conclusion asks
    the same bound node-wise, always against pre-trade holdings: the
    bound protects the position one is carrying, not the one after a
    repair trade.

    The two admissibility notions share this conclusion; the mode picks
    which notion's minimal bound is reported alongside.
    """
    tree = market.tree
    x = parse_rational(x)
    if mode not in (NUMERAIRE_BASED, NUMERAIRE_FREE):
        raise ValueError(f"unknown admissibility mode {mode!r}")
    equivalent = _equivalent_mode(measure)

    failures: list[str] = []
    sf = check_self_financing(market, strategy)
    if not sf.ok:
        failures.append(f"strategy is not self-financing at nodes {list(sf.violations)}")

    bound = admissibility_bound(market, strategy, mode).minimal_bound

    threshold, attained = _threshold(market, equivalent)
    if market.fee == 0:
        if threshold > 0 or not attained:
            failures.append(
                f"no martingale measure (no consistent price system at cost level 0,"
                f" threshold {threshold})"
            )
    elif threshold > 0:
        failures.append(f"no consistent price system at cost levels below {threshold}")

    # leaves come last in node order, in the order of tree.leaves
    witness = None
    floor = -x
    fn, fd = floor.as_integer_ratio()
    keep, price, parent = (1 - market.fee).as_integer_ratio(), market.price.values, tree.parent
    for n in tree.nodes:
        p = parent[n]
        bond, stock = (_ZERO, _ZERO) if p is None else (strategy.bond[p], strategy.stock[p])
        vn, vd = _liquidation_pair(bond, stock, keep, price[n].as_integer_ratio())
        if vn * fd < fn * vd:
            # a value is built only where the bound fails
            v = Fraction(vn, vd)
            if witness is None:
                witness = TheoremWitness(node=n, classification=LONG if stock >= 0 else SHORT, value=v)
            if not tree.children[n]:
                failures.append(f"terminal bound fails at leaf {n}: {v} < {floor}")

    return TheoremVerdict(
        holds=witness is None,
        x=x,
        witness=witness,
        hypothesis_ok=not failures,
        hypothesis_failures=tuple(failures),
        cps_levels=((threshold, attained),),
        mode=mode,
        admissibility_bound=bound,
    )


def frictionless_check(market: Market, positions: PredictableProcess, x) -> TheoremVerdict:
    """The admissibility theorem at lambda = 0 for the strategy holding
    ``positions``, the stock held INTO each node (decided at the parent).

    The strategy trades at each node to the position its children are
    entered with, at the price, so its pre-trade liquidation value is the
    gain of ``positions``: position times price increment, summed along
    the path.  Hypotheses: a martingale measure exists and terminal gains
    stay above -x.  Conclusion: gains stay above -x at every node.
    """
    tree = market.tree
    if market.fee != 0:
        raise ValueError(
            f"market carries transaction costs (lambda = {market.fee}); this check needs lambda = 0"
        )
    ensure_predictable(tree, positions, "positions")
    children = tree.children
    plan = {n: positions[children[n][0]] if children[n] else positions[n] for n in tree.nodes}
    return check_admissibility_theorem(market, derive_bond_account(market, AdaptedProcess(plan)), x)


@dataclass(frozen=True)
class ReplayResult:
    """One run of the bound-propagation argument at a tilt level alpha.

    ``modified_value`` is the incoming position valued at prices tilted
    alpha toward it; ``shadow_bound`` the same position at the matching
    rescaled shadow price; ``conditional_terminal`` the average terminal
    pre-trade liquidation value over the witness node's subtree under the
    system's measure.  The argument's chain is
    conditional_terminal <= shadow_bound <= modified_value, so a
    modified_value below -x forces terminal values below -x somewhere.
    """

    node: NodeId
    classification: str
    modified_value: Fraction
    shadow_bound: Fraction
    conditional_terminal: Fraction


def replay_admissibility_argument(
    market: Market,
    strategy: Strategy,
    x,
    cps: ConsistentPriceSystem,
    alpha: "Fraction | None" = None,
) -> "ReplayResult | None":
    """Hunt for a node whose incoming position breaks the bound even at
    tilted prices, then average terminal liquidation over its subtree.

    Uses a price system at a level below alpha; `_rescaling` checks the
    window and gives the factors of `scale_cps`, so the shadow bound is
    read at one node and no price system is built.  Returns None when no
    node meets the tilted-price condition; the condition is stricter than
    the plain bound violation, and the gap closes only as alpha shrinks.
    """
    tree = market.tree
    ensure_strategy(tree, strategy)
    s = _require_shadow(tree, cps, tree.nodes)
    fee = market.fee
    x = parse_rational(x)
    _, down, up = _rescaling(cps.fee, fee, fee / 4 if alpha is None else alpha)

    # the holdings carried into each node: (0, 0) at the root
    parent, keep = tree.parent, 1 - fee
    carried = {n: (_ZERO, _ZERO) if (p := parent[n]) is None else (strategy.bond[p], strategy.stock[p])
               for n in tree.nodes}
    terminal = {n: Fraction(0) for n in tree.nodes}
    for leaf in tree.leaves:
        terminal[leaf] = _liquidate(*carried[leaf], keep, market.price[leaf])
    terminal_process = AdaptedProcess(terminal)

    for n in tree.nodes:
        bond, stock = carried[n]
        long_value = bond + stock * up * market.price[n]
        short_value = bond + stock * down ** 2 * market.price[n]
        if stock >= 0 and long_value < -x:
            cls, value, factor = LONG, long_value, up
        elif stock <= 0 and short_value < -x:
            cls, value, factor = SHORT, short_value, down
        else:
            continue
        shadow_bound = bond + stock * factor * s[n]
        conditional = conditional_expectation(
            tree, terminal_process, cps.density, n, tree.horizon
        )
        return ReplayResult(
            node=n,
            classification=cls,
            modified_value=value,
            shadow_bound=shadow_bound,
            conditional_terminal=conditional,
        )
    return None
