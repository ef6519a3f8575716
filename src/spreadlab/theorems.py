"""Supermartingale tools and mechanically checked statements.

The load-bearing fact: once positions are marked at a shadow price that is
a martingale under some measure Q, any self-financing strategy's marked
value can only drift down under Q.  Everything here either certifies that
drift condition, decomposes it, or propagates it into node-wise bounds on
liquidation values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cps import DEFAULT_EPSILON, ConsistentPriceSystem, _equivalent_mode, _threshold, scale_cps, verify_cps
from .market import Market
from .rationals import parse_rational
from .strategy import Strategy, check_self_financing, pre_trade_holdings
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
from .valuation import NUMERAIRE_BASED, NUMERAIRE_FREE, admissibility_bound, liquidation_value, shadow_value

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
    those nodes).
    """
    ensure_adapted(tree, process, "process")
    problems = density_problems(tree, density)
    if problems:
        raise ValueError("invalid density: " + "; ".join(problems))
    return _ossm(tree, process, density)


def _ossm(tree: EventTree, process: AdaptedProcess, density: AdaptedProcess) -> OssmReport:
    """``check_ossm`` for a process on every node and a density already
    validated (``verify_cps`` checks it with ``density_problems`` too)."""
    drift = support_drift(tree, process, density)
    violations = tuple((n, d) for n, d in drift.items() if d > 0)
    if violations:
        return OssmReport(ok=False, violations=violations)

    compensator: dict[NodeId, Fraction] = {tree.root: _ZERO}
    for n in tree.internal:
        d = drift.get(n)
        level = compensator[n] - d if d else compensator[n]
        for c in tree.children[n]:
            compensator[c] = level
    martingale = {n: process[n] + compensator[n] for n in tree.nodes}
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


def _require_shadow_everywhere(tree: EventTree, cps: ConsistentPriceSystem) -> None:
    missing = [n for n in tree.nodes if n not in cps.shadow_price]
    if missing:
        raise ValueError(f"shadow price missing at nodes {missing}")


def shadow_values(
    tree: EventTree,
    strategy: Strategy,
    cps: ConsistentPriceSystem,
    pre_trade: bool = False,
) -> AdaptedProcess:
    """Position marked at the shadow price, node by node.

    Needs the shadow price on every node, so absolutely continuous systems
    with dead branches are rejected.
    """
    _require_shadow_everywhere(tree, cps)
    return AdaptedProcess(
        {n: shadow_value(tree, strategy, cps.shadow_price, n, pre_trade) for n in tree.nodes}
    )


@dataclass(frozen=True)
class ShadowDecomposition:
    """Marked value = cumulative trading cost + cumulative price-move term.

    The cost increment at a node is the cash flow of its trade valued at
    the shadow price (the root trade counts, coming from the empty
    position); the price-move increment is the held stock times the shadow
    price change.  Both cumulate along root paths and reconstruct the
    post-trade marked value exactly.
    """

    cost: AdaptedProcess
    transform: AdaptedProcess
    value: AdaptedProcess


def shadow_decomposition(
    market: Market, strategy: Strategy, cps: ConsistentPriceSystem
) -> ShadowDecomposition:
    """Split the marked value into its falling and its martingale part.

    Self-financing makes every cost increment nonpositive once the shadow
    price sits inside the market's own spread, which is why the system is
    verified against the market's cost level, not its own.
    """
    tree = market.tree
    report = check_self_financing(market, strategy)
    if not report.ok:
        raise ValueError(f"strategy is not self-financing at nodes {list(report.violations)}")
    _require_shadow_everywhere(tree, cps)
    ok, violations = verify_cps(market, cps, fee=market.fee)
    if not ok:
        raise ValueError(
            "price system invalid at the market's cost level: " + "; ".join(violations)
        )

    s = cps.shadow_price
    bond, stock, parent = strategy.bond.values, strategy.stock.values, tree.parent
    cost: dict[NodeId, Fraction] = {}
    transform: dict[NodeId, Fraction] = {}
    value: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        p = parent[n]
        v = value[n] = bond[n] + s[n] * stock[n]
        if p is None:
            # the root trade comes from the empty position: all of it is cost
            cost[n] = v
            transform[n] = _ZERO
            continue
        c = cost[n] = cost[p] + (bond[n] - bond[p]) + s[n] * (stock[n] - stock[p])
        t = transform[n] = transform[p] + stock[p] * (s[n] - s[p])
        if v != c + t:
            raise RuntimeError(f"node {n}: marked value {v} != cost {c} + transform {t}")
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
    mode: "str | None" = None
    admissibility_bound: "Fraction | None" = None


def check_admissibility_theorem(
    market: Market,
    strategy: Strategy,
    x,
    mode: str = NUMERAIRE_BASED,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> TheoremVerdict:
    """Does a terminal liquidation bound propagate to every node?

    Hypotheses checked: the strategy is self-financing, its pre-trade
    liquidation value at every leaf is >= -x, and a price system exists at
    every cost level in (0, lambda), equivalent when epsilon > 0 and
    absolutely continuous when epsilon = 0.  That holds exactly when the
    threshold is 0, and at lambda = 0 it must also be attained.  The
    conclusion asks the same bound node-wise, always against pre-trade
    holdings: the bound protects the position one is carrying, not the
    one after a repair trade.

    The two admissibility notions share this conclusion; the mode picks
    which notion's minimal bound is reported alongside.
    """
    tree = market.tree
    x = parse_rational(x)
    if mode not in (NUMERAIRE_BASED, NUMERAIRE_FREE):
        raise ValueError(f"unknown admissibility mode {mode!r}")
    equivalent = _equivalent_mode(epsilon)

    failures: list[str] = []
    sf = check_self_financing(market, strategy)
    if not sf.ok:
        failures.append(f"strategy is not self-financing at nodes {list(sf.violations)}")

    bound = admissibility_bound(market, strategy, mode).minimal_bound

    threshold, attained = _threshold(market, equivalent)
    if threshold > 0:
        failures.append(f"no consistent price system at cost levels below {threshold}")
    elif market.fee == 0 and not attained:
        failures.append(f"no consistent price system at cost level {threshold}")

    # leaves come last in node order, in the order of tree.leaves
    witness = None
    floor = -x
    for n in tree.nodes:
        bond, stock = pre_trade_holdings(tree, strategy, n)
        v = liquidation_value(market, bond, stock, n)
        if v < floor:
            if witness is None:
                witness = TheoremWitness(
                    node=n,
                    classification=LONG if stock >= 0 else SHORT,
                    value=v,
                )
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
    """Terminal-to-node-wise bound for zero-cost markets.

    ``positions`` is the stock held INTO each node (decided at the
    parent); gains accumulate position times price increment along each
    path.  Hypotheses: a martingale measure exists and terminal gains stay
    above -x.  Conclusion: gains stay above -x at every node.
    """
    tree = market.tree
    if market.fee != 0:
        raise ValueError(
            f"market carries transaction costs (lambda = {market.fee}); this check needs lambda = 0"
        )
    ensure_predictable(tree, positions, "positions")
    x = parse_rational(x)

    gains: dict[NodeId, Fraction] = {}
    for n in tree.nodes:
        p = tree.parent[n]
        if p is None:
            gains[n] = Fraction(0)
        else:
            gains[n] = gains[p] + positions[n] * (market.price[n] - market.price[p])

    failures: list[str] = []
    threshold, attained = _threshold(market, True)
    if threshold > 0 or not attained:
        failures.append(
            f"no equivalent martingale measure (no consistent price system at cost level 0,"
            f" threshold {threshold})"
        )
    for leaf in tree.leaves:
        if gains[leaf] < -x:
            failures.append(f"terminal bound fails at leaf {leaf}: {gains[leaf]} < {-x}")

    witness = None
    for n in tree.nodes:
        if gains[n] < -x:
            witness = TheoremWitness(
                node=n,
                classification=LONG if positions[n] >= 0 else SHORT,
                value=gains[n],
            )
            break

    return TheoremVerdict(
        holds=witness is None,
        x=x,
        witness=witness,
        hypothesis_ok=not failures,
        hypothesis_failures=tuple(failures),
        cps_levels=((threshold, attained),),
    )


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

    Uses a price system at a level below alpha (rescaling validates the
    window).  Returns None when no node meets the tilted-price condition;
    the condition is stricter than the plain bound violation, and the gap
    closes only as alpha shrinks.
    """
    tree = market.tree
    fee = market.fee
    alpha = fee / 4 if alpha is None else parse_rational(alpha)
    x = parse_rational(x)
    down_system, up_system = scale_cps(cps, fee, alpha)
    _require_shadow_everywhere(tree, cps)

    terminal = {n: Fraction(0) for n in tree.nodes}
    for leaf in tree.leaves:
        bond, stock = pre_trade_holdings(tree, strategy, leaf)
        terminal[leaf] = liquidation_value(market, bond, stock, leaf)
    terminal_process = AdaptedProcess(terminal)

    for n in tree.nodes:
        bond, stock = pre_trade_holdings(tree, strategy, n)
        long_value = bond + stock * (1 - fee) / (1 - alpha) * market.price[n]
        short_value = bond + stock * (1 - alpha) ** 2 * market.price[n]
        if stock >= 0 and long_value < -x:
            cls, value, system = LONG, long_value, up_system
        elif stock <= 0 and short_value < -x:
            cls, value, system = SHORT, short_value, down_system
        else:
            continue
        shadow_bound = bond + stock * system.shadow_price[n]
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
