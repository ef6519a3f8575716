"""Markets where the terminal bound fails to propagate.

Two constructions, both with every advertised constant recomputed and
checked at build time.  The deterministic one dips the price to 1 - fee
and back while a leveraged long position rides through; the stochastic one
first resolves a fair bet, then runs the same dip at a lower cost level on
the branch where the position is redeployed.  Each instance ships with the
price system that certifies the level at which trouble starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cps import DEFAULT_EPSILON, ConsistentPriceSystem, _threshold, verify_cps
from .market import Market, make_market
from .rationals import format_rational, parse_rational
from .strategy import Strategy, check_self_financing
from .tree import AdaptedProcess, EventTree, NodeId, support_drift
from .valuation import _liquidate

DETERMINISTIC = "det"
STOCHASTIC = "stoch"


@dataclass(frozen=True)
class CounterexampleReport:
    """A generated instance plus every constant it promises.

    ``expected_terminal_bound`` is the floor attained by the pre-trade
    liquidation value at the leaves; ``expected_midtime_value`` the value
    at the dip node, which sits strictly below that floor.  The witness
    system verifies at ``witness_fee``; for the deterministic variant that
    level is also the smallest feasible one (``expected_threshold``).
    """

    variant: str
    market: Market
    strategy: Strategy
    cps_witness: ConsistentPriceSystem
    fee: Fraction
    witness_fee: Fraction
    expected_terminal_bound: Fraction
    expected_midtime_value: Fraction
    midtime_node: NodeId
    branch_probabilities: dict[str, Fraction]
    expected_threshold: "Fraction | None" = None
    up_price: "Fraction | None" = None
    sale_wealth: "Fraction | None" = None
    literal_sale: bool = False


def _require(condition: bool, what: str) -> None:
    """Check an advertised constant; a failure is a broken construction."""
    if not condition:
        raise RuntimeError(f"counterexample construction broken: {what}")


def _post_trade_liquidation(market: Market, strategy: Strategy, node: NodeId) -> Fraction:
    return _liquidate(strategy.bond[node], strategy.stock[node], 1 - market.fee, market.price[node])


def _dip_value(sale_wealth: Fraction, fee: Fraction, witness_fee: Fraction) -> Fraction:
    """The stochastic instance's liquidation value at its dip node, from
    the wealth after the up-branch sale."""
    return sale_wealth - (sale_wealth + 1) * (1 + witness_fee * (1 / fee - 1))


def _levels(fee, witness_fee) -> tuple[Fraction, Fraction]:
    """The stochastic instance's two cost levels, read by `parse_rational`;
    raises ValueError unless 0 < witness_fee <= fee < 1."""
    fee = parse_rational(fee)
    witness_fee = parse_rational(witness_fee)
    if not (0 < witness_fee <= fee < 1):
        raise ValueError(
            f"need 0 < witness_fee <= fee < 1, got witness_fee={witness_fee}, fee={fee}"
        )
    return fee, witness_fee


def deterministic_counterexample(fee, steps: int = 2) -> CounterexampleReport:
    """Single-path market whose dip defeats the terminal bound.

    The price walks from 1 down to 1 - fee at the halfway time and back;
    holding 1/fee shares bought at the start leaves exactly -1 at the end
    but fee - 2 at the bottom of the dip.  No price system exists below
    the market's own cost level (a single path forces a constant shadow
    price, and the spread intersection is empty until the level reaches
    the fee), which is why the bound's propagation machinery is silent
    here.
    """
    fee = parse_rational(fee)
    if not (0 < fee < 1):
        raise ValueError(
            f"fee must satisfy 0 < fee < 1, got {fee} (the strategy holds 1/fee shares)"
        )
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be an even integer >= 2, got {steps}")

    times = [Fraction(k, steps) for k in range(steps + 1)]
    entries = [(k, None if k == 0 else k - 1, Fraction(1)) for k in range(steps + 1)]
    tree = EventTree.build(times, entries)
    price = {}
    for k in range(steps + 1):
        t = Fraction(k, steps)
        price[k] = 1 - 2 * t * fee if t <= Fraction(1, 2) else 1 - 2 * (1 - t) * fee
    market = make_market(tree, AdaptedProcess(price), fee)

    shares = 1 / fee
    strategy = Strategy(tree, AdaptedProcess.constant(tree, -shares), AdaptedProcess.constant(tree, shares))
    sf = check_self_financing(market, strategy)
    _require(sf.ok, f"strategy not self-financing at nodes {list(sf.violations)}")
    _require(sf.slack[tree.root] == 0, f"root slack {sf.slack[tree.root]}, expected 0")

    witness = ConsistentPriceSystem(
        tree=tree,
        shadow_price={n: 1 - fee for n in tree.nodes},
        density=AdaptedProcess.constant(tree, 1),
        fee=fee,
    )
    ok, violations = verify_cps(market, witness, fee=fee, epsilon=DEFAULT_EPSILON)
    _require(ok, f"witness system fails: {violations}")

    mid = steps // 2
    terminal = _post_trade_liquidation(market, strategy, tree.leaves[0])
    midtime = _post_trade_liquidation(market, strategy, mid)
    _require(terminal == -1, f"terminal value {terminal}, expected -1")
    _require(midtime == fee - 2, f"dip value {midtime}, expected {fee - 2}")

    # the level is sharp: a price system exists at the fee and at no level below it
    threshold, attained = _threshold(market, True)
    _require(
        (threshold, attained) == (fee, True),
        f"smallest feasible cost level {threshold} (attained: {attained}), expected the fee {fee}",
    )

    return CounterexampleReport(
        variant=DETERMINISTIC,
        market=market,
        strategy=strategy,
        cps_witness=witness,
        fee=fee,
        witness_fee=fee,
        expected_terminal_bound=Fraction(-1),
        expected_midtime_value=fee - 2,
        midtime_node=mid,
        branch_probabilities={"main": Fraction(1)},
        expected_threshold=fee,
    )


def stochastic_counterexample(
    fee=Fraction(1, 2),
    witness_fee=Fraction(1, 4),
    up_price=Fraction(4),
    literal_sale: bool = False,
) -> CounterexampleReport:
    """Two-phase market: fair bet, then a dip on the middle branch.

    Phase one is a martingale: the price jumps to ``up_price`` with the
    probability that keeps it fair, then doubles-or-returns on the up
    branch.  The position (one share bought at the start) is sold after
    the first jump; on the branch that came back to 1 the proceeds are
    leveraged into a fresh long position, and phase two dips that branch's
    price to 1 - witness_fee before recovering.  Terminal liquidation
    stays >= -1 on every leaf while the dip node goes below -1, by a gap
    that grows without bound in ``up_price``.

    ``literal_sale`` prices the up-branch sale at factor
    (1 - witness_fee) instead of (1 - fee).  That variant breaks
    self-financing at the market's own cost level whenever
    witness_fee < fee; it is exposed for comparison only.
    """
    fee, witness_fee = _levels(fee, witness_fee)
    up_price = parse_rational(up_price)
    if up_price <= 1:
        raise ValueError(f"up_price must exceed 1, got {up_price}")

    p_up = 1 / (2 * up_price - 1)
    p_down = 1 - p_up
    top = 2 * up_price - 1
    dip = 1 - witness_fee

    times = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    entries = [
        (0, None, Fraction(1)),
        (1, 0, p_up),
        (2, 0, p_down),
        (3, 1, Fraction(1, 2)),
        (4, 1, Fraction(1, 2)),
        (5, 2, Fraction(1)),
        (6, 3, Fraction(1)),
        (7, 4, Fraction(1)),
        (8, 5, Fraction(1)),
        (9, 6, Fraction(1)),
        (10, 7, Fraction(1)),
        (11, 8, Fraction(1)),
    ]
    tree = EventTree.build(times, entries)
    price = {
        0: Fraction(1),
        1: up_price,
        2: Fraction(1, 2),
        3: top,
        4: Fraction(1),
        5: Fraction(1, 2),
        6: top,
        7: dip,
        8: Fraction(1, 2),
        9: top,
        10: Fraction(1),
        11: Fraction(1, 2),
    }
    market = make_market(tree, AdaptedProcess(price), fee)

    # fair bet: the price is a martingale through both phase-one jumps
    drift = support_drift(tree, market.price)
    _require(not drift[0] and not drift[1], f"phase-one jumps are not fair: drift {drift[0]}, {drift[1]}")

    sale_factor = 1 - (witness_fee if literal_sale else fee)
    sale_wealth = -1 + up_price * sale_factor
    redeploy = (sale_wealth + 1) / fee

    bond = {0: Fraction(-1), 1: sale_wealth, 2: -1 + (1 - fee) / 2}
    stock = {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)}
    bond[3], stock[3] = bond[1], Fraction(0)
    bond[4], stock[4] = sale_wealth - redeploy, redeploy
    bond[5], stock[5] = bond[2], Fraction(0)
    for n in (6, 7, 8, 9, 10, 11):
        up = tree.parent[n]
        bond[n], stock[n] = bond[up], stock[up]
    strategy = Strategy(tree, AdaptedProcess(bond), AdaptedProcess(stock))

    sf = check_self_financing(market, strategy)
    if literal_sale and witness_fee < fee:
        _require(sf.violations == (1,), f"literal sale overdraws at nodes {list(sf.violations)}, expected [1]")
    else:
        _require(sf.ok, f"strategy not self-financing at nodes {list(sf.violations)}")

    # shadow price: scaled price frozen after the second jump
    shadow = {}
    for n in tree.nodes:
        anchor = n
        while tree.time_index[anchor] > 2:
            anchor = tree.parent[anchor]
        shadow[n] = (1 - witness_fee) * price[anchor]
    witness = ConsistentPriceSystem(
        tree=tree,
        shadow_price=shadow,
        density=AdaptedProcess.constant(tree, 1),
        fee=witness_fee,
    )
    ok, violations = verify_cps(market, witness, fee=witness_fee, epsilon=DEFAULT_EPSILON)
    _require(ok, f"witness system fails: {violations}")

    midtime_value = _post_trade_liquidation(market, strategy, 7)
    expected = _dip_value(sale_wealth, fee, witness_fee)
    _require(midtime_value == expected, f"dip value {midtime_value}, expected {expected}")

    for leaf in tree.leaves:
        value = _post_trade_liquidation(market, strategy, leaf)
        _require(value >= -1, f"terminal value {value} below -1 at leaf {leaf}")
    value = _post_trade_liquidation(market, strategy, 10)
    _require(value == -1, f"terminal value {value} at leaf 10, expected -1")
    for n in (2, 5, 8, 11):
        value = _post_trade_liquidation(market, strategy, n)
        _require(value == -1 + (1 - fee) / 2, f"value {value} at node {n}, expected {-1 + (1 - fee) / 2}")

    return CounterexampleReport(
        variant=STOCHASTIC,
        market=market,
        strategy=strategy,
        cps_witness=witness,
        fee=fee,
        witness_fee=witness_fee,
        expected_terminal_bound=Fraction(-1),
        expected_midtime_value=expected,
        midtime_node=7,
        branch_probabilities={
            "up": p_up,
            "down": p_down,
            "up_up": Fraction(1, 2),
            "up_down": Fraction(1, 2),
        },
        up_price=up_price,
        sale_wealth=sale_wealth,
        literal_sale=literal_sale,
    )


def up_price_for_target_loss(fee, witness_fee, target) -> Fraction:
    """Smallest power-of-two jump size driving the dip value to -target.

    The dip value falls linearly in the jump size, so doubling finds a
    witness for any target > 1; the returned value feeds
    stochastic_counterexample directly.
    """
    fee, witness_fee = _levels(fee, witness_fee)
    target = parse_rational(target)
    if target <= 1:
        raise ValueError(f"target must exceed 1, got {target}")
    up = Fraction(2)
    while True:
        if _dip_value(-1 + up * (1 - fee), fee, witness_fee) <= -target:
            return up
        up *= 2


def report_to_doc(report: CounterexampleReport) -> dict:
    """Constants of a generated instance in wire form."""
    fr = format_rational
    doc = {
        "variant": report.variant,
        "lambda": fr(report.fee),
        "lambda_prime": fr(report.witness_fee),
        "terminal_bound": fr(report.expected_terminal_bound),
        "midtime_value": fr(report.expected_midtime_value),
        "midtime_node": report.midtime_node,
        "branch_probabilities": {
            k: fr(v) for k, v in report.branch_probabilities.items()
        },
    }
    if report.expected_threshold is not None:
        doc["threshold"] = fr(report.expected_threshold)
    if report.up_price is not None:
        doc["m_tilde"] = fr(report.up_price)
    if report.sale_wealth is not None:
        doc["sale_wealth"] = fr(report.sale_wealth)
    if report.variant == STOCHASTIC:
        doc["literal_sale"] = report.literal_sale
    return doc
