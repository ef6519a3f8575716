"""Seeded workloads whose every verdict is known from the construction.

Each workload is a list of input sets.  An input set is a list of ops;
an op is one CLI command plus the answer the checker expects.  Input
files are written under ``in/`` and every op writes its reports under
``out/``, both relative to the current directory, so the argument lists
and therefore the reports are the same bytes on every run.

The families and why their verdicts are known:

* Martingale markets (every internal price is the conditional mean of
  its children): the pair S-tilde = S, Z = 1 is a consistent price
  system at every cost level, in both modes.
* Lifted-root markets: a martingale market whose root price is set to
  max child price / (1 - delta).  At any level below delta the root
  shadow price is at least (1 - level) S_0, above every child's ask, so
  it cannot be an average of child shadow prices: no system exists in
  either mode.  At level delta, in the absolutely continuous mode, the
  measure can put all root mass on the child with the highest price.
* Path markets (the deterministic counterexample's shape): a single
  path forces a constant shadow price, so the smallest feasible level is
  exactly the fee.
* Strategies are the tight self-financing completion of a random stock
  plan minus a random money burn at each node; the self-financing slack
  at a node is exactly that burn.

The generators use only the standard library, never the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

LEAF_PRICES = [Fraction(k, 8) for k in range(2, 33)]  # [1/4, 4]
PATH_FEES = [Fraction(1, 8), Fraction(3, 16), Fraction(1, 4), Fraction(1, 3), Fraction(3, 8), Fraction(1, 2)]
THRESHOLD_RESOLUTION = Fraction(1, 1024)


def fr(value) -> str:
    """Wire form of a rational: "p/q", or "p" for an integer."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass
class Op:
    """One CLI call: its id, argument list, the report files it writes
    and the answer the checker expects (``expect["kind"]`` selects the
    check, ``expect["exit"]`` is the exit code)."""

    op_id: str
    command: str
    argv: list
    reports: list
    expect: dict


@dataclass
class MarketSpec:
    """A market as the generator built it."""

    parent: dict
    children: dict
    prob: dict
    price: dict
    fee: Fraction
    depth: int

    @property
    def nodes(self):
        return list(self.parent)

    @property
    def leaves(self):
        return [n for n in self.parent if not self.children[n]]

    def doc(self) -> dict:
        return {
            "times": [str(t) for t in range(self.depth + 1)],
            "lambda": fr(self.fee),
            "nodes": [
                {"id": n, "parent": self.parent[n], "prob": fr(self.prob[n]), "S": fr(self.price[n])}
                for n in self.parent
            ],
        }


@dataclass
class StrategySpec:
    bond: dict
    stock: dict
    burn: dict

    def doc(self) -> dict:
        return {
            "holdings": [
                {"node": n, "phi0": fr(self.bond[n]), "phi1": fr(self.stock[n])} for n in self.bond
            ]
        }


def write_json(path: str, doc) -> str:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return path


def _shape(rng: random.Random, depth: int, arity) -> tuple[dict, dict, dict]:
    """Breadth-first tree: ids grow level by level, so parents precede
    children.  ``arity`` is a child count or a callable drawing one."""
    parent = {0: None}
    children = {0: []}
    prob = {0: Fraction(1)}
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for n in frontier:
            k = arity(rng) if callable(arity) else arity
            weights = [rng.randint(1, 4) for _ in range(k)]
            total = sum(weights)
            for w in weights:
                c = len(parent)
                parent[c], children[c], prob[c] = n, [], Fraction(w, total)
                children[n].append(c)
                nxt.append(c)
        frontier = nxt
    return parent, children, prob


def martingale_market(rng: random.Random, depth: int, arity, fee) -> MarketSpec:
    parent, children, prob = _shape(rng, depth, arity)
    price = {}
    for n in reversed(list(parent)):
        kids = children[n]
        if kids:
            price[n] = sum(prob[c] * price[c] for c in kids)
        else:
            price[n] = rng.choice(LEAF_PRICES)
    return MarketSpec(parent, children, prob, {n: price[n] for n in parent}, Fraction(fee), depth)


def lifted_root(market: MarketSpec, delta: Fraction) -> MarketSpec:
    price = dict(market.price)
    price[0] = max(price[c] for c in market.children[0]) / (1 - delta)
    return MarketSpec(market.parent, market.children, market.prob, price, delta, market.depth)


def path_market(steps: int, fee: Fraction) -> MarketSpec:
    """Price 1 - 2 t fee down to 1 - fee at t = 1/2 and back up to 1."""
    parent = {k: (None if k == 0 else k - 1) for k in range(steps + 1)}
    children = {k: ([k + 1] if k < steps else []) for k in range(steps + 1)}
    prob = {k: Fraction(1) for k in range(steps + 1)}
    price = {}
    for k in range(steps + 1):
        t = Fraction(min(k, steps - k), steps)
        price[k] = 1 - 2 * t * fee
    return MarketSpec(parent, children, prob, price, fee, steps)


def burning_strategy(rng: random.Random, market: MarketSpec, plan, burns) -> StrategySpec:
    """Tight self-financing completion of a random stock plan, minus a
    random burn at each node: the slack at node n is exactly burn[n]."""
    bond, stock, burn = {}, {}, {}
    for n in market.parent:
        p = market.parent[n]
        bond_in = Fraction(0) if p is None else bond[p]
        stock_in = Fraction(0) if p is None else stock[p]
        s = rng.choice(plan)
        d = s - stock_in
        ask = market.price[n]
        bid = (1 - market.fee) * ask
        cash = bid * -d if d < 0 else -ask * d
        burn[n] = rng.choice(burns)
        bond[n] = bond_in + cash - burn[n]
        stock[n] = s
    return StrategySpec(bond, stock, burn)


def liquidation(market: MarketSpec, bond: Fraction, stock: Fraction, node: int) -> Fraction:
    ask = market.price[node]
    return bond + stock * ((1 - market.fee) * ask if stock >= 0 else ask)


def pre_trade_liquidation(market: MarketSpec, strategy: StrategySpec, node: int) -> Fraction:
    p = market.parent[node]
    if p is None:
        return Fraction(0)
    return liquidation(market, strategy.bond[p], strategy.stock[p], node)


def first_breach(market: MarketSpec, strategy: StrategySpec, x: Fraction):
    """First node, in id order, whose pre-trade liquidation value is
    below -x, with that value; None when the bound holds everywhere."""
    for n in market.parent:
        v = pre_trade_liquidation(market, strategy, n)
        if v < -x:
            return n, v
    return None


def det_witness(fee: Fraction, steps: int) -> tuple[int, Fraction]:
    """Theorem witness on the deterministic counterexample at x = 1.

    1/fee shares are held from the root on, so the incoming liquidation
    value at node k is (-1 + (1 - fee) S_k) / fee, below -1 exactly where
    S_k < 1: the first such node is node 1."""
    s1 = 1 - 2 * Fraction(1, steps) * fee
    return 1, (-1 + (1 - fee) * s1) / fee


def stoch_constants(fee: Fraction, witness_fee: Fraction, up_price: Fraction) -> dict:
    """Advertised constants of the stochastic counterexample, from its
    definition: a fair bet to ``up_price``, sale at the bid, then the
    proceeds leveraged into a position that rides a dip to 1 - witness_fee."""
    p_up = 1 / (2 * up_price - 1)
    sale_wealth = -1 + up_price * (1 - fee)
    redeploy = (sale_wealth + 1) / fee
    dip_value = sale_wealth - redeploy + redeploy * (1 - fee) * (1 - witness_fee)
    return {
        "variant": "stoch",
        "lambda": fee,
        "lambda_prime": witness_fee,
        "terminal_bound": Fraction(-1),
        "midtime_value": dip_value,
        "midtime_node": 7,
        "branch_probabilities": {
            "up": p_up, "down": 1 - p_up, "up_up": Fraction(1, 2), "up_down": Fraction(1, 2),
        },
        "m_tilde": up_price,
        "sale_wealth": sale_wealth,
        "literal_sale": False,
    }


def det_constants(fee: Fraction, steps: int) -> dict:
    return {
        "variant": "det",
        "lambda": fee,
        "lambda_prime": fee,
        "terminal_bound": Fraction(-1),
        "midtime_value": fee - 2,
        "midtime_node": steps // 2,
        "branch_probabilities": {"main": Fraction(1)},
        "threshold": fee,
    }


class _Builder:
    """Collects the ops of one input set; ``tag`` prefixes every file."""

    def __init__(self, tag: str):
        self.tag = tag
        self.ops: list[Op] = []

    def market(self, name: str, market: MarketSpec) -> str:
        return self.file(name, market.doc())

    def file(self, name: str, doc) -> str:
        return write_json(f"in/{self.tag}-{name}.json", doc)

    def op(self, command: str, args: list, expect: dict, out_dir: bool = False) -> Op:
        op_id = f"{self.tag}-{len(self.ops):03d}-{command}"
        if out_dir:
            out = f"out/{op_id}"
            argv = [command, *args, "--out-dir", out]
            reports = [f"{out}/{name}" for name in ("market.json", "strategy.json", "cps.json", "report.json")]
        else:
            report = f"out/{op_id}.json"
            argv = [command, *args, "--report", report]
            reports = [report]
        op = Op(op_id, command, argv, reports, expect)
        self.ops.append(op)
        return op

    def find_cps(self, path: str, level: Fraction, ac: bool, feasible: bool) -> None:
        args = ["--market", path, f"--lambda={fr(level)}"] + (["--ac"] if ac else [])
        if feasible:
            expect = {"kind": "cps_feasible", "exit": 0, "market": path, "level": level, "ac": ac}
        else:
            expect = {"kind": "cps_infeasible", "exit": 3}
        self.op("find-cps", args, expect)

    def threshold(self, path: str, lo: Fraction, hi: Fraction) -> None:
        self.op("cps-threshold", ["--market", path], {"kind": "threshold", "exit": 0, "lo": lo, "hi": hi})


def cps_ladder(rng: random.Random, k: int, run) -> list[Op]:
    """CPS decisions across a ladder of tree sizes (13 to 63 nodes) and
    bisections on path markets of 9 to 33 nodes.

    Every input set holds the small trees; the larger ones rotate with
    the set index ``k``, so any four consecutive sets cover the whole
    ladder while each set stays a few seconds long.  The path market's
    fee is fixed by ``k`` too: a bisection's cost depends on the fee, and
    a drawn fee made it the op whose cost varied most across seeds."""
    b = _Builder(f"s{k}")
    fees = [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)]
    deltas = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
    ac = k % 2 == 1
    for name, depth, arity in (("bin3", 3, 2), ("tri2", 2, 3)):
        for i in range(2):
            market = martingale_market(rng, depth, arity, rng.choice(fees))
            path = b.market(f"{name}-{i}", market)
            for level in (Fraction(0), Fraction(1, 8), market.fee):
                for mode in (False, True):
                    b.find_cps(path, level, mode, feasible=True)
            if i == 0:
                delta = rng.choice(deltas)
                lifted = b.market(f"{name}-{i}-lifted", lifted_root(market, delta))
                for level in (Fraction(0), delta / 2):
                    for mode in (False, True):
                        b.find_cps(lifted, level, mode, feasible=False)
                b.find_cps(lifted, delta, True, feasible=True)
        if name == "bin3":
            b.threshold(path, Fraction(0), Fraction(0))
    for i in range(2):
        market = martingale_market(rng, 4, 2, rng.choice(fees))
        path = b.market(f"bin4-{i}", market)
        for level in ((Fraction(0), Fraction(1, 8)), (Fraction(1, 8), market.fee))[i]:
            b.find_cps(path, level, ac, feasible=True)
        if i == 0:
            delta = rng.choice(deltas)
            b.find_cps(b.market("bin4-lifted", lifted_root(market, delta)), delta / 2, ac, feasible=False)
    # the largest trees get the cheapest, least seed-sensitive query
    if ac:
        market = martingale_market(rng, 3, 3, rng.choice(fees))
        path = b.market("tri3", market)
        b.find_cps(path, Fraction(0), True, feasible=True)
        b.find_cps(path, market.fee, True, feasible=True)
    else:
        b.find_cps(b.market("bin5", martingale_market(rng, 5, 2, rng.choice(fees))), Fraction(0), True, feasible=True)
    steps = 8 * (k % 4 + 1)
    fee = PATH_FEES[k % len(PATH_FEES)]
    b.threshold(b.market(f"path{steps}", path_market(steps, fee)), fee, fee + THRESHOLD_RESOLUTION)
    return b.ops


def linear_large(rng: random.Random, k: int, run) -> list[Op]:
    """Validation, strategy checks and decompositions on 2047 to 8191
    nodes: no linear program runs."""
    b = _Builder(f"s{k}")
    plan = [Fraction(j, 2) for j in range(-4, 5)]
    burns = [Fraction(0), Fraction(0), Fraction(1, 16), Fraction(1, 8)]
    for depth, count in ((10, 6), (11, 2), (12, 1)):
        for i in range(count):
            name = f"bin{depth}-{i}"
            market = martingale_market(rng, depth, 2, rng.choice([Fraction(1, 8), Fraction(1, 4)]))
            path = b.market(name, market)
            strategy = burning_strategy(rng, market, plan, burns)
            spath = b.file(f"{name}-strategy", strategy.doc())
            cps = {
                "S_tilde": {str(n): fr(market.price[n]) for n in market.nodes},
                "Z": {str(n): "1" for n in market.nodes},
                "lambda_prime": "0",
                "epsilon": "0",
            }
            cpath = b.file(f"{name}-cps", cps)
            size = len(market.parent)
            b.op("validate", ["--market", path, "--strategy", spath], {"kind": "validate", "exit": 0})
            for mode, label in (("nb", "numeraire_based"), ("nf", "numeraire_free")):
                b.op(
                    "check-strategy",
                    ["--market", path, "--strategy", spath, "--mode", mode],
                    {"kind": "check_strategy", "exit": 0, "mode": label, "burn": strategy.burn},
                )
            b.op(
                "decompose",
                ["--market", path, "--strategy", spath, "--cps", cpath],
                {"kind": "decompose", "exit": 0, "nodes": size},
            )
    return b.ops


def _small_arity(rng: random.Random) -> int:
    return rng.choices([1, 2, 3], weights=[30, 45, 25])[0]


# node counts of the small theorem markets: the same profile in every
# input set, because a theorem op's cost grows steeply with size
SMALL_SIZES = (6, 7, 8, 9, 10, 11, 12, 13)


def theorem_small(rng: random.Random, k: int, run) -> list[Op]:
    """Both counterexample generators, theorem checks on small markets
    (11 tiny LPs each) and the theorem on generated counterexamples."""
    tag = f"s{k}"
    b = _Builder(tag)
    det_fees = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    stoch_fees = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    ups = [Fraction(2), Fraction(3), Fraction(4), Fraction(8), Fraction(16)]
    for i in range(2):
        fee, steps = rng.choice(det_fees), rng.choice([2, 4, 6, 8, 10])
        b.op(
            "counterexample",
            ["--variant", "det", f"--lambda={fr(fee)}", "--steps", str(steps)],
            {"kind": "counterexample", "exit": 0, "constants": det_constants(fee, steps), "path": (fee, steps)},
            out_dir=True,
        )
        fee, up = rng.choice(stoch_fees), rng.choice(ups)
        b.op(
            "counterexample",
            ["--variant", "stoch", f"--lambda={fr(fee)}", f"--m-tilde={fr(up)}"],
            {"kind": "counterexample", "exit": 0, "constants": stoch_constants(fee, Fraction(1, 4), up)},
            out_dir=True,
        )
    plan = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    burns = [Fraction(0), Fraction(0), Fraction(1, 16)]
    for i, size in enumerate(SMALL_SIZES):
        while True:
            fee = rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
            market = martingale_market(rng, rng.choice([2, 3]), _small_arity, fee)
            if len(market.parent) == size:
                break
        path = b.market(f"small-{i}", market)
        strategy = burning_strategy(rng, market, plan, burns)
        spath = b.file(f"small-{i}-strategy", strategy.doc())
        x = -min(pre_trade_liquidation(market, strategy, leaf) for leaf in market.leaves)
        nf = i % 2 == 1
        b.op(
            "theorem",
            ["--market", path, "--strategy", spath, f"--x={fr(x)}"] + (["--numeraire-free"] if nf else []),
            {
                "kind": "theorem", "exit": 0, "x": x, "holds": True, "hypothesis_ok": True,
                "witness": None, "mode": "numeraire_free" if nf else "numeraire_based",
            },
        )
    for steps in (4, 8):
        fee = rng.choice(det_fees)
        cx = f"in/{tag}-cx-det-{steps}"
        run(["counterexample", "--variant", "det", f"--lambda={fr(fee)}", "--steps", str(steps), "--out-dir", cx])
        node, value = det_witness(fee, steps)
        _theorem_on_counterexample(b, cx, node, value)
        fee, up = rng.choice(stoch_fees), rng.choice(ups)
        cx = f"in/{tag}-cx-stoch-{steps}"
        run(["counterexample", "--variant", "stoch", f"--lambda={fr(fee)}", f"--m-tilde={fr(up)}", "--out-dir", cx])
        constants = stoch_constants(fee, Fraction(1, 4), up)
        _theorem_on_counterexample(b, cx, 7, constants["midtime_value"])
    return b.ops


def _theorem_on_counterexample(b: _Builder, cx: str, node: int, value: Fraction) -> None:
    b.op(
        "theorem",
        ["--market", f"{cx}/market.json", "--strategy", f"{cx}/strategy.json", "--x", "1"],
        {
            "kind": "theorem", "exit": 1, "x": Fraction(1), "holds": False, "hypothesis_ok": False,
            "witness": {"node": node, "classification": "long", "value": value},
            "mode": "numeraire_based",
        },
    )


# workload -> (builder, number of input sets).  A run executes whole
# cycles over all input sets, so the mix of ops is the same in every run
# and two runs at one seed produce digest files that compare line by line.
BUILDERS = {
    "cps_ladder": (cps_ladder, 4),
    "linear_large": (linear_large, 1),
    "theorem_small": (theorem_small, 16),
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, run) -> list:
    """Write every input file of a workload and return its input sets.

    ``run`` is the CLI entry point; only ``theorem_small`` calls it, to
    write the counterexamples its theorem ops read.
    """
    builder, count = BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    Path("in").mkdir(exist_ok=True)
    Path("out").mkdir(exist_ok=True)
    return [builder(rng, k, run) for k in range(count)]
