"""Finite filtered probability spaces realized as rooted event trees.

A node is an atom of information at its depth: the root is time zero and
each child refines its parent by one period.  Randomness enters through
strictly positive one-step transition probabilities, so every node carries
positive mass under the reference measure and conditioning is always well
defined.  Time stamps are carried for reporting only; the mathematics runs
on integer depths.

Every quantity is a `fractions.Fraction`, every operation is a pure
function of immutable inputs, and no floating point appears anywhere in
the package core.  A per-node sign test reads the sign from the value's
``.numerator``, which is several times cheaper than comparing a Fraction
with 0 and means the same for a Fraction or an int.

The per-node formulas of the linear sweeps, and those of the CPS layer
(`cps`: the interval pass, the placement, the witness weights and the
equivalent-mode threshold), go one step further, with the deferred-gcd
rational arithmetic of Knuth (TAOCP vol. 2, 4.5.1): each reads its
operands' numerators and denominators once (``as_integer_ratio``),
computes in integers and builds one ``Fraction(num, den)`` per value it
stores; an equality or order test cross-multiplies and builds none.
Stored values, arguments and results stay Fractions (or the ints a
caller passed in): integers appear only inside one formula, and
``_step_sum``, the one-step formulas' shared inside, hands its pair
straight to the formula that asked for it.  A normalized Fraction is
canonical, so the values are the ones step-by-step Fraction arithmetic
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .rationals import parse_rational, rational_reader

NodeId = int

_ZERO = Fraction(0)


class InputError(ValueError):
    """An invalid input, with every problem found listed in ``problems``."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class TreeError(InputError):
    """A structurally invalid tree or a malformed tree document."""


class NullEventError(ValueError):
    """Conditioning on an event with zero mass under the chosen measure."""

    def __init__(self, node: NodeId):
        self.node = node
        super().__init__(f"node {node} carries zero mass under the given measure")


def is_mapping(value) -> bool:
    """isinstance(value, Mapping), with the common ``dict`` answered first."""
    return type(value) is dict or isinstance(value, Mapping)


def _inexact(values: Mapping[NodeId, object], nodes: Iterable[NodeId], what: str) -> list[str]:
    """A problem for each node whose value is neither a Fraction nor an int
    (a float or a bool, say): the sign tests read ``.numerator``, which a
    float lacks and a bool carries with the wrong meaning."""
    return [
        f"node {n}: {what} {v!r} is not a Fraction or an int"
        for n in nodes
        if type(v := values[n]) is not Fraction and (type(v) is bool or not isinstance(v, (Fraction, int)))
    ]


def _step_sum(
    cond: Mapping[NodeId, Fraction],
    kids: Iterable[NodeId],
    values: "Mapping[NodeId, Fraction] | None" = None,
    weights: "Mapping[NodeId, Fraction] | None" = None,
) -> tuple[int, int]:
    """The sum of p_c (* w_c) (* x_c) over ``kids`` as one unnormalized
    pair (num, den), den > 0: the integer inside of a one-step formula.

    Each operand's numerator and denominator are read once; the sum is
    never normalized here.  The caller ends the formula at once: with one
    ``Fraction(num, den)``, or with a cross-multiplied comparison that
    builds no Fraction.  The pair is never stored.
    """
    num, den = 0, 1
    for c in kids:
        n, d = cond[c].as_integer_ratio()
        if values is not None:
            xn, xd = values[c].as_integer_ratio()
            n, d = n * xn, d * xd
        if weights is not None:
            wn, wd = weights[c].as_integer_ratio()
            n, d = n * wn, d * wd
        num, den = num * d + n * den, den * d
    return num, den


@dataclass(frozen=True)
class AdaptedProcess:
    """Node-indexed values: the process is revealed exactly at each node."""

    values: Mapping[NodeId, Fraction]

    def __getitem__(self, node: NodeId) -> Fraction:
        return self.values[node]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.values

    @classmethod
    def constant(cls, tree: "EventTree", value) -> "AdaptedProcess":
        v = parse_rational(value)
        return cls({node: v for node in tree.nodes})


@dataclass(frozen=True)
class PredictableProcess:
    """Node-indexed values known one period ahead.

    The value at a node is decided at its parent, so values across any
    sibling set coincide; the root carries the process's initial value by
    convention.
    """

    values: Mapping[NodeId, Fraction]

    def __getitem__(self, node: NodeId) -> Fraction:
        return self.values[node]


@dataclass(frozen=True)
class EventTree:
    """Rooted tree with one-step transition probabilities.

    ``nodes`` is ordered by (depth, id) so parents always precede their
    children, and ``cond_prob[n]`` is the probability of reaching ``n``
    from its parent (1 at the root).  All leaves sit at the common final
    depth.
    """

    times: tuple[Fraction, ...]
    nodes: tuple[NodeId, ...]
    parent: Mapping[NodeId, "NodeId | None"]
    children: Mapping[NodeId, tuple[NodeId, ...]]
    time_index: Mapping[NodeId, int]
    cond_prob: Mapping[NodeId, Fraction]
    root: NodeId
    leaves: tuple[NodeId, ...]
    internal: tuple[NodeId, ...]
    node_set: frozenset[NodeId]

    @property
    def horizon(self) -> int:
        """Number of periods; depths run 0..horizon."""
        return len(self.times) - 1

    @staticmethod
    def build(times: Sequence[Fraction], entries: Iterable[tuple]) -> "EventTree":
        """Validate and assemble a tree from (id, parent, cond_prob) rows.

        Times and probabilities that are not already Fractions are read by
        `parse_rational`, so a float or a bool is a problem, and so is a
        parent id that is one (`load_tree` runs the same check).  Raises
        TreeError listing every violation found, each tagged with the
        offending node id.
        """
        problems: list[str] = []
        entries = list(entries)

        parsed_times = []
        for i, t in enumerate(times):
            try:
                parsed_times.append(t if isinstance(t, Fraction) else parse_rational(t))
            except ValueError as exc:
                problems.append(f"times[{i}]: {exc}")
        times = tuple(parsed_times)

        seen: set[NodeId] = set()
        parent: dict[NodeId, NodeId | None] = {}
        cond: dict[NodeId, Fraction] = {}
        for node, par, prob in entries:
            if not isinstance(node, int) or isinstance(node, bool) or node < 0:
                problems.append(f"node {node!r}: ids must be nonnegative integers")
                continue
            if node in seen:
                problems.append(f"node {node}: duplicate id")
                continue
            seen.add(node)
            if bad_parent := _parent_problem(node, par):
                problems.append(bad_parent)
                continue
            parent[node] = par
            try:
                cond[node] = prob if isinstance(prob, Fraction) else parse_rational(prob)
            except ValueError as exc:
                problems.append(f"node {node}: {exc}")

        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1 or (roots and roots[0] != 0):
            problems.append(
                f"tree must have exactly one root with id 0 and null parent "
                f"(found roots {sorted(roots)})"
            )
        for n, p in parent.items():
            if p is not None and p not in parent:
                problems.append(f"node {n}: parent {p} does not exist")
        if problems:
            raise TreeError(problems)

        children: dict[NodeId, list[NodeId]] = {n: [] for n in parent}
        for n, p in parent.items():
            if p is not None:
                children[p].append(n)
        for n in children:
            children[n].sort()

        depth: dict[NodeId, int] = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for n in frontier:
                for c in children[n]:
                    depth[c] = depth[n] + 1
                    nxt.append(c)
            frontier = nxt
        orphans = sorted(set(parent) - set(depth))
        for n in orphans:
            problems.append(f"node {n}: unreachable from the root")
        if problems:
            raise TreeError(problems)

        horizon = max(depth.values())
        leaves = sorted(n for n in parent if not children[n])
        for n in leaves:
            if depth[n] != horizon:
                problems.append(
                    f"node {n}: leaf at depth {depth[n]}, expected common depth {horizon}"
                )

        if cond.get(0) != 1:
            problems.append(f"node 0: root probability must be 1 (got {cond.get(0)})")
        for n, q in cond.items():
            if n != 0 and q.numerator <= 0:
                problems.append(f"node {n}: transition probability {q} is not positive")
        for n in parent:
            kids = children[n]
            if kids:
                num, den = _step_sum(cond, kids)
                if num != den:
                    problems.append(
                        f"node {n}: children probabilities sum to {Fraction(num, den)}, expected 1"
                    )

        if len(times) != horizon + 1:
            problems.append(
                f"times has {len(times)} entries, expected {horizon + 1} for depth {horizon}"
            )
        for a, b in zip(times, times[1:]):
            if not a < b:
                problems.append(f"times must be strictly increasing (got {a} before {b})")

        if problems:
            raise TreeError(problems)

        order = sorted(parent, key=lambda n: (depth[n], n))
        return EventTree(
            times=times,
            nodes=tuple(order),
            parent=dict(parent),
            children={n: tuple(children[n]) for n in parent},
            time_index=dict(depth),
            cond_prob=dict(cond),
            root=0,
            leaves=tuple(leaves),
            internal=tuple(n for n in order if children[n]),
            node_set=frozenset(parent),
        )


def _parent_problem(node, par) -> "str | None":
    """The one parent-id check of `EventTree.build` and `load_tree`: a
    parent is an int id or None.  A bool or a float (``True``, ``1.0``)
    would hash as node 1 and be written back as ``true`` or ``1.0``."""
    if par is not None and (not isinstance(par, int) or isinstance(par, bool)):
        return f"node {node!r}: parent must be an integer id or null, got {par!r}"
    return None


def load_tree(document: Mapping) -> EventTree:
    """Build a validated tree from a JSON-style document.

    Expected shape::

        {"times": ["0", "1/2", "1"],
         "nodes": [{"id": 0, "parent": null, "prob": "1", ...}, ...]}

    Rationals are "p/q" or integer strings.  Keys other than the tree
    structure (prices, cost levels) are ignored here.
    """
    problems: list[str] = []
    if not isinstance(document, Mapping):
        raise TreeError(["document must be a JSON object"])
    if "times" not in document:
        problems.append("missing 'times'")
    if "nodes" not in document:
        problems.append("missing 'nodes'")
    if problems:
        raise TreeError(problems)
    for key in ("times", "nodes"):
        if not isinstance(document[key], list):
            problems.append(f"'{key}' must be a list, got {type(document[key]).__name__}")
    if problems:
        raise TreeError(problems)

    read = rational_reader()
    times = []
    for i, t in enumerate(document["times"]):
        try:
            times.append(read(t))
        except ValueError as exc:
            problems.append(f"times[{i}]: {exc}")

    entries = []
    for i, spec in enumerate(document["nodes"]):
        if not is_mapping(spec) or "id" not in spec:
            problems.append(f"nodes[{i}]: each node needs at least an 'id'")
            continue
        node = spec["id"]
        par = spec.get("parent")
        if bad_parent := _parent_problem(node, par):
            problems.append(bad_parent)
            continue
        raw_prob = spec.get("prob", "1" if par is None else None)
        if raw_prob is None:
            problems.append(f"node {node}: missing 'prob'")
            continue
        try:
            prob = read(raw_prob)
        except ValueError as exc:
            problems.append(f"node {node}: {exc}")
            continue
        entries.append((node, par, prob))

    if problems:
        raise TreeError(problems)
    return EventTree.build(times, entries)


def ensure_adapted(tree: EventTree, process: AdaptedProcess, name: str = "process") -> None:
    """The package's one check of a per-node input: the process is defined
    on exactly this tree's nodes and every value is a Fraction or an int.
    Raises TreeError listing the nodes it misses and the nodes it has that
    the tree does not, or else each value that is neither."""
    problems = _adapted_problems(tree, process.values, name)
    if problems:
        raise TreeError(problems)


def ensure_node(tree: EventTree, node: NodeId) -> None:
    """The one check of a caller's node argument: an int id of this tree.
    A bool or a float is not an int here, though ``True`` and ``1.0`` find
    node 1 in a dict.  Raises TreeError naming the id."""
    if not isinstance(node, int) or isinstance(node, bool):
        raise TreeError([f"node must be an integer id, got {node!r}"])
    if node not in tree.node_set:
        raise TreeError([f"node {node}: not in tree"])


def _adapted_problems(
    tree: EventTree, values: Mapping[NodeId, object], name: str, partial: bool = False
) -> list[str]:
    """`ensure_adapted`'s problems as a list.  A ``partial`` input (a shadow
    price off the support) may miss nodes, but not hold unknown ones."""
    nodes = [n for n in tree.nodes if n in values] if partial else tree.nodes
    missing = [] if partial else [n for n in nodes if n not in values]
    problems = [f"{name} missing values at nodes {missing}"] if missing else []
    # the values at tree nodes number len(nodes) - len(missing): any more are unknown
    if len(values) + len(missing) != len(nodes):
        # ids of mixed types have no common order: ints first, then the rest by repr
        extra = sorted(
            (n for n in values if n not in tree.node_set),
            key=lambda n: (False, n) if isinstance(n, int) else (True, repr(n)),
        )
        problems.append(f"{name} has values at unknown nodes {extra}")
    return problems or _inexact(values, nodes, name)


def ensure_predictable(tree: EventTree, process: PredictableProcess, name: str = "process") -> None:
    """Check domain and the sibling-agreement constraint."""
    ensure_adapted(tree, AdaptedProcess(process.values), name)
    problems = []
    for n in tree.internal:
        kids = tree.children[n]
        first = process[kids[0]]
        for c in kids[1:]:
            if process[c] != first:
                problems.append(
                    f"{name} must agree across siblings under node {n} "
                    f"(node {kids[0]}: {first}, node {c}: {process[c]})"
                )
                break
    if problems:
        raise TreeError(problems)


def conditional_expectation(
    tree: EventTree,
    process: AdaptedProcess,
    density: "AdaptedProcess | None",
    node: NodeId,
    horizon: int,
) -> Fraction:
    """E[X_horizon | node] under the reference measure or a density tilt.

    With ``density`` = None this is the plain conditional expectation; with
    a density process Z (a nonnegative martingale with Z(root) = 1) it is
    the Bayes quotient E[Z_h X_h | node] / Z(node).  Raises NullEventError
    when Z(node) = 0, since the conditioning event is then null; TreeError
    when `ensure_adapted` refuses the process or the density, or the node
    is not an int id in the tree; and ValueError when the horizon is not an
    int in range.  A bool is not an int here.
    """
    ensure_adapted(tree, process, "process")
    if density is not None:
        ensure_adapted(tree, density, "density")
    ensure_node(tree, node)
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    start = tree.time_index[node]
    if horizon < start or horizon > tree.horizon:
        raise ValueError(
            f"horizon {horizon} out of range [{start}, {tree.horizon}] for node {node}"
        )
    if density is not None and density[node] == 0:
        raise NullEventError(node)

    weights = {node: Fraction(1)}
    for _ in range(horizon - start):
        nxt: dict[NodeId, Fraction] = {}
        for n, w in weights.items():
            for c in tree.children[n]:
                nxt[c] = w * tree.cond_prob[c]
        weights = nxt

    if density is None:
        total = sum(w * process[n] for n, w in weights.items())
        return Fraction(total)
    total = sum(w * density[n] * process[n] for n, w in weights.items())
    return Fraction(total) / density[node]


def density_problems(tree: EventTree, density: AdaptedProcess) -> list[str]:
    """Everything that keeps ``density`` from being a density process: a
    nonnegative martingale under the reference measure with Z(root) = 1.
    What `ensure_adapted` refuses (a node missed, a node the tree does not
    have, a value that is not a Fraction or an int) is listed alone; the
    martingale test reads Z's drift from `support_drift`."""
    z = density.values
    problems = _adapted_problems(tree, z, "density")
    if problems:
        return problems
    if z[tree.root] != 1:
        problems.append(f"node {tree.root}: density at root is {z[tree.root]}, expected 1")
    for n in tree.nodes:
        if z[n].numerator < 0:
            problems.append(f"node {n}: density {z[n]} is negative")
    for n, drift in support_drift(tree, density).items():
        if drift.numerator:
            problems.append(f"node {n}: density drift {drift} (martingale property fails)")
    return problems


def support_drift(
    tree: EventTree,
    process: AdaptedProcess,
    density: "AdaptedProcess | None" = None,
) -> dict[NodeId, Fraction]:
    """E[X_next | n] - X(n) at every internal node the measure charges:
    under the reference measure when ``density`` is None, else under the
    measure with that density (internal nodes where it vanishes are left
    out).

    This is the package's one drift formula: the martingale tests of a
    density, of a price system and of a supermartingale all read it.  A
    zero drift is the shared ``_ZERO``; a Fraction is built only for a
    nonzero one.
    """
    x, cond, children = process.values, tree.cond_prob, tree.children
    drift: dict[NodeId, Fraction] = {}
    if density is None:
        for n in tree.internal:
            # sum p_c x_c - x_n
            num, den = _step_sum(cond, children[n], x)
            xn, xd = x[n].as_integer_ratio()
            num = num * xd - xn * den
            drift[n] = Fraction(num, den * xd) if num else _ZERO
        return drift
    z = density.values
    for n in tree.internal:
        zn, zd = z[n].as_integer_ratio()
        if zn:
            # (sum p_c z_c x_c - z_n x_n) / z_n
            num, den = _step_sum(cond, children[n], x, z)
            xn, xd = x[n].as_integer_ratio()
            num = num * zd * xd - zn * xn * den
            drift[n] = Fraction(num, den * xd * zn) if num else _ZERO
    return drift


def one_step_drift(
    tree: EventTree,
    process: AdaptedProcess,
    density: "AdaptedProcess | None" = None,
) -> AdaptedProcess:
    """Per-node drift E[X_next | n] - X(n); zero at leaves.

    The process is a martingale under the (possibly tilted) measure exactly
    when the drift vanishes everywhere.  Raises NullEventError at internal
    nodes where the density vanishes, as in conditional_expectation, and
    TreeError when `ensure_adapted` refuses the process or the density.
    """
    ensure_adapted(tree, process, "process")
    if density is not None:
        ensure_adapted(tree, density, "density")
        for n in tree.internal:
            if density[n] == 0:
                raise NullEventError(n)
    drift = support_drift(tree, process, density)
    return AdaptedProcess({n: drift.get(n, _ZERO) for n in tree.nodes})
