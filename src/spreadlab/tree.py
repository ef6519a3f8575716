"""Finite filtered probability spaces realized as rooted event trees.

A node is an atom of information at its depth: the root is time zero and
each child refines its parent by one period.  Randomness enters through
strictly positive one-step transition probabilities, so every node carries
positive mass under the reference measure and conditioning is always well
defined.  Time stamps are carried for reporting only; the mathematics runs
on integer depths.

Every quantity is a `fractions.Fraction`, every operation is a pure
function of immutable inputs, and no floating point appears anywhere in
the package core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .rationals import parse_rational, rational_reader

NodeId = int


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


def _total(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of a nonempty iterable, started at its first term."""
    values = iter(values)
    total = next(values)
    for v in values:
        total += v
    return total


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

        Raises TreeError listing every violation found, each tagged with
        the offending node id.
        """
        problems: list[str] = []
        entries = list(entries)

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
            parent[node] = par
            cond[node] = prob if isinstance(prob, Fraction) else Fraction(prob)

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
            if n != 0 and q <= 0:
                problems.append(f"node {n}: transition probability {q} is not positive")
        for n in parent:
            kids = children[n]
            if kids:
                total = _total(cond[c] for c in kids)
                if total != 1:
                    problems.append(
                        f"node {n}: children probabilities sum to {total}, expected 1"
                    )

        times = tuple(t if isinstance(t, Fraction) else Fraction(t) for t in times)
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
        if par is not None and (not isinstance(par, int) or isinstance(par, bool)):
            problems.append(f"node {node!r}: parent must be an integer id or null, got {par!r}")
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
    """Check that the process is defined on exactly this tree's nodes."""
    values = process.values
    missing = [n for n in tree.nodes if n not in values]
    extra = [n for n in values if n not in tree.node_set]
    problems = []
    if missing:
        problems.append(f"{name} missing values at nodes {missing}")
    if extra:
        problems.append(f"{name} has values at unknown nodes {sorted(extra)}")
    if problems:
        raise TreeError(problems)


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
    when Z(node) = 0, since the conditioning event is then null.
    """
    if node not in tree.node_set:
        raise TreeError([f"node {node}: not in tree"])
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


def one_step_mean(tree: EventTree, values: Mapping[NodeId, Fraction], node: NodeId) -> Fraction:
    """E[X_next | node] under the reference measure, at an internal node."""
    cond = tree.cond_prob
    return _total(cond[c] * values[c] for c in tree.children[node])


def density_problems(tree: EventTree, density: AdaptedProcess) -> list[str]:
    """Everything that keeps ``density`` from being a density process: a
    nonnegative martingale under the reference measure with Z(root) = 1."""
    z = density.values
    missing = [n for n in tree.nodes if n not in z]
    if missing:
        return [f"density missing at nodes {missing}"]
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


def support_drift(
    tree: EventTree,
    process: AdaptedProcess,
    density: "AdaptedProcess | None" = None,
) -> dict[NodeId, Fraction]:
    """E[X_next | n] - X(n) at every internal node the measure charges:
    under the reference measure when ``density`` is None, else under the
    measure with that density (internal nodes where it vanishes are left
    out)."""
    x = process.values
    if density is None:
        return {n: one_step_mean(tree, x, n) - x[n] for n in tree.internal}
    z = density.values
    mass = {n: z[n] * x[n] for n in tree.nodes}
    return {n: one_step_mean(tree, mass, n) / z[n] - x[n] for n in tree.internal if z[n]}


def one_step_drift(
    tree: EventTree,
    process: AdaptedProcess,
    density: "AdaptedProcess | None" = None,
) -> AdaptedProcess:
    """Per-node drift E[X_next | n] - X(n); zero at leaves.

    The process is a martingale under the (possibly tilted) measure exactly
    when the drift vanishes everywhere.  Raises NullEventError at internal
    nodes where the density vanishes, as in conditional_expectation.
    """
    if density is not None:
        for n in tree.internal:
            if density[n] == 0:
                raise NullEventError(n)
    drift = support_drift(tree, process, density)
    zero = Fraction(0)
    return AdaptedProcess({n: drift.get(n, zero) for n in tree.nodes})
