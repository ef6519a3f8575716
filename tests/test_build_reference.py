"""`EventTree.build` against `linear_reference.build_tree`, the builder
written out pass by pass: on valid rows the same tree, field for field;
on broken rows the same `TreeError.problems`, message for message and in
the same order.  Rows come in any order, children before their parents
included, and each kind of broken row is tried alone and, under
hypothesis, with others."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadlab import EventTree, TreeError

import linear_reference

FIELDS = ("times", "nodes", "parent", "children", "time_index", "cond_prob", "leaves", "internal", "node_set")
# the children probabilities of one node
SPLITS = (("1",), ("1/2", "1/2"), ("1/3", "2/3"), ("1/4", "1/2", "1/4"))
FAR = 10**6  # an id no generated tree uses


def tree_rows(rng, depth, splits=SPLITS):
    """Times and rows of a valid tree ``depth`` periods deep, each node's
    children split by one of ``splits``; ids are shuffled labels and the
    rows are in breadth-first order."""
    rows, level = [(0, None, "1")], [0]
    for _ in range(depth):
        below = []
        for p in level:
            for q in rng.choice(splits):
                below.append(len(rows))
                rows.append((len(rows), p, q))
        level = below
    label = [0, *rng.sample(range(1, 2 * len(rows)), len(rows) - 1)]
    rows = [(label[n], None if p is None else label[p], q) for n, p, q in rows]
    return [f"{t}/2" for t in range(depth + 1)], rows


def _set(rng, rows, field, values, root=False):
    """Put one of ``values`` in ``field`` (0 id, 1 parent, 2 probability)
    of a row of id 0, or of a random row of another id."""
    i = rng.choice([i for i, row in enumerate(rows) if (row[0] == 0) == root] or range(len(rows)))
    row = list(rows[i])
    row[field] = rng.choice(values)
    rows[i] = tuple(row)


def _duplicate(rng, times, rows):
    rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))


def _duplicate_after_refused_parent(rng, times, rows):
    i = rng.randrange(len(rows))
    node, _, prob = rows[i]
    rows[i] = (node, True, prob)
    rows.insert(rng.randrange(i + 1, len(rows) + 1), (node, 0, prob))


def _cycle(rng, times, rows):
    k = rng.randrange(len(rows) + 1)
    rows[k:k] = [(FAR + 2, FAR + 3, "1"), (FAR + 3, FAR + 2, "1")]


def _ragged(rng, times, rows):
    parents = {p for _, p, _ in rows}
    leaf = rng.choice([n for n, _, _ in rows if n not in parents])
    rows.insert(rng.randrange(len(rows) + 1), (FAR + 4, leaf, "1"))


def _pruned(rng, times, rows):
    """Drop the rows below one inner node, which becomes a leaf."""
    parents = [p for _, p, _ in rows if p not in (None, 0)]
    if parents:
        cut = {rng.choice(parents)}
        for _ in rows:  # one more generation each time round
            cut |= {n for n, p, _ in rows if p in cut and type(p) is int}
        rows[:] = [row for row in rows if row[1] not in cut or type(row[1]) is not int]


def _few_times(rng, times, rows):
    del times[-1:]


def _flat_times(rng, times, rows):
    if len(times) > 1:
        k = rng.randrange(1, len(times))
        times[k] = times[k - 1]


# each kind of broken rows, with a text its problems must contain
MUTATIONS = {
    "duplicate id": (_duplicate, "duplicate id"),
    "duplicate of a row refused for its parent": (_duplicate_after_refused_parent, "duplicate id"),
    "bool id": (lambda rng, times, rows: _set(rng, rows, 0, [True, False]), "ids must be nonnegative integers"),
    "float id": (lambda rng, times, rows: _set(rng, rows, 0, [1.0, 2.5]), "ids must be nonnegative integers"),
    "negative id": (lambda rng, times, rows: _set(rng, rows, 0, [-1, -7]), "ids must be nonnegative integers"),
    "bool parent": (lambda rng, times, rows: _set(rng, rows, 1, [True, False]), "parent must be an integer id"),
    "float parent": (lambda rng, times, rows: _set(rng, rows, 1, [0.0, 1.0]), "parent must be an integer id"),
    "parent with no row": (lambda rng, times, rows: _set(rng, rows, 1, [FAR]), f"parent {FAR} does not exist"),
    "second root": (lambda rng, times, rows: _set(rng, rows, 1, [None]), "exactly one root"),
    "nonzero root": (lambda rng, times, rows: _set(rng, rows, 0, [FAR + 1], root=True), "exactly one root"),
    "two-node cycle": (_cycle, "unreachable from the root"),
    "ragged leaves": (_ragged, "leaf at depth"),
    "pruned subtree": (_pruned, "leaf at depth"),
    "zero probability": (lambda rng, times, rows: _set(rng, rows, 2, ["0", 0]), "is not positive"),
    "negative probability": (lambda rng, times, rows: _set(rng, rows, 2, ["-1/3", -1]), "is not positive"),
    "unparseable probability": (
        lambda rng, times, rows: _set(rng, rows, 2, ["1/0", "abc", 0.5, True]), "malformed rational"
    ),
    "sibling sum": (lambda rng, times, rows: _set(rng, rows, 2, ["1/5", "2"]), "children probabilities sum to"),
    "root probability": (lambda rng, times, rows: _set(rng, rows, 2, ["1/2", "2"], root=True), "root probability"),
    "too few times": (_few_times, "times has"),
    "times not increasing": (_flat_times, "strictly increasing"),
}


def check(times, rows):
    """The package's builder gives what the reference gives; returns that."""
    expected = linear_reference.build_tree(times, rows)
    if isinstance(expected, list):
        with pytest.raises(TreeError) as caught:
            EventTree.build(times, rows)
        assert caught.value.problems == expected
    else:
        tree = EventTree.build(times, rows)
        assert {name: getattr(tree, name) for name in FIELDS} == expected
        assert tree.root == 0
    return expected


@pytest.mark.parametrize("order", ["breadth-first", "children before parents", "shuffled"])
def test_valid_rows_in_any_order(order):
    rng = random.Random(order)
    for depth in (1, 2, 3):
        times, rows = tree_rows(rng, depth)
        if order == "children before parents":
            rows.reverse()
        elif order == "shuffled":
            rng.shuffle(rows)
        assert isinstance(check(times, rows), dict)


@pytest.mark.parametrize("times, rows", [
    (["0"], [(0, None, "1")]), (["0"], []), ([], [(0, None, "1")]),
], ids=["root-only", "no-rows", "no-times"])
def test_smallest_inputs(times, rows):
    check(times, rows)


def test_shuffled_binomial_tree_of_2047_nodes():
    rng = random.Random(2047)
    times, rows = tree_rows(rng, 10, [("1/2", "1/2"), ("1/3", "2/3"), ("3/4", "1/4")])
    rng.shuffle(rows)
    assert len(check(times, rows)["nodes"]) == 2047


@pytest.mark.parametrize("times, rows, first", [
    # the root problem, then each missing parent in row order
    (["0", "1"], [(5, None, "1"), (1, 7, "1"), (2, 6, "1")], "tree must have"),
    # leaves off the final depth by id, not by depth: 9 at depth 1, 4 at depth 2
    (
        ["0", "1", "2", "3"],
        [(0, None, "1"), (9, 0, "1/2"), (1, 0, "1/2"), (2, 1, "1/2"), (4, 1, "1/2"), (3, 2, "1")],
        "node 4: leaf",
    ),
    # probabilities not positive and sums not 1, each in row order: 2 before 1
    (["0", "1", "2"], [(0, None, "1"), (2, 0, "0"), (1, 0, "-1"), (3, 2, "1/3"), (4, 1, "1/3")], "node 2: transition"),
], ids=["parents", "leaves", "probabilities"])
def test_problem_order_is_kept(times, rows, first):
    problems = check(times, rows)
    assert len(problems) >= 2 and problems[0].startswith(first), problems


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_each_broken_row_kind(name):
    rng = random.Random(name)
    times, rows = tree_rows(rng, 2)
    rng.shuffle(rows)
    mutate, text = MUTATIONS[name]
    mutate(rng, times, rows)
    problems = check(times, rows)
    assert isinstance(problems, list) and any(text in p for p in problems), problems


@given(
    st.randoms(use_true_random=False),
    st.integers(1, 3),
    st.sampled_from(["breadth-first", "children before parents", "shuffled"]),
    st.lists(st.sampled_from(list(MUTATIONS)), max_size=3),
)
def test_builder_matches_reference(rng, depth, order, mutations):
    times, rows = tree_rows(rng, depth)
    if order == "children before parents":
        rows.reverse()
    elif order == "shuffled":
        rng.shuffle(rows)
    for name in mutations:
        MUTATIONS[name][0](rng, times, rows)
    check(times, rows)
