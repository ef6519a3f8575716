"""Command-line front end: file-based input, JSON reports, exit codes.

Exit code convention, applied uniformly:
  0  success / the checked statement holds
  1  conclusion violated (a witness is in the report)
  2  input or validation error
  3  infeasible / hypothesis unmet

Rationals cross this boundary as "p/q" strings.  Machine reports never
contain floats; ``--decimal`` adds approximate values to the terminal
summary only.  A report file holds exactly ``json.dumps(report, indent=2)``
and a newline; its runs of scalar values go through the C encoder, and a
long per-node map is written slice by slice, so the whole text is never
held at once.

`run_command` holds the cyclic garbage collector off while a command
runs.  Every ``Fraction`` is tracked by it, so each collection walks the
values a command has built, and a full one walks every value loaded; a
command makes no reference cycle, so these walks free nothing.  The
caller's setting is restored on every exit.  ``TestCollectorHold`` in
``tests/test_cli.py`` checks both: no command leaves a cycle, and the
setting comes back.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import gc
import json
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import counterexamples
from .cps import (
    ABSOLUTELY_CONTINUOUS,
    DEFAULT_EPSILON,
    EQUIVALENT,
    CpsQuery,
    _threshold,
    cps_to_doc,
    find_cps,
    load_cps,
)
from .market import load_market, market_to_doc
from .rationals import ascii_int, format_map, format_rational, node_keys, parse_rational
from .strategy import check_self_financing, load_strategy, strategy_to_doc
from .theorems import _ossm, check_admissibility_theorem, shadow_decomposition
from .tree import InputError
from .valuation import NUMERAIRE_BASED, NUMERAIRE_FREE, admissibility_bound

EPSILON_ENV = "SPREADLAB_EPSILON"

# the flags that name a file a command reads
_INPUT_FLAGS = ("market", "strategy", "cps")
# the files counterexample writes into --out-dir, beside its report
_COUNTEREXAMPLE_FILES = ("market.json", "strategy.json", "cps.json")
# the flags only one counterexample variant reads, by argparse dest
_VARIANT_FLAGS = {
    counterexamples.DETERMINISTIC: {"steps": "--steps"},
    counterexamples.STOCHASTIC: {
        "witness_fee": "--lambda-prime", "up_price": "--m-tilde", "literal_sale": "--literal-sale",
    },
}

# six significant digits over the whole exponent range, for values past a float's
_APPROX = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    report_path: "str | None"
    human_summary: str


# a handler's exit code, report and summary lines; run_command writes the report
_Outcome = tuple[int, dict, list]


def _unique_keys(pairs: list) -> dict:
    """json.load's object hook: a key given twice is an error, not a merge."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} given twice")
            seen.add(key)
    return doc


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON (not UTF-8: {exc})")
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror or exc})")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})")
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON (nested too deeply)")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


# items per C-encoder call: a longer container is written a slice at a time
_SLICE = 1024
_NESTED = (dict, list, tuple)
# a slice whose values are all of these exact types is one encoder call
_SCALARS = {str, int, bool, float, type(None)}


@functools.cache  # one per nesting depth a report reaches
def _encoder(indent: str) -> json.JSONEncoder:
    """A C encoder whose item separator is the newline and indent that
    indent=2 puts between items at ``indent``."""
    return json.JSONEncoder(separators=(",\n" + indent, ": "))


def _body(encoder: json.JSONEncoder, run: dict, is_dict: bool) -> str:
    """The items of ``run`` as ``encoder`` writes them, between the brackets;
    a list's run is keyed by position."""
    return encoder.encode(run if is_dict else list(run.values()))[1:-1]


def _key(encoder: json.JSONEncoder, key) -> str:
    """A key as json writes it: a string is encoded alone, without the
    C encoder's set-up; any other key is cut from a one-item object."""
    if type(key) is str:
        return encoder.encode(key)
    return json.dumps({key: 0})[1:-len(": 0}")]


def _slices(container, is_dict: bool):
    """The container itself if it fits in one slice, else its slices."""
    if len(container) <= _SLICE:
        yield container
        return
    items = iter(container.items() if is_dict else container)
    while part := (dict if is_dict else list)(islice(items, _SLICE)):
        yield part


def _emit(container, outer: str, parts: list, write) -> None:
    """Append to ``parts`` the text ``json.dumps(..., indent=2)`` gives a
    dict, list or tuple nested at the indent ``outer``.

    The items go a slice at a time.  A slice of plain scalars, the common
    case, is one C-encoder call; otherwise each run of scalars between
    nested values is, empty containers counting as scalars.  After each
    full slice, ``parts`` goes to ``write`` and is cleared.
    """
    is_dict = isinstance(container, dict)
    if not container:
        parts.append("{}" if is_dict else "[]")
        return
    inner = outer + "  "
    encoder, sep = _encoder(inner), ",\n" + inner
    parts.append(("{\n" if is_dict else "[\n") + inner)
    lead = ""
    for part in _slices(container, is_dict):
        if _SCALARS.issuperset(map(type, part.values() if is_dict else part)):
            parts.append(lead + encoder.encode(part)[1:-1])
            lead = sep
        else:
            run: dict = {}
            for key, value in part.items() if is_dict else enumerate(part):
                if not (isinstance(value, _NESTED) and value):
                    run[key] = value
                    continue
                if run:
                    parts.append(lead + _body(encoder, run, is_dict))
                    lead, run = sep, {}
                if is_dict:
                    lead += _key(encoder, key) + ": "
                parts.append(lead)
                _emit(value, inner, parts, write)
                lead = sep
            if run:
                parts.append(lead + _body(encoder, run, is_dict))
                lead = sep
        if len(part) == _SLICE:
            write("".join(parts))
            parts.clear()
    parts.append("\n" + outer + ("}" if is_dict else "]"))


def _write_report(path: str, doc: dict) -> str:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``path``."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            parts: list = []
            _emit(doc, "", parts, handle.write)
            parts.append("\n")
            handle.write("".join(parts))
    except OSError as exc:
        raise ValueError(f"{path}: cannot write report ({exc.strerror or exc})")
    return path


def _fmt(value: Fraction, show_decimal: bool) -> str:
    text = format_rational(value)
    if show_decimal and value.denominator != 1:
        try:
            approx = f"{float(value):.6g}"
        except OverflowError:
            quotient = _APPROX.divide(value.numerator, value.denominator)
            approx = f"{quotient.normalize(_APPROX):g}"
        return f"{text} (~{approx})"
    return text


def _cmd_validate(args) -> _Outcome:
    report: dict = {"market_file": args.market, "market_ok": False}
    lines = []
    market = None
    try:
        market = load_market(_load_json(args.market))
        report["market_ok"] = True
        lines.append(f"market {args.market}: ok")
    except InputError as exc:
        report["market_problems"] = exc.problems
        lines.append(f"market {args.market}: INVALID")
        lines.extend(f"  {p}" for p in exc.problems)

    if args.strategy is not None:
        report["strategy_file"] = args.strategy
        report["strategy_ok"] = False
        if market is None:
            report["strategy_problems"] = ["market failed to load"]
            lines.append(f"strategy {args.strategy}: skipped (market failed to load)")
        else:
            try:
                load_strategy(_load_json(args.strategy), market.tree)
                report["strategy_ok"] = True
                lines.append(f"strategy {args.strategy}: ok")
            except InputError as exc:
                report["strategy_problems"] = exc.problems
                lines.append(f"strategy {args.strategy}: INVALID")
                lines.extend(f"  {p}" for p in exc.problems)

    ok = report["market_ok"] and report.get("strategy_ok", True)
    return 0 if ok else 2, report, lines


def _cmd_check_strategy(args) -> _Outcome:
    market = load_market(_load_json(args.market))
    strategy = load_strategy(_load_json(args.strategy), market.tree)
    mode = NUMERAIRE_FREE if args.mode == "nf" else NUMERAIRE_BASED
    sf = check_self_financing(market, strategy)
    adm = admissibility_bound(market, strategy, mode)
    keys = node_keys(market.tree.nodes)
    report = {
        "self_financing": sf.ok,
        "slack_violations": list(sf.violations),
        "slack": format_map(sf.slack.values, keys),
        "mode": mode,
        "minimal_bound": format_rational(adm.minimal_bound),
        "worst_node": adm.worst_node,
        "per_node_requirement": format_map(adm.per_node.values, keys),
    }
    overdrawn = f"NO (bond overdrawn at nodes {list(sf.violations)})"
    lines = [
        f"self-financing: {'yes' if sf.ok else overdrawn}",
        f"admissibility ({mode}): minimal bound {_fmt(adm.minimal_bound, args.decimal)}"
        f" binding at node {adm.worst_node}",
    ]
    return 0 if sf.ok else 1, report, lines


def _cmd_find_cps(args) -> _Outcome:
    market = load_market(_load_json(args.market))
    ac = args.measure == ABSOLUTELY_CONTINUOUS
    query = CpsQuery(args.fee, Fraction(0) if ac else DEFAULT_EPSILON, args.measure)
    result = find_cps(market, query)
    if result.feasible:
        # an equivalent system reports the floor it clears: its minimum leaf density
        epsilon = Fraction(0) if ac else result.min_leaf_density
        report = cps_to_doc(result.cps, epsilon)
        report["feasible"] = True
        lines = [
            f"feasible: consistent price system at lambda' = {_fmt(query.fee, args.decimal)}"
            f" (epsilon = {_fmt(epsilon, args.decimal)}, mode {query.mode})"
        ]
        off_support = [n for n in market.tree.nodes if n not in result.cps.shadow_price]
        if off_support:
            report["off_support"] = off_support
            lines.append(f"off support: nodes {off_support}")
        return 0, report, lines
    cert = result.infeasibility
    used = zip(cert.constraints, cert.certificate.multipliers)
    report = {
        "feasible": False,
        "lambda_prime": format_rational(query.fee),
        "epsilon": format_rational(query.epsilon),
        "certificate": {
            "multipliers": {con.label: format_rational(mu) for con, mu in used},
            "verified": cert.verify(),
        },
    }
    lines = [
        f"infeasible: no consistent price system at lambda' = {_fmt(query.fee, args.decimal)}"
        f" (epsilon = {_fmt(query.epsilon, args.decimal)}, mode {query.mode})",
        f"certificate verified: {report['certificate']['verified']}",
    ]
    return 3, report, lines


def _cmd_cps_threshold(args) -> _Outcome:
    market = load_market(_load_json(args.market))
    threshold, attained = _threshold(market, args.measure == EQUIVALENT)
    report = {"threshold": format_rational(threshold), "attained": attained, "mode": args.measure}
    if attained:
        line = f"smallest feasible cost level: {_fmt(threshold, args.decimal)}"
    else:
        line = f"infimum of feasible cost levels: {_fmt(threshold, args.decimal)} (not attained)"
    return 0, report, [line]


def _cmd_decompose(args) -> _Outcome:
    market = load_market(_load_json(args.market))
    strategy = load_strategy(_load_json(args.strategy), market.tree)
    cps, _ = load_cps(_load_json(args.cps), market.tree)
    # shadow_decomposition has verified cps.density, self-financing, the system
    # at the market's level and a cost that never rises, so the value covers
    # every node and its drift under the system's measure, E_Q[dC], is <= 0
    decomposition = shadow_decomposition(market, strategy, cps)
    ossm = _ossm(market.tree, decomposition.value, cps.density)
    if not ossm.ok:
        n, d = ossm.violations[0]
        raise RuntimeError(f"node {n}: marked value has positive drift {d} under the system's measure")
    keys = node_keys(market.tree.nodes)
    report = {
        "value": format_map(decomposition.value.values, keys),
        "cost": format_map(decomposition.cost.values, keys),
        "transform": format_map(decomposition.transform.values, keys),
        "supermartingale": True,
        "drift_violations": {},
        "martingale": format_map(ossm.decomposition.martingale.values, keys),
        "compensator": format_map(ossm.decomposition.compensator.values, keys),
    }
    leaf_costs = [decomposition.cost[leaf] for leaf in market.tree.leaves]
    lines = [
        f"marked value at root: {_fmt(decomposition.value[market.tree.root], args.decimal)}; "
        f"cumulative cost over leaves in "
        f"[{_fmt(min(leaf_costs), args.decimal)}, {_fmt(max(leaf_costs), args.decimal)}]",
        "supermartingale under the system's measure: True",
    ]
    return 0, report, lines


def _cmd_theorem(args) -> _Outcome:
    market = load_market(_load_json(args.market))
    strategy = load_strategy(_load_json(args.strategy), market.tree)
    mode = NUMERAIRE_FREE if args.numeraire_free else NUMERAIRE_BASED
    verdict = check_admissibility_theorem(market, strategy, args.x, mode=mode, measure=args.measure)
    report = {
        "holds": verdict.holds,
        "x": format_rational(verdict.x),
        "mode": verdict.mode,
        "hypothesis_ok": verdict.hypothesis_ok,
        "hypothesis_failures": list(verdict.hypothesis_failures),
        "cps_levels": [
            {"lambda_prime": format_rational(lv), "feasible": ok}
            for lv, ok in verdict.cps_levels
        ],
        "admissibility_bound": format_rational(verdict.admissibility_bound),
        "witness": None,
    }
    lines = [f"node-wise bound -x = {_fmt(-verdict.x, args.decimal)}: {'holds' if verdict.holds else 'VIOLATED'}"]
    if verdict.witness is not None:
        report["witness"] = {
            "node": verdict.witness.node,
            "classification": verdict.witness.classification,
            "value": format_rational(verdict.witness.value),
        }
        lines.append(
            f"witness: node {verdict.witness.node} ({verdict.witness.classification}),"
            f" value {_fmt(verdict.witness.value, args.decimal)}"
        )
    if not verdict.hypothesis_ok:
        lines.append("hypothesis unmet:")
        lines.extend(f"  {msg}" for msg in verdict.hypothesis_failures)
    if not verdict.holds:
        return 1, report, lines
    return 0 if verdict.hypothesis_ok else 3, report, lines


def _cmd_counterexample(args) -> _Outcome:
    stray = [
        flag for variant, flags in _VARIANT_FLAGS.items() if variant != args.variant
        for dest, flag in flags.items() if hasattr(args, dest)
    ]
    if stray:
        raise ValueError(f"--variant {args.variant} takes no {', '.join(stray)}")
    # the generator's own defaults fill the flags not given
    options = {dest: getattr(args, dest) for dest in _VARIANT_FLAGS[args.variant] if hasattr(args, dest)}
    if args.variant == counterexamples.DETERMINISTIC:
        report = counterexamples.deterministic_counterexample(args.fee, **options)
    else:
        report = counterexamples.stochastic_counterexample(args.fee, **options)
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{out}: cannot create output directory ({exc.strerror or exc})")
    docs = (
        market_to_doc(report.market),
        strategy_to_doc(report.strategy),
        cps_to_doc(report.cps_witness, DEFAULT_EPSILON),
    )
    written = [_write_report(str(out / name), doc) for name, doc in zip(_COUNTEREXAMPLE_FILES, docs)]
    if args.report is None:  # the default report sits beside the files it describes
        args.report = str(out / "report.json")
    lines = [
        f"{args.variant} instance at lambda = {_fmt(report.fee, args.decimal)}: "
        f"terminal bound {_fmt(report.expected_terminal_bound, args.decimal)}, "
        f"dip value {_fmt(report.expected_midtime_value, args.decimal)}"
        f" at node {report.midtime_node}",
        f"wrote {', '.join(written)}",
    ]
    return 0, counterexamples.report_to_doc(report), lines


def _stat(path: str) -> "os.stat_result | None":
    try:
        return os.stat(path)
    except (OSError, ValueError):  # absent, unreadable, or a NUL in the path
        return None


def _refuse_report_clash(args) -> None:
    """Refuse a ``--report`` path that names a file the command reads, or
    one that ``counterexample`` writes, before anything is written.

    An input is read, so it exists: the report clashes with it when both
    stat as one file, whatever the spelling, link or hard link.  The files
    ``counterexample`` writes may not exist yet, so their resolved paths
    are compared.  Nor may a ``counterexample`` report be a directory,
    the ``--out-dir`` one or another: its files would be written before
    the report failed."""
    if args.report is None:  # counterexample's default: report.json in --out-dir
        return
    report = _stat(args.report)
    if report is not None:
        for dest in _INPUT_FLAGS:
            path = getattr(args, dest, None)
            read = None if path is None else _stat(path)
            if read is not None and os.path.samestat(report, read):
                raise ValueError(f"--report {args.report} is the --{dest} file {path}, which the report would overwrite")
    if args.command == "counterexample":
        target = os.path.realpath(args.report)
        if target == os.path.realpath(args.out_dir):
            raise ValueError(f"--report {args.report} is the --out-dir directory {args.out_dir}, not a file")
        if os.path.isdir(target):  # resolved first: "cx/../d" names d before cx exists
            raise ValueError(f"--report {args.report} is a directory, not a file")
        for name in _COUNTEREXAMPLE_FILES:
            path = os.path.join(args.out_dir, name)
            if os.path.realpath(path) == target:
                raise ValueError(f"--report {args.report} is the generated file {path}, which the report would overwrite")


def _rational_flag(text: str) -> Fraction:
    """``parse_rational`` for a flag: argparse keeps only this error type's message."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_flag(text: str) -> int:
    """``ascii_int`` for a flag, refused in the words argparse uses for ``int``."""
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, whose sections let go of the formatter
    and of their items once written.  A section lists its subsections'
    bound methods, each subsection points back at it, and each section at
    the formatter: cycles that only the garbage collector frees, and
    `run_command` holds it off."""

    class _Section(argparse.HelpFormatter._Section):
        def format_help(self):
            text = super().format_help()
            self.formatter, self.items = None, []
            return text


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, reported like bad input, instead of
    exiting.  Subparsers are of this class, so they share its formatter."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadlab",
        description="Exact laboratory for markets quoted with proportional transaction costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, name: str, handler) -> None:
        p.add_argument("--report", default=f"{name}-report.json", help="report file path")
        p.add_argument(
            "--decimal", action="store_true", help="add approximate values to the summary"
        )
        p.set_defaults(handler=handler)

    def measure_class(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ac", dest="measure", action="store_const", const=ABSOLUTELY_CONTINUOUS,
                       default=EQUIVALENT,
                       help="absolutely continuous mode: allow the measure to die out")

    p = sub.add_parser("validate", help="validate a market file (and optionally a strategy)")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy")
    common(p, "validate", _cmd_validate)

    p = sub.add_parser("check-strategy", help="self-financing and admissibility report")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--mode", choices=("nb", "nf"), default="nb",
                   help="admissibility notion: numeraire-based or numeraire-free")
    common(p, "check-strategy", _cmd_check_strategy)

    p = sub.add_parser("find-cps", help="search for a consistent price system")
    p.add_argument("--market", required=True)
    p.add_argument("--lambda", dest="fee", type=_rational_flag, required=True,
                   help="cost level lambda' to certify")
    measure_class(p)
    common(p, "find-cps", _cmd_find_cps)

    p = sub.add_parser("cps-threshold", help="exact smallest feasible cost level")
    p.add_argument("--market", required=True)
    measure_class(p)
    common(p, "cps-threshold", _cmd_cps_threshold)

    p = sub.add_parser("decompose", help="marked-value decomposition under a price system")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--cps", required=True)
    common(p, "decompose", _cmd_decompose)

    p = sub.add_parser("theorem", help="does the terminal bound propagate node-wise?")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--x", type=_rational_flag, required=True, help="terminal bound is -x")
    p.add_argument("--numeraire-free", action="store_true",
                   help="report the numeraire-free admissibility bound")
    measure_class(p)
    common(p, "theorem", _cmd_theorem)

    p = sub.add_parser("counterexample", help="generate a bound-propagation failure")
    p.add_argument("--variant", choices=(counterexamples.DETERMINISTIC, counterexamples.STOCHASTIC),
                   required=True)
    p.add_argument("--lambda", dest="fee", type=_rational_flag, default=Fraction(1, 2),
                   help="market cost level (default 1/2)")
    # a variant's own flags are absent unless given, so the other variant can refuse them
    p.add_argument("--lambda-prime", dest="witness_fee", type=_rational_flag, default=argparse.SUPPRESS,
                   help="witness system level (stochastic variant only; default 1/4)")
    p.add_argument("--m-tilde", dest="up_price", type=_rational_flag, default=argparse.SUPPRESS,
                   help="jump size of the fair bet (stochastic variant only; default 4)")
    p.add_argument("--steps", type=_int_flag, default=argparse.SUPPRESS,
                   help="grid steps (deterministic variant only; default 2)")
    p.add_argument("--literal-sale", action="store_true", default=argparse.SUPPRESS,
                   help="stochastic variant only: price the up-branch sale at 1 - lambda' "
                        "(breaks self-financing; for comparison only; default off)")
    p.add_argument("--out-dir", default="counterexample-out",
                   help="directory of the generated files (default counterexample-out)")
    common(p, "counterexample", _cmd_counterexample)
    p.set_defaults(report=None)  # the handler puts it at <out-dir>/report.json

    return parser


_PARSER = _build_parser()


def run_command(argv) -> CommandResult:
    """Run one command and write its report; a ValueError exits 2 with its reason.

    The cyclic garbage collector is held off while the command runs and
    restored to the caller's setting on every exit, a raised error or
    ``--help`` included.  A command builds no reference cycle, so the
    collector would free nothing: it would only walk the Fractions the
    command holds, all of them in each full collection.  Its memory is
    freed by reference counting as before.  The collector is process-wide,
    so a cycle another thread makes waits for it until the command
    returns.  ``tests/test_cli.py::TestCollectorHold`` pins both halves:
    each command leaves no cycle, and the caller's setting comes back.
    """
    collecting = gc.isenabled()
    gc.disable()
    path = None
    try:
        args = _PARSER.parse_args(argv)
        # a script that still sets it fails loudly instead of silently getting the equivalent mode
        if EPSILON_ENV in os.environ:
            raise ValueError(f"{EPSILON_ENV} is set, but no command reads it: unset it,"
                             " and pass --ac for the absolutely continuous mode")
        _refuse_report_clash(args)
        code, report, lines = args.handler(args)
        path = _write_report(args.report, report)
        summary = "\n".join([*lines, f"report: {path}"])
    except SystemExit as exc:  # --help, after printing the help text
        code, summary = exc.code, ""
    except ValueError as exc:
        code, summary = 2, f"error: {exc}"
        # a frame the error passed may hold an exception it caught, whose
        # traceback holds that frame (Python 3.10's argparse keeps one)
        traceback.clear_frames(exc.__traceback__)
    finally:
        if collecting:
            gc.enable()
    return CommandResult(code, path, summary)


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.human_summary:
        print(result.human_summary)
    return result.exit_code
