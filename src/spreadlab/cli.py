"""Command-line front end: file-based input, JSON reports, exit codes.

Exit code convention, applied uniformly:
  0  success / the checked statement holds
  1  conclusion violated (a witness is in the report)
  2  input or validation error
  3  infeasible / hypothesis unmet

Rationals cross this boundary as "p/q" strings.  Machine reports never
contain floats; ``--decimal`` adds approximate values to the terminal
summary only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
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
from .rationals import format_rational, parse_rational
from .strategy import check_self_financing, load_strategy, strategy_to_doc
from .theorems import check_admissibility_theorem, check_ossm, shadow_decomposition
from .tree import InputError
from .valuation import NUMERAIRE_BASED, NUMERAIRE_FREE, admissibility_bound

EPSILON_ENV = "SPREADLAB_EPSILON"


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    report_path: "str | None"
    human_summary: str


def _default_epsilon() -> Fraction:
    raw = os.environ.get(EPSILON_ENV)
    if raw is None:
        return DEFAULT_EPSILON
    try:
        value = parse_rational(raw)
    except ValueError as exc:
        raise ValueError(f"{EPSILON_ENV}: {exc}") from exc
    if value < 0:
        raise ValueError(f"{EPSILON_ENV} must be nonnegative, got {value}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})")


def _write_report(path: str, doc: dict) -> str:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return path


def _fmt(value: Fraction, decimal: bool) -> str:
    text = format_rational(value)
    if decimal and value.denominator != 1:
        return f"{text} (~{float(value):.6g})"
    return text


def _rational_map(values) -> dict:
    items = values.items() if hasattr(values, "items") else values.values.items()
    return {str(k): format_rational(v) for k, v in sorted(items)}


def _cmd_validate(args) -> CommandResult:
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
    path = _write_report(args.report, report)
    lines.append(f"report: {path}")
    return CommandResult(0 if ok else 2, path, "\n".join(lines))


def _cmd_check_strategy(args) -> CommandResult:
    market = load_market(_load_json(args.market))
    strategy = load_strategy(_load_json(args.strategy), market.tree)
    mode = NUMERAIRE_FREE if args.mode == "nf" else NUMERAIRE_BASED
    sf = check_self_financing(market, strategy)
    adm = admissibility_bound(market, strategy, mode)
    report = {
        "self_financing": sf.ok,
        "slack_violations": list(sf.violations),
        "slack": _rational_map(sf.slack),
        "mode": mode,
        "minimal_bound": format_rational(adm.minimal_bound),
        "worst_node": adm.worst_node,
        "per_node_requirement": _rational_map(adm.per_node),
    }
    path = _write_report(args.report, report)
    lines = []
    if sf.ok:
        lines.append("self-financing: yes")
    else:
        lines.append(f"self-financing: NO (bond overdrawn at nodes {list(sf.violations)})")
    lines.append(
        f"admissibility ({mode}): minimal bound {_fmt(adm.minimal_bound, args.decimal)}"
        f" binding at node {adm.worst_node}"
    )
    lines.append(f"report: {path}")
    return CommandResult(0 if sf.ok else 1, path, "\n".join(lines))


def _cmd_find_cps(args) -> CommandResult:
    market = load_market(_load_json(args.market))
    mode = ABSOLUTELY_CONTINUOUS if args.ac else EQUIVALENT
    query = CpsQuery(args.fee, Fraction(0) if args.ac else DEFAULT_EPSILON, mode)
    result = find_cps(market, query)
    if result.feasible:
        # an equivalent system reports the floor it clears: its minimum leaf density
        epsilon = Fraction(0) if args.ac else min(result.cps.density[leaf] for leaf in market.tree.leaves)
        report = cps_to_doc(result.cps, epsilon)
        report["feasible"] = True
        report["Y"] = _rational_map(result.price_mass)
        if result.cps.off_support:
            report["off_support"] = list(result.cps.off_support)
        path = _write_report(args.report, report)
        lines = [
            f"feasible: consistent price system at lambda' = {_fmt(query.fee, args.decimal)}"
            f" (epsilon = {_fmt(epsilon, args.decimal)}, mode {mode})"
        ]
        if result.cps.off_support:
            lines.append(f"off support: nodes {list(result.cps.off_support)}")
        lines.append(f"report: {path}")
        return CommandResult(0, path, "\n".join(lines))
    cert = result.infeasibility
    report = {
        "feasible": False,
        "lambda_prime": format_rational(query.fee),
        "epsilon": format_rational(query.epsilon),
        "certificate": {
            "constraints": [c.label for c in cert.constraints],
            "multipliers": [format_rational(m) for m in cert.certificate.multipliers],
            "verified": cert.verify(),
        },
    }
    path = _write_report(args.report, report)
    summary = (
        f"infeasible: no consistent price system at lambda' = {_fmt(query.fee, args.decimal)}"
        f" (epsilon = {_fmt(query.epsilon, args.decimal)}, mode {mode})\n"
        f"certificate verified: {report['certificate']['verified']}\n"
        f"report: {path}"
    )
    return CommandResult(3, path, summary)


def _cmd_cps_threshold(args) -> CommandResult:
    market = load_market(_load_json(args.market))
    epsilon = _default_epsilon()
    threshold, attained = _threshold(market, epsilon > 0)
    report = {
        "threshold": format_rational(threshold),
        "attained": attained,
        "epsilon": format_rational(epsilon),
    }
    path = _write_report(args.report, report)
    if attained:
        line = f"smallest feasible cost level: {_fmt(threshold, args.decimal)}"
    else:
        line = f"infimum of feasible cost levels: {_fmt(threshold, args.decimal)} (not attained)"
    summary = f"{line}\nreport: {path}"
    return CommandResult(0, path, summary)


def _cmd_decompose(args) -> CommandResult:
    market = load_market(_load_json(args.market))
    strategy = load_strategy(_load_json(args.strategy), market.tree)
    cps, _ = load_cps(_load_json(args.cps), market.tree)
    decomposition = shadow_decomposition(market, strategy, cps)
    ossm = check_ossm(market.tree, decomposition.value, cps.density)
    report = {
        "value": _rational_map(decomposition.value),
        "cost": _rational_map(decomposition.cost),
        "transform": _rational_map(decomposition.transform),
        "supermartingale": ossm.ok,
        "drift_violations": {str(n): format_rational(d) for n, d in ossm.violations},
    }
    if ossm.ok:
        report["martingale"] = _rational_map(ossm.decomposition.martingale)
        report["compensator"] = _rational_map(ossm.decomposition.compensator)
    path = _write_report(args.report, report)
    root = market.tree.root
    leaves = market.tree.leaves
    summary = (
        f"marked value at root: {_fmt(decomposition.value[root], args.decimal)}; "
        f"cumulative cost over leaves in "
        f"[{_fmt(min(decomposition.cost[l] for l in leaves), args.decimal)}, "
        f"{_fmt(max(decomposition.cost[l] for l in leaves), args.decimal)}]\n"
        f"supermartingale under the system's measure: {ossm.ok}\n"
        f"report: {path}"
    )
    return CommandResult(0, path, summary)


def _cmd_theorem(args) -> CommandResult:
    market = load_market(_load_json(args.market))
    strategy = load_strategy(_load_json(args.strategy), market.tree)
    mode = NUMERAIRE_FREE if args.numeraire_free else NUMERAIRE_BASED
    verdict = check_admissibility_theorem(
        market, strategy, args.x, mode=mode, epsilon=_default_epsilon()
    )
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
    path = _write_report(args.report, report)
    lines.append(f"report: {path}")
    if not verdict.holds:
        code = 1
    elif not verdict.hypothesis_ok:
        code = 3
    else:
        code = 0
    return CommandResult(code, path, "\n".join(lines))


def _cmd_counterexample(args) -> CommandResult:
    if args.variant == counterexamples.DETERMINISTIC:
        report = counterexamples.deterministic_counterexample(args.fee, args.steps)
    else:
        report = counterexamples.stochastic_counterexample(
            args.fee,
            args.witness_fee,
            args.up_price,
            literal_sale=args.literal_sale,
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    market_path = _write_report(str(out / "market.json"), market_to_doc(report.market))
    strategy_path = _write_report(
        str(out / "strategy.json"), strategy_to_doc(report.market.tree, report.strategy)
    )
    cps_path = _write_report(
        str(out / "cps.json"), cps_to_doc(report.cps_witness, DEFAULT_EPSILON)
    )
    report_path = _write_report(str(out / "report.json"), counterexamples.report_to_doc(report))
    summary = (
        f"{args.variant} instance at lambda = {_fmt(report.fee, args.decimal)}: "
        f"terminal bound {_fmt(report.expected_terminal_bound, args.decimal)}, "
        f"dip value {_fmt(report.expected_midtime_value, args.decimal)}"
        f" at node {report.midtime_node}\n"
        f"wrote {market_path}, {strategy_path}, {cps_path}, {report_path}"
    )
    return CommandResult(0, str(report_path), summary)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadlab",
        description="Exact laboratory for markets quoted with proportional transaction costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, name: str) -> None:
        p.add_argument("--report", default=f"{name}-report.json", help="report file path")
        p.add_argument(
            "--decimal", action="store_true", help="add approximate values to the summary"
        )

    p = sub.add_parser("validate", help="validate a market file (and optionally a strategy)")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy")
    common(p, "validate")

    p = sub.add_parser("check-strategy", help="self-financing and admissibility report")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--mode", choices=("nb", "nf"), default="nb",
                   help="admissibility notion: numeraire-based or numeraire-free")
    common(p, "check-strategy")

    p = sub.add_parser("find-cps", help="search for a consistent price system")
    p.add_argument("--market", required=True)
    p.add_argument("--lambda", dest="fee", type=parse_rational, required=True,
                   help="cost level lambda' to certify")
    p.add_argument("--ac", action="store_true",
                   help="absolutely continuous mode: allow the measure to die out")
    common(p, "find-cps")

    p = sub.add_parser("cps-threshold", help="exact smallest feasible cost level")
    p.add_argument("--market", required=True)
    common(p, "cps-threshold")

    p = sub.add_parser("decompose", help="marked-value decomposition under a price system")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--cps", required=True)
    common(p, "decompose")

    p = sub.add_parser("theorem", help="does the terminal bound propagate node-wise?")
    p.add_argument("--market", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--x", type=parse_rational, required=True, help="terminal bound is -x")
    p.add_argument("--numeraire-free", action="store_true",
                   help="report the numeraire-free admissibility bound")
    common(p, "theorem")

    p = sub.add_parser("counterexample", help="generate a bound-propagation failure")
    p.add_argument("--variant", choices=(counterexamples.DETERMINISTIC, counterexamples.STOCHASTIC),
                   required=True)
    p.add_argument("--lambda", dest="fee", type=parse_rational, default=Fraction(1, 2),
                   help="market cost level (default 1/2)")
    p.add_argument("--lambda-prime", dest="witness_fee", type=parse_rational,
                   default=Fraction(1, 4), help="witness system level (stochastic variant)")
    p.add_argument("--m-tilde", dest="up_price", type=parse_rational, default=Fraction(4),
                   help="jump size of the fair bet (stochastic variant)")
    p.add_argument("--steps", type=int, default=2, help="grid steps (deterministic variant)")
    p.add_argument("--literal-sale", action="store_true",
                   help="stochastic variant: price the up-branch sale at 1 - lambda' "
                        "(breaks self-financing; for comparison only)")
    p.add_argument("--out-dir", default="counterexample-out")
    common(p, "counterexample")

    return parser


_PARSER = _build_parser()

_HANDLERS = {
    "validate": _cmd_validate,
    "check-strategy": _cmd_check_strategy,
    "find-cps": _cmd_find_cps,
    "cps-threshold": _cmd_cps_threshold,
    "decompose": _cmd_decompose,
    "theorem": _cmd_theorem,
    "counterexample": _cmd_counterexample,
}


def run_command(argv) -> CommandResult:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, None, "")
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        return CommandResult(2, None, f"error: {exc}")


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.human_summary:
        print(result.human_summary)
    return result.exit_code
