"""Command-line front end: decide, synthesize, export, verify, self-test.

Exit codes follow one convention across subcommands so shell scripts can
branch on them: 0 = positive outcome (SAT / all checks pass), 1 = negative
outcome (UNSAT / a check fails), 2 = usage or input error (bad formula,
unreadable file, malformed model or annotations, closure budget exceeded),
3 = internal error (any unexpected exception, including a broken synthesis
invariant, or a synthesized model that failed its own certification and was
never emitted).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .cgm import CGM, ModelFormatError
from .checker import CheckError, check_model
from .decomposition import DEFAULT_CLOSURE_LIMIT, dec
from .randgen import GenConfig, random_corpus
from .syntax import (
    TRUE,
    FormulaError,
    StateFormula,
    coalition_text,
    conj,
    default_universe,
    enf,
    mentioned_agents,
    parse,
    pnext,
    to_nnf,
    to_text,
)
from .synthesis import assemble, extract_cgm, validate_hintikka
from .tableau import Decision, decide, tableau_dot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


@dataclass
class Prepared:
    """A parsed input formula together with its solver-ready form."""

    raw: StateFormula
    normal: StateFormula
    universe: tuple[int, ...]


def _read_formula_arg(arg: str) -> str:
    """Formula arguments are inline text, or ``@path`` to read from a file."""
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as handle:
            return handle.read().strip()
    return arg


def prepare(text: str, extra_agents: int = 0) -> Prepared:
    """Parse, widen the agent universe if asked, and normalize.

    Each extra agent is both added to the universe and given the trivial
    ability ``<<a>>X true`` as a conjunct, so the enlarged game actually
    mentions every agent it is played over.
    """
    raw = parse(text)
    universe = default_universe(raw)
    widened = raw
    if extra_agents:
        base = max(universe) if universe else 0
        fresh = tuple(base + i + 1 for i in range(extra_agents))
        universe = tuple(universe) + fresh
        for agent in fresh:
            widened = conj(widened, enf((agent,), pnext(TRUE)))
    return Prepared(raw=raw, normal=to_nnf(widened, universe), universe=universe)


def _trace_lines(decision: Decision) -> list[str]:
    lines = []
    for number, batch in enumerate(decision.tableau.elimination_trace, start=1):
        unrealized = " ".join(f"D{i}" for i in batch["unrealized"]) or "-"
        stuck = " ".join(f"D{i}" for i in batch["stuck"]) or "-"
        lines.append(f"round {number}: unrealized {unrealized}; stuck {stuck}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args: argparse.Namespace) -> int:
    prepared = prepare(_read_formula_arg(args.formula), args.extra_agents)
    decision = decide(prepared.normal, prepared.universe, args.max_closure)
    print(f"formula: {to_text(prepared.raw)}")
    print(f"normal form: {to_text(prepared.normal)}")
    print(f"agents: {coalition_text(prepared.universe)}")
    print(
        f"pretableau: {decision.pretableau_state_count} states, "
        f"{decision.pretableau_prestate_count} prestates"
    )
    if args.trace:
        for line in _trace_lines(decision):
            print(line)
    print(f"final tableau: {decision.final_state_count} states")
    print(f"verdict: {'SAT' if decision.sat else 'UNSAT'}")
    return EXIT_OK if decision.sat else EXIT_NEGATIVE


def cmd_synth(args: argparse.Namespace) -> int:
    prepared = prepare(_read_formula_arg(args.formula), args.extra_agents)
    decision = decide(prepared.normal, prepared.universe, args.max_closure)
    if not decision.sat:
        print(
            f"UNSAT: {to_text(prepared.normal)} has no model; nothing to synthesize",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    structure = assemble(decision.tableau)
    model = extract_cgm(structure)
    violations = validate_hintikka(model, prepared.universe)
    report = check_model(model, prepared.normal, prepared.universe)
    if violations or not report.holds:
        for violation in violations:
            print(violation, file=sys.stderr)
        if not report.holds:
            print(f"oracle: {report.summary()}", file=sys.stderr)
        print(
            "internal error: synthesized model failed certification; not emitting it",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    text = model.to_json()
    if args.json_model:
        with open(args.json_model, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print("verdict: SAT", file=sys.stderr)
    print(f"model: {model.n_states} states, {model.agents} agents", file=sys.stderr)
    print("hintikka: pass (H1-H6)", file=sys.stderr)
    print(f"oracle: {report.summary()}", file=sys.stderr)
    if args.json_model:
        print(f"model written to {args.json_model}", file=sys.stderr)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    prepared = prepare(_read_formula_arg(args.formula), args.extra_agents)
    decision = decide(prepared.normal, prepared.universe, args.max_closure)
    sys.stdout.write(tableau_dot(decision.tableau, args.dot))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.model, "r", encoding="utf-8") as handle:
        model = CGM.from_json(handle.read())
    raw = None if args.formula is None else parse(_read_formula_arg(args.formula))
    # synth gives action positions to its agents in sorted order, whatever
    # their names: the k agents that the annotations and the formula name
    # are the model's, and 1..k stand in when they name another number.
    named = set() if raw is None else set(mentioned_agents(raw))
    for text in set().union(*(model.hintikka or {}).values()):
        named |= mentioned_agents(parse(text))
    k = model.agents
    universe = tuple(sorted(named)) if len(named) == k else tuple(range(1, k + 1))
    print(f"model: {model.n_states} states, {model.agents} agents")
    failed = False
    if model.hintikka is not None:
        violations = validate_hintikka(model, universe)
        if violations:
            failed = True
            for violation in violations:
                print(violation)
        else:
            print("hintikka: pass (H1-H6)")
    else:
        print("hintikka: no annotations; structural checks skipped")
    if raw is not None:
        report = check_model(model, to_nnf(raw, universe), universe)
        print(f"oracle: {report.summary()}")
        failed = failed or not report.holds
    return EXIT_NEGATIVE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Self-test golden corpus

_SAT_GOLDEN = "<<1>>(p U q | G q) & [[2]](F p & G ~q)"
_UNSAT_GOLDEN = "<<1>>(p U q | G q) & <<2>>(F p & G ~q)"
_VALIDITY_ANTECEDENT = "<<1>>F (p & <<1>>F q)"
_VALIDITY_CONSEQUENT = "<<1>>(F p & F q)"


def _demo_model() -> CGM:
    """Three-state, one-agent model: s0 -p-> s1 -q-> loops on s2."""
    return CGM.from_json_dict(
        {
            "agents": 1,
            "initial": "s0",
            "states": [
                {"id": "s0", "props": []},
                {"id": "s1", "props": ["p"]},
                {"id": "s2", "props": ["q"]},
            ],
            "actions": {"s0": [2], "s1": [2], "s2": [1]},
            "transitions": [
                {"from": "s0", "profile": [0], "to": "s0"},
                {"from": "s0", "profile": [1], "to": "s1"},
                {"from": "s1", "profile": [0], "to": "s1"},
                {"from": "s1", "profile": [1], "to": "s2"},
                {"from": "s2", "profile": [0], "to": "s2"},
            ],
        }
    )


def _selftest_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    unsat = decide(prepare(_UNSAT_GOLDEN).normal, (1, 2))
    checks.append(("closed golden input is UNSAT", not unsat.sat))
    checks.append(
        (
            "closed golden input: 11 pretableau states, 7 prestates, 6 final",
            (
                unsat.pretableau_state_count,
                unsat.pretableau_prestate_count,
                unsat.final_state_count,
            )
            == (11, 7, 6),
        )
    )

    sat = decide(prepare(_SAT_GOLDEN).normal, (1, 2))
    checks.append(("open golden input is SAT", sat.sat))
    checks.append(
        (
            "open golden input: elimination removes nothing (8 states)",
            sat.pretableau_state_count == 8 and sat.final_state_count == 8,
        )
    )

    model = extract_cgm(assemble(sat.tableau))
    labels = sorted(",".join(sorted(p)) for p in model.props)
    checks.append(
        (
            "synthesized model has the frozen 7-state label multiset",
            model.n_states == 7
            and labels == ["", "", "p", "p", "p,q", "p,q", "q"],
        )
    )
    checks.append(
        (
            "synthesized model passes structural validation",
            validate_hintikka(model, (1, 2)) == [],
        )
    )
    checks.append(
        (
            "oracle certifies the synthesized model",
            check_model(model, sat.formula, (1, 2)).holds,
        )
    )

    normal = prepare(_SAT_GOLDEN).normal
    left, right = normal.operands
    left_pairs = dec(left.path)
    right_pairs = dec(right.path)
    checks.append(
        (
            "path decomposition of the golden operands yields 4 and 2 pairs",
            len(left_pairs) == 4 and len(right_pairs) == 2,
        )
    )

    validity = prepare(f"~({_VALIDITY_ANTECEDENT} -> {_VALIDITY_CONSEQUENT})")
    checks.append(
        (
            "negated distribution validity is UNSAT",
            not decide(validity.normal, validity.universe).sat,
        )
    )
    demo = _demo_model()
    checks.append(
        (
            "oracle: antecedent and consequent both hold on the demo model",
            check_model(demo, to_nnf(parse(_VALIDITY_ANTECEDENT))).holds
            and check_model(demo, to_nnf(parse(_VALIDITY_CONSEQUENT))).holds,
        )
    )
    return checks


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    checks = _selftest_checks()
    for description, passed in checks:
        if passed:
            print(f"ok - {description}")
        else:
            failures += 1
            print(f"FAIL - {description}")
    if args.seed is not None:
        rng_corpus = random_corpus(args.seed, 20, GenConfig())
        sat_count = unsat_count = certified = 0
        for f in rng_corpus:
            prepared = prepare(to_text(f))
            decision = decide(prepared.normal, prepared.universe)
            if decision.sat:
                sat_count += 1
                model = extract_cgm(assemble(decision.tableau))
                ok = (
                    validate_hintikka(model, prepared.universe) == []
                    and check_model(model, prepared.normal, prepared.universe).holds
                )
                certified += ok
                if not ok:
                    failures += 1
                    print(f"FAIL - uncertified model for {to_text(f)}")
            else:
                unsat_count += 1
        print(
            f"ok - random round (seed {args.seed}): "
            f"{sat_count} sat all certified, {unsat_count} unsat"
            if certified == sat_count
            else f"FAIL - random round (seed {args.seed})"
        )
    total = len(checks) + (1 if args.seed is not None else 0)
    print(f"selftest: {total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlplus",
        description="Tableau-based satisfiability and model synthesis for ATL+.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {text}")
        return int(text)

    def positive(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be positive: {text}")
        return int(text)

    def add_formula_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("formula", help="formula text, or @path to a file")
        p.add_argument(
            "--extra-agents",
            type=count,
            default=0,
            metavar="N",
            help="widen the agent universe by N fresh agents",
        )
        p.add_argument(
            "--max-closure",
            type=positive,
            default=DEFAULT_CLOSURE_LIMIT,
            metavar="N",
            help="abort if the formula closure exceeds N entries",
        )

    p_check = sub.add_parser("check", help="decide satisfiability")
    add_formula_options(p_check)
    p_check.add_argument(
        "--trace", action="store_true", help="print per-round elimination batches"
    )
    p_check.set_defaults(handler=cmd_check)

    p_synth = sub.add_parser(
        "synth", help="decide and synthesize a certified model (JSON)"
    )
    add_formula_options(p_synth)
    p_synth.add_argument(
        "--json-model",
        metavar="PATH",
        help="write the model JSON here instead of stdout",
    )
    p_synth.set_defaults(handler=cmd_synth)

    p_export = sub.add_parser("export", help="emit a construction phase as DOT")
    add_formula_options(p_export)
    p_export.add_argument(
        "--dot",
        choices=("pretableau", "initial", "final"),
        default="final",
        metavar="PHASE",
        help="which phase to render: pretableau, initial, or final",
    )
    p_export.set_defaults(handler=cmd_export)

    p_verify = sub.add_parser("verify", help="validate a stored model JSON")
    p_verify.add_argument("model", help="path to a model JSON file")
    p_verify.add_argument(
        "formula",
        nargs="?",
        default=None,
        help="optional formula to certify at the initial state",
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_selftest = sub.add_parser("selftest", help="run the golden corpus")
    p_selftest.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="additionally run a seeded random round",
    )
    p_selftest.set_defaults(handler=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        FormulaError,
        ModelFormatError,
        CheckError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        # FormulaError covers ClosureLimitError, the closure budget;
        # UnicodeDecodeError a formula or model file that is not UTF-8.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as a verdict
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
