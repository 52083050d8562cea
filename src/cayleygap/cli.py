"""Command-line interface.

Subcommands: spectrum, cheeger, subgroups, proof, verify, sweep. Exit code 0
means success (all checks passed), 1 means an inequality check failed on an
in-regime input (a potential counterexample), 2 means a usage or input error.
Identical invocations produce byte-identical output; every error path prints
one machine-parsable line to stderr.

Each subcommand registers only the flags it reads (see COMMANDS). Its
handler returns (exit code, JSON payload, CSV lines, text lines), and main
alone writes the format that --format chose.

main(argv) can be called repeatedly in-process: it returns the exit code
instead of exiting, and builds its parser once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from fractions import Fraction

from .cayley import CayleyGraph
from .cheeger import (
    MAX_DUAL_DEFAULT,
    MAX_EXACT_DEFAULT,
    dual_cheeger,
    edge_cheeger,
    vertex_cheeger,
)
from .errors import CapExceededError, CayleyGapError
from .proof import run_pipeline, zeta_max
from .spectral import is_bipartite_spectral, is_connected, spectrum
from .subgroups import index2_subgroups
from .verify import (
    CSV_HEADER,
    _fraction_dict,
    _json_text,
    build_graph,
    full_report,
    graph_dict,
    graph_label,
    report_csv_row,
    report_json_dict,
    report_text_lines,
    sweep,
    sweep_csv_lines,
    sweep_json_dict,
    sweep_text_lines,
    trace_json_dict,
)

Output = tuple[int, dict, list[str], list[str]]


def _positive_int(text: str) -> int:
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _parse_zeta(text: str) -> Fraction | None:
    """--zeta as an exact value in (0, 2], or None for auto. Handlers call it
    before any search, so a bad value costs one error line and nothing else."""
    if text == "auto":
        return None
    try:
        zeta = Fraction(text)
    except (ValueError, ZeroDivisionError):
        # Python 3.10's Fraction rejects digit separators; float accepts them
        # where they may sit, and the literal without them is then exact.
        try:
            float(text)
            zeta = Fraction(text.replace("_", ""))
        except ValueError as exc:
            raise ValueError(f"cannot parse zeta value {text!r}") from exc
    if not 0 < zeta <= 2:
        raise ValueError(f"zeta must lie in (0, 2], got {text}")
    if float(zeta) == 0.0:
        # The proof parameters are floats: beta_of_zeta would reject it later.
        raise ValueError(f"zeta {text} rounds to 0.0 as a float")
    return zeta


def _cmd_spectrum(graph: CayleyGraph, args: argparse.Namespace) -> Output:
    summary = spectrum(graph)
    connected = is_connected(summary)
    bipartite = is_bipartite_spectral(summary)
    name, gens = graph.group.name, graph.gens
    payload = graph_dict(name, gens, graph.n, graph.d) | {
        "spectrum": {"t": list(summary.t), "lambda": list(summary.lam)},
        "connected": connected,
        "bipartite_spectral": bipartite,
    }
    csv_lines = ["index,t,lambda"] + [
        f"{i},{t!r},{lam!r}" for i, (t, lam) in enumerate(zip(summary.t, summary.lam))
    ]
    text_lines = [
        f"graph: {graph_label(name, gens)}",
        f"n = {graph.n}, d = {graph.d}",
        "t      = " + ", ".join(f"{t:.12g}" for t in summary.t),
        "lambda = " + ", ".join(f"{lam:.12g}" for lam in summary.lam),
        f"connected = {connected}, bipartite (spectral) = {bipartite}",
    ]
    return 0, payload, csv_lines, text_lines


def _cmd_cheeger(graph: CayleyGraph, args: argparse.Namespace) -> Output:
    name, gens = graph.group.name, graph.gens
    payload = graph_dict(name, gens, graph.n, graph.d)
    csv_lines = ["quantity,value,witness"]
    text_lines = [f"graph: {graph_label(name, gens)}", f"n = {graph.n}, d = {graph.d}"]
    for key, fn, kwargs in (
        ("h", vertex_cheeger, {"max_exact": args.max_exact}),
        ("edge_h", edge_cheeger, {"max_exact": args.max_exact}),
        ("dual_h", dual_cheeger, {"max_dual": args.max_dual}),
    ):
        try:
            cert = fn(graph, **kwargs)
        except (CapExceededError, ValueError) as exc:
            # Over a cap, or n < 2: skipped with full_report's reason.
            reason = exc.reason if isinstance(exc, CapExceededError) else str(exc)
            payload[key] = None
            payload[f"{key}_reason"] = reason
            csv_lines.append(f"{key},,{reason}")
            text_lines.append(f"{key} skipped ({reason})")
            continue
        # The dual witness is the pair (V1, V2); the others are one set.
        witness = cert.witness_pair or cert.witness
        parts = cert.witness_pair or (cert.witness,)
        payload[key] = _fraction_dict(cert.value)
        payload[f"{key}_witness"] = witness
        csv_lines.append(f"{key},{cert.value},"
                         + " | ".join(" ".join(map(str, part)) for part in parts))
        text_lines.append(f"{key} = {cert.value}  witness = {witness}")
    return 0, payload, csv_lines, text_lines


def _cmd_subgroups(graph: CayleyGraph, args: argparse.Namespace) -> Output:
    name, gens = graph.group.name, graph.gens
    rows = [(c, set(gens).isdisjoint(c)) for c in index2_subgroups(graph.group)]
    bipartite = any(disjoint for _, disjoint in rows)
    payload = graph_dict(name, gens, graph.n, graph.d) | {
        "index2_subgroups": [
            {"elements": list(elems), "disjoint_from_s": disjoint}
            for elems, disjoint in rows
        ],
        "bipartite_structural": bipartite,
    }
    csv_lines = ["elements,disjoint_from_s"] + [
        f"{' '.join(map(str, elems))},{str(disjoint).lower()}"
        for elems, disjoint in rows
    ]
    text_lines = [
        f"graph: {graph_label(name, gens)}",
        f"index-2 subgroups: {len(rows)}",
        *(f"  {{{', '.join(map(str, elems))}}}  disjoint from S: {disjoint}"
          for elems, disjoint in rows),
        f"bipartite (structural) = {bipartite}",
    ]
    return 0, payload, csv_lines, text_lines


def _forced_zeta(graph: CayleyGraph, args: argparse.Namespace) -> Fraction | None:
    """--zeta, with a warning on stderr when it exceeds the in-regime ceiling."""
    zeta = _parse_zeta(args.zeta)
    if zeta is None:
        return None
    try:
        h = vertex_cheeger(graph, max_exact=args.max_exact).value
    except (CapExceededError, ValueError):
        # No h to compare with (over the cap, or n < 2); the report's rows
        # carry the reason.
        return zeta
    if h > 0 and zeta > (ceiling := zeta_max(h, graph.d)):
        print(
            f"warning: zeta = {float(zeta):.6g} exceeds the in-regime "
            f"ceiling {float(ceiling):.6g}; results are out of regime "
            f"(forced mode)",
            file=sys.stderr,
        )
    return zeta


def _trace_lines(t: dict) -> list[str]:
    lines = [
        f"eps = {t['eps']['num']}/{t['eps']['den']}, zeta = {t['zeta']:.6g}, "
        f"beta = {t['beta']:.6g}, z = {t['z']:.6g}, r = {t['r']:.6g}",
        f"in regime: candidate = {t['candidate_regime']}, subgroup = "
        f"{t['subgroup_regime']}, threshold = {t['threshold_regime']}",
        f"hypothesis met: {t['hypothesis_met']} (t_min = {t['t_min']:.9g}, "
        f"gap above -1 = {t['gap']:.6g})",
    ]
    if c := t["candidate"]:
        lines.append(
            f"candidate A = {{{', '.join(map(str, c['a_set']))}}}  "
            f"excess: identified = {c['identified_excess']}, "
            f"weighted = {c['weighted_excess']}, ratio ok = {c['ratio_ok']}")
    if p := t["properties"]:
        lines.append(
            f"half-set properties: size ok = {p['size_ok']}, "
            f"overlap ok = {p['overlap_ok']}, translates ok = {p['translate_ok']}")
    if di := t["dichotomy"]:
        lines.append(
            f"overlap dichotomy: valid = {di['valid']} "
            f"(low = {di['case_low_count']}, high = {di['case_high_count']}, "
            f"violations = {di['violations']})")
    if t["agreement_bounds_ok"] is not None:
        lines.append(f"agreement-set bounds ok = {t['agreement_bounds_ok']}")
    if s := t["subgroup"]:
        lines.append(
            f"H = {{{', '.join(map(str, s['elements']))}}}  "
            f"index = {s['index']}, index-2 subgroup = {s['is_index_two']}")
    if f := t["final"]:
        lines.append(
            f"S cap H = {{{', '.join(map(str, f['s_cap_h']))}}}  "
            f"disjoint = {f['disjoint']}, structural match = {f['structural_match']}")
        lines += [
            f"  conflict at t = {rec['t']}: |tA cap A| = {rec['count']}, "
            f"upper ok = {rec['upper_ok']}, lower ok = {rec['lower_ok']}"
            for rec in f["conflicts"]
        ]
    return lines + [f"failure: {t['failure']}", f"succeeded: {t['succeeded']}"]


def _cmd_proof(graph: CayleyGraph, args: argparse.Namespace) -> Output:
    zeta = _forced_zeta(graph, args)
    trace = run_pipeline(graph, zeta, max_exact=args.max_exact)
    code = int(trace.hypothesis_met and not trace.succeeded and not trace.out_of_regime)
    t = trace_json_dict(trace)
    name, gens = graph.group.name, graph.gens
    payload = graph_dict(name, gens, graph.n, graph.d) | {"proof_trace": t}
    # Each stage's verdict, or None when the pipeline stopped before it.
    stages = {
        "candidate": t["candidate"] and t["candidate"]["ratio_ok"],
        "properties": t["properties"] and all(t["properties"].values()),
        "dichotomy": t["dichotomy"] and t["dichotomy"]["valid"],
        "agreement_bounds": t["agreement_bounds_ok"],
        "subgroup": t["subgroup"] and t["subgroup"]["is_index_two"],
        "disjointness": t["final"] and t["final"]["disjoint"],
    }
    csv_lines = [
        "stage,status",
        f"hypothesis,{'met' if t['hypothesis_met'] else 'not_met'}",
        *(f"{stage},{'' if ok is None else 'ok' if ok else 'fail'}"
          for stage, ok in stages.items()),
        f"succeeded,{str(t['succeeded']).lower()}",
    ]
    return code, payload, csv_lines, [f"graph: {graph_label(name, gens)}", *_trace_lines(t)]


def _cmd_verify(graph: CayleyGraph, args: argparse.Namespace) -> Output:
    zeta = _forced_zeta(graph, args)
    report = full_report(
        graph, max_exact=args.max_exact, max_dual=args.max_dual, zeta=zeta,
    )
    return (0 if report.all_pass else 1, report_json_dict(report),
            [CSV_HEADER, report_csv_row(report)], report_text_lines(report))


def _cmd_sweep(specs: list[str], args: argparse.Namespace) -> Output:
    items = sweep(
        specs, max_exact=args.max_exact, max_dual=args.max_dual,
        zeta=_parse_zeta(args.zeta), workers=args.workers,
    )
    errors = [item for item in items if item.error is not None]
    for item in errors:
        print(f"error: {item.spec}: {item.error}", file=sys.stderr)
    any_fail = any(item.report is not None and not item.report.all_pass for item in items)
    code = 1 if any_fail else (2 if errors else 0)
    return (code, sweep_json_dict(items), sweep_csv_lines(items),
            sweep_text_lines(items))


FLAGS = {
    "--group": {"required": True,
                "help": "group spec, e.g. cyclic:6 or product:cyclic:2xcyclic:4"},
    "--gens": {"default": "auto",
               "help": "generator spec, e.g. 1,5 or ±1 (default: auto)"},
    "specs": {"nargs": "+", "help": "items like 'cyclic:3..16 gens=±1' "
                                    "(gens omitted = family default)"},
    "--workers": {"type": _positive_int, "default": 1,
                  "help": "parallel workers, at least 1; output is identical "
                          "for any worker count (default: 1)"},
    "--format": {"choices": ("json", "csv", "text"), "default": "text",
                 "help": "output format (default: text)"},
    "--max-exact": {"type": _positive_int, "default": MAX_EXACT_DEFAULT,
                    "help": "largest n for exact Cheeger search (default: 24)"},
    "--max-dual": {"type": _positive_int, "default": MAX_DUAL_DEFAULT,
                   "help": "largest n for exact dual-Cheeger search (default: 14)"},
    "--zeta": {"default": "auto",
               "help": "spectral proximity parameter; auto = largest "
                       "in-regime value (default: auto)"},
    "--out": {"default": None, "help": "write output to this path"},
}
_GRAPH = ("--group", "--gens", "--format")
_REPORT = ("--max-exact", "--max-dual", "--zeta")

# command: (help, handler, the flags it registers, in help order).
COMMANDS = {
    "spectrum": ("normalised adjacency and Laplacian spectrum", _cmd_spectrum,
                 (*_GRAPH, "--out")),
    "cheeger": ("exact vertex, edge, and dual Cheeger constants", _cmd_cheeger,
                (*_GRAPH, "--max-exact", "--max-dual", "--out")),
    "subgroups": ("index-2 subgroups and disjointness from the generators",
                  _cmd_subgroups, (*_GRAPH, "--out")),
    "proof": ("run the subgroup-extraction pipeline", _cmd_proof,
              (*_GRAPH, "--max-exact", "--zeta", "--out")),
    "verify": ("full per-graph verification report", _cmd_verify,
               (*_GRAPH, *_REPORT, "--out")),
    "sweep": ("verify a family of graphs", _cmd_sweep,
              ("specs", "--workers", "--format", *_REPORT, "--out")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every main call in
    the process. Nothing may mutate it; a caller that needs a fresh parser
    calls _build_parser.__wrapped__()."""
    parser = argparse.ArgumentParser(
        prog="cayleygap",
        description="Cayley graphs of finite groups: exact Cheeger constants, "
                    "normalised spectra, and bipartiteness certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **FLAGS[flag])
    return parser


def write_output(path: str, text: str) -> bool:
    """Write `text` to `path`; on failure print one error line and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code. JSON output is exactly
    json.dumps(payload, indent=2) and a newline, from verify's direct
    writer; CSV and text are the handler's lines."""
    parser = _build_parser()
    try:
        # A sweep's specs may also follow its flags: argparse takes a "+"
        # positional in one piece and leaves later items over.
        args, rest = parser.parse_known_args(argv)
        if args.command == "sweep" and not any(arg.startswith("-") for arg in rest):
            args.specs += rest
        elif rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Create --out before the run, so an unwritable path fails at once; a
    # run that fails after this leaves the file empty.
    if args.out and not write_output(args.out, ""):
        return 2
    try:
        subject = args.specs if args.command == "sweep" else build_graph(args.group, args.gens)
        code, payload, csv_lines, text_lines = COMMANDS[args.command][1](subject, args)
    except (CayleyGapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = _json_text(payload) + "\n"
    else:
        text = "\n".join(csv_lines if args.format == "csv" else text_lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
    elif not write_output(args.out, text):
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
