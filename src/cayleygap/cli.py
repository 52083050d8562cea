"""Command-line interface.

Subcommands: spectrum, cheeger, subgroups, proof, verify, sweep. Exit code 0
means success (all checks passed), 1 means an inequality check failed on an
in-regime input (a potential counterexample), 2 means a usage or input error.
Identical invocations produce byte-identical output; every error path prints
one machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cayley import CayleyGraph, parse_generators
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
    DEFAULT_TOL,
    _fraction_dict,
    build_graph,
    full_report,
    report_to_csv,
    report_to_json,
    report_to_text,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_text,
    trace_json_dict,
)


def _common_flags(sub: argparse.ArgumentParser, *, group_required: bool) -> None:
    if group_required:
        sub.add_argument("--group", required=True,
                         help="group spec, e.g. cyclic:6 or product:cyclic:2xcyclic:4")
        sub.add_argument("--gens", default="auto",
                         help="generator spec, e.g. 1,5 or ±1 (default: auto)")
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="text", help="output format (default: text)")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="tolerance for float comparisons (default: 1e-9)")
    sub.add_argument("--max-exact", type=int, default=MAX_EXACT_DEFAULT,
                     help="largest n for exact Cheeger search (default: 24)")
    sub.add_argument("--max-dual", type=int, default=MAX_DUAL_DEFAULT,
                     help="largest n for exact dual-Cheeger search (default: 14)")
    sub.add_argument("--zeta", default="auto",
                     help="spectral proximity parameter; auto = largest "
                          "in-regime value (default: auto)")
    sub.add_argument("--out", default=None, help="write output to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleygap",
        description="Cayley graphs of finite groups: exact Cheeger constants, "
                    "normalised spectra, and bipartiteness certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "normalised adjacency and Laplacian spectrum"),
        ("cheeger", "exact vertex, edge, and dual Cheeger constants"),
        ("subgroups", "index-2 subgroups and disjointness from the generators"),
        ("proof", "run the subgroup-extraction pipeline"),
        ("verify", "full per-graph verification report"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _common_flags(sub, group_required=True)
    sw = subs.add_parser("sweep", help="verify a family of graphs")
    sw.add_argument("specs", nargs="+",
                    help="items like 'cyclic:3..16 gens=±1' "
                         "(gens omitted = family default)")
    sw.add_argument("--workers", type=int, default=1,
                    help="parallel workers; output is identical for any "
                         "worker count (default: 1)")
    _common_flags(sw, group_required=False)
    return parser


def _parse_zeta(text: str) -> Fraction | None:
    if text == "auto":
        return None
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return Fraction(float(text))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"cannot parse zeta value {text!r}") from exc


def _graph_header(graph: CayleyGraph) -> dict:
    return {
        "schema_version": 1,
        "group": graph.group.name,
        "gens": list(graph.gens.elements),
        "n": graph.n,
        "d": graph.d,
    }


def _cmd_spectrum(graph: CayleyGraph, args: argparse.Namespace) -> tuple[str, int]:
    summary = spectrum(graph)
    connected = is_connected(summary, args.tol)
    bipartite = is_bipartite_spectral(summary, args.tol)
    if args.format == "json":
        payload = _graph_header(graph)
        payload["spectrum"] = {"t": list(summary.t), "lambda": list(summary.lam)}
        payload["connected"] = connected
        payload["bipartite_spectral"] = bipartite
        return json.dumps(payload, indent=2) + "\n", 0
    if args.format == "csv":
        lines = ["index,t,lambda"]
        lines += [f"{i},{t!r},{lam!r}"
                  for i, (t, lam) in enumerate(zip(summary.t, summary.lam))]
        return "\n".join(lines) + "\n", 0
    lines = [
        f"graph: {graph.group.name} gens={','.join(map(str, graph.gens.elements))}",
        f"n = {graph.n}, d = {graph.d}",
        "t      = " + ", ".join(f"{t:.12g}" for t in summary.t),
        "lambda = " + ", ".join(f"{lam:.12g}" for lam in summary.lam),
        f"connected = {connected}, bipartite (spectral) = {bipartite}",
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_cheeger(graph: CayleyGraph, args: argparse.Namespace) -> tuple[str, int]:
    results: dict[str, tuple] = {}
    skips: dict[str, str] = {}
    for key, fn, kwargs in (
        ("h", vertex_cheeger, {"max_exact": args.max_exact}),
        ("edge_h", edge_cheeger, {"max_exact": args.max_exact}),
        ("dual_h", dual_cheeger, {"max_dual": args.max_dual}),
    ):
        try:
            cert = fn(graph, **kwargs)
            witness = cert.witness_pair if cert.witness_pair else cert.witness
            results[key] = (cert.value, witness)
        except CapExceededError as exc:
            skips[key] = exc.reason
    if args.format == "json":
        payload = _graph_header(graph)
        for key in ("h", "edge_h", "dual_h"):
            if key in results:
                value, witness = results[key]
                payload[key] = _fraction_dict(value)
                payload[f"{key}_witness"] = (
                    [list(part) for part in witness]
                    if witness and isinstance(witness[0], tuple)
                    else list(witness)
                )
            else:
                payload[key] = None
                payload[f"{key}_reason"] = skips[key]
        return json.dumps(payload, indent=2) + "\n", 0
    if args.format == "csv":
        lines = ["quantity,value,witness"]
        for key in ("h", "edge_h", "dual_h"):
            if key in results:
                value, witness = results[key]
                if witness and isinstance(witness[0], tuple):
                    wtext = " | ".join(" ".join(map(str, part)) for part in witness)
                else:
                    wtext = " ".join(map(str, witness))
                lines.append(f"{key},{value},{wtext}")
            else:
                lines.append(f"{key},,{skips[key]}")
        return "\n".join(lines) + "\n", 0
    lines = [
        f"graph: {graph.group.name} gens={','.join(map(str, graph.gens.elements))}",
        f"n = {graph.n}, d = {graph.d}",
    ]
    for key in ("h", "edge_h", "dual_h"):
        if key in results:
            value, witness = results[key]
            lines.append(f"{key} = {value}  witness = {witness}")
        else:
            lines.append(f"{key} skipped ({skips[key]})")
    return "\n".join(lines) + "\n", 0


def _cmd_subgroups(graph: CayleyGraph, args: argparse.Namespace) -> tuple[str, int]:
    certs = index2_subgroups(graph.group)
    gen_set = set(graph.gens.elements)
    rows = [
        (cert.elements, not gen_set.intersection(cert.elements))
        for cert in certs
    ]
    bipartite = any(disjoint for _, disjoint in rows)
    if args.format == "json":
        payload = _graph_header(graph)
        payload["index2_subgroups"] = [
            {"elements": list(elems), "disjoint_from_s": disjoint}
            for elems, disjoint in rows
        ]
        payload["bipartite_structural"] = bipartite
        return json.dumps(payload, indent=2) + "\n", 0
    if args.format == "csv":
        lines = ["elements,disjoint_from_s"]
        lines += [
            f"{' '.join(map(str, elems))},{'true' if disjoint else 'false'}"
            for elems, disjoint in rows
        ]
        return "\n".join(lines) + "\n", 0
    lines = [
        f"graph: {graph.group.name} gens={','.join(map(str, graph.gens.elements))}",
        f"index-2 subgroups: {len(rows)}",
    ]
    for elems, disjoint in rows:
        lines.append(f"  {{{', '.join(map(str, elems))}}}"
                     f"  disjoint from S: {disjoint}")
    lines.append(f"bipartite (structural) = {bipartite}")
    return "\n".join(lines) + "\n", 0


def _forced_banner(graph: CayleyGraph, zeta: Fraction | None, max_exact: int) -> None:
    if zeta is None:
        return
    try:
        h = vertex_cheeger(graph, max_exact=max_exact).value
    except CapExceededError:
        # No h to compare with; the report's rows carry the cap reason.
        return
    if h > 0:
        ceiling = zeta_max(h, graph.d)
        if zeta > ceiling:
            print(
                f"warning: zeta = {float(zeta):.6g} exceeds the in-regime "
                f"ceiling {float(ceiling):.6g}; results are out of regime "
                f"(forced mode)",
                file=sys.stderr,
            )


def _trace_text(trace_dict: dict) -> str:
    lines = [
        f"eps = {trace_dict['eps']['num']}/{trace_dict['eps']['den']}, "
        f"zeta = {trace_dict['zeta']:.6g}, beta = {trace_dict['beta']:.6g}, "
        f"z = {trace_dict['z']:.6g}, r = {trace_dict['r']:.6g}",
        f"in regime: candidate = {trace_dict['candidate_regime']}, "
        f"subgroup = {trace_dict['subgroup_regime']}, "
        f"threshold = {trace_dict['threshold_regime']}",
        f"hypothesis met: {trace_dict['hypothesis_met']} "
        f"(t_min = {trace_dict['t_min']:.9g}, gap above -1 = "
        f"{trace_dict['gap']:.6g})",
    ]
    if trace_dict["candidate"]:
        c = trace_dict["candidate"]
        lines.append(
            f"candidate A = {{{', '.join(map(str, c['a_set']))}}}  "
            f"excess: identified = {c['identified_excess']}, "
            f"weighted = {c['weighted_excess']}, ratio ok = {c['ratio_ok']}"
        )
    if trace_dict["properties"]:
        p = trace_dict["properties"]
        lines.append(
            f"half-set properties: size ok = {p['size_ok']}, "
            f"overlap ok = {p['overlap_ok']}, translates ok = {p['translate_ok']}"
        )
    if trace_dict["dichotomy"]:
        di = trace_dict["dichotomy"]
        lines.append(
            f"overlap dichotomy: valid = {di['valid']} "
            f"(low = {di['case_low_count']}, high = {di['case_high_count']}, "
            f"violations = {di['violations']})"
        )
    if trace_dict["agreement_bounds_ok"] is not None:
        lines.append(f"agreement-set bounds ok = {trace_dict['agreement_bounds_ok']}")
    if trace_dict["subgroup"]:
        s = trace_dict["subgroup"]
        lines.append(
            f"H = {{{', '.join(map(str, s['elements']))}}}  "
            f"index = {s['index']}, index-2 subgroup = {s['is_index_two']}"
        )
    if trace_dict["final"]:
        f = trace_dict["final"]
        lines.append(
            f"S cap H = {{{', '.join(map(str, f['s_cap_h']))}}}  "
            f"disjoint = {f['disjoint']}, structural match = "
            f"{f['structural_match']}"
        )
        for rec in f["conflicts"]:
            lines.append(
                f"  conflict at t = {rec['t']}: |tA cap A| = {rec['count']}, "
                f"upper ok = {rec['upper_ok']}, lower ok = {rec['lower_ok']}"
            )
    lines.append(f"failure: {trace_dict['failure']}")
    lines.append(f"succeeded: {trace_dict['succeeded']}")
    return "\n".join(lines) + "\n"


def _cmd_proof(graph: CayleyGraph, args: argparse.Namespace) -> tuple[str, int]:
    zeta = _parse_zeta(args.zeta)
    _forced_banner(graph, zeta, args.max_exact)
    trace = run_pipeline(graph, zeta, max_exact=args.max_exact)
    trace_dict = trace_json_dict(trace)
    if trace.hypothesis_met and not trace.succeeded and not trace.out_of_regime:
        code = 1
    else:
        code = 0
    if args.format == "json":
        payload = _graph_header(graph)
        payload["proof_trace"] = trace_dict
        return json.dumps(payload, indent=2) + "\n", code
    if args.format == "csv":
        stage_status = [
            ("hypothesis", "met" if trace_dict["hypothesis_met"] else "not_met"),
            ("candidate", "" if not trace_dict["candidate"]
             else ("ok" if trace_dict["candidate"]["ratio_ok"] else "fail")),
            ("properties", "" if not trace_dict["properties"]
             else ("ok" if all(trace_dict["properties"].values()) else "fail")),
            ("dichotomy", "" if not trace_dict["dichotomy"]
             else ("ok" if trace_dict["dichotomy"]["valid"] else "fail")),
            ("agreement_bounds", "" if trace_dict["agreement_bounds_ok"] is None
             else ("ok" if trace_dict["agreement_bounds_ok"] else "fail")),
            ("subgroup", "" if not trace_dict["subgroup"]
             else ("ok" if trace_dict["subgroup"]["is_index_two"] else "fail")),
            ("disjointness", "" if not trace_dict["final"]
             else ("ok" if trace_dict["final"]["disjoint"] else "fail")),
            ("succeeded", "true" if trace_dict["succeeded"] else "false"),
        ]
        lines = ["stage,status"] + [f"{name},{status}"
                                    for name, status in stage_status]
        return "\n".join(lines) + "\n", code
    header = (
        f"graph: {graph.group.name} "
        f"gens={','.join(map(str, graph.gens.elements))}\n"
    )
    return header + _trace_text(trace_dict), code


def _cmd_verify(graph: CayleyGraph, args: argparse.Namespace) -> tuple[str, int]:
    zeta = _parse_zeta(args.zeta)
    _forced_banner(graph, zeta, args.max_exact)
    report = full_report(
        graph, tol=args.tol, max_exact=args.max_exact, max_dual=args.max_dual,
        zeta=zeta,
    )
    code = 0 if report.all_pass else 1
    if args.format == "json":
        return report_to_json(report) + "\n", code
    if args.format == "csv":
        return report_to_csv(report), code
    return report_to_text(report), code


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    items = sweep(
        args.specs, tol=args.tol, max_exact=args.max_exact,
        max_dual=args.max_dual, zeta=_parse_zeta(args.zeta),
        workers=args.workers,
    )
    any_fail = any(
        item.report is not None and not item.report.all_pass for item in items
    )
    any_error = any(item.error is not None for item in items)
    code = 1 if any_fail else (2 if any_error else 0)
    if any_error:
        for item in items:
            if item.error is not None:
                print(f"error: {item.spec}: {item.error}", file=sys.stderr)
    if args.format == "json":
        return sweep_to_json(items) + "\n", code
    if args.format == "csv":
        return sweep_to_csv(items), code
    return sweep_to_text(items), code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "sweep":
            text, code = _cmd_sweep(args)
        else:
            graph = build_graph(args.group, args.gens)
            handler = {
                "spectrum": _cmd_spectrum,
                "cheeger": _cmd_cheeger,
                "subgroups": _cmd_subgroups,
                "proof": _cmd_proof,
                "verify": _cmd_verify,
            }[args.command]
            text, code = handler(graph, args)
    except (CayleyGapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
