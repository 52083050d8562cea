"""Per-graph verification reports and family sweeps.

A report runs every applicable check on one Cayley graph: connectivity, the
main spectral-gap bound lambda_n <= 2 - h^4 / (2^9 d^6 (d+1)^2), the two-sided
interval for nontrivial eigenvalues, Cheeger-Buser, the vertex-edge relation,
the dual-Cheeger sandwich and its bipartiteness equivalence, large-set
expansion, the spectral-vs-structural bipartiteness equivalence, and the full
subgroup-extraction pipeline. Checks over a size cap are skipped with a
machine-readable reason; checks vacuous for bipartite graphs are reported as
not applicable rather than passing. Reports serialise to a versioned JSON
schema and a fixed-column CSV, byte-identical across runs.

JSON text is exactly what json.dumps(payload, indent=2) prints. With indent
set the stdlib runs its pure-Python encoder, so _json_text writes the same
bytes directly: a list of one scalar type (a spectrum, say) is one join.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cayley import CayleyGraph, _generator_elements, build
from .cheeger import (
    MAX_DUAL_DEFAULT,
    MAX_EXACT_DEFAULT,
    dual_cheeger,
    edge_cheeger,
    vertex_cheeger,
)
from .errors import CapExceededError, CayleyGapError
from .groups import default_generators, expand_group_specs, parse_group_spec
from .proof import (
    ProofTrace,
    large_set_expansion_check,
    main_bound_constant,
    run_pipeline,
)
from .spectral import (
    TOL,
    SpectralSummary,
    is_bipartite_spectral,
    is_connected,
    spectrum,
)
from .subgroups import is_bipartite_structural

CHECK_NAMES = (
    "connectivity",
    "main_bound",
    "eigenvalue_interval_lower",
    "eigenvalue_interval_upper",
    "cheeger_buser_lower",
    "cheeger_buser_upper",
    "vertex_edge_lower",
    "vertex_edge_upper",
    "dual_cheeger_lower",
    "dual_cheeger_upper",
    "dual_cheeger_equivalence",
    "large_set_expansion",
    "bipartite_equivalence",
    "proof_pipeline",
    "tightness_ratio",
)

CSV_HEADER = (
    "graph,n,d,h,edge_h,lambda2,lambda_n,bipartite,"
    "main_bound_margin,tightness_ratio"
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str                      # pass | fail | skipped | not_applicable
    margin: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    group_label: str
    gens: tuple[int, ...]
    n: int
    d: int
    h: Fraction | None
    edge_h: Fraction | None
    dual_h: Fraction | None
    summary: SpectralSummary
    bipartite_spectral: bool
    bipartite_structural: bool
    checks: tuple[CheckRow, ...]
    trace: ProofTrace | None
    tightness: float | None

    @property
    def failed(self) -> tuple[CheckRow, ...]:
        return tuple(row for row in self.checks if row.status == "fail")

    @property
    def all_pass(self) -> bool:
        return not self.failed


def full_report(
    graph: CayleyGraph,
    *,
    max_exact: int = MAX_EXACT_DEFAULT,
    max_dual: int = MAX_DUAL_DEFAULT,
    zeta: Fraction | float | None = None,
) -> VerificationReport:
    """Run every applicable check; failures are recorded, never raised.

    The rows are where the library decides each inequality: h and the
    spectrum are computed once per graph and every row is derived from them.
    """
    group = graph.group
    n = graph.n
    summary = spectrum(graph)   # first: the edge search reads it for its floor

    h: Fraction | None = None
    h_reason: str | None = None
    edge_h: Fraction | None = None
    dual_h: Fraction | None = None
    dual_reason: str | None = None
    try:
        h = vertex_cheeger(graph, max_exact=max_exact).value
        edge_h = edge_cheeger(graph, max_exact=max_exact).value
    except CapExceededError as exc:
        h_reason = exc.reason
    except ValueError as exc:
        h_reason = str(exc)
    try:
        dual_h = dual_cheeger(graph, max_dual=max_dual).value
    except CapExceededError as exc:
        dual_reason = exc.reason

    bip_spectral = is_bipartite_spectral(summary)
    bip_structural = is_bipartite_structural(graph) is not None

    rows: dict[str, CheckRow] = {}

    def put(name: str, status: str, margin: float | None = None,
            reason: str | None = None) -> None:
        rows[name] = CheckRow(name, status, margin, reason)

    def within(name: str, margin: float) -> None:
        put(name, "pass" if margin >= -TOL else "fail", margin=margin)

    # Every graph that build makes is connected; this row is the spectral
    # cross-check of that fact.
    put("connectivity", "pass" if is_connected(summary) else "fail",
        margin=summary.lambda2 if n > 1 else None)
    put("bipartite_equivalence",
        "pass" if bip_structural == bip_spectral else "fail")

    # A bipartite graph has lambda_n = 2, so the spectral-gap rows say
    # nothing about it, whatever h is.
    if bip_structural:
        for name in ("main_bound", "eigenvalue_interval_lower",
                     "eigenvalue_interval_upper", "tightness_ratio"):
            put(name, "not_applicable", reason="bipartite")

    tightness: float | None = None
    trace: ProofTrace | None = None
    if h is not None:
        d = graph.d
        # The spectral bound rows: lambda_n <= 2 - h^4/(2^9 d^6 (d+1)^2),
        # the interval [-1 + h^4/(2^9 d^6 (d+1)^2), 1 - h^2/(2 d^2)] for
        # every nontrivial eigenvalue of T, and the slack factor of the first.
        if not bip_structural:
            guaranteed = float(h**4 / main_bound_constant(d))
            within("main_bound", (2.0 - guaranteed) - summary.lambda_max)
            # h exists, so n >= 2 and there are nontrivial eigenvalues.
            within("eigenvalue_interval_lower",
                   summary.t[0] - (-1.0 + guaranteed))
            within("eigenvalue_interval_upper",
                   (1.0 - float(h**2 / (2 * d * d))) - summary.t[-2])
            tightness = (2.0 - summary.lambda_max) / guaranteed
            put("tightness_ratio", rows["main_bound"].status,
                margin=tightness - 1.0)

        # Cheeger-Buser h_edge^2/2 <= lambda_2 <= 2 h_edge, and the exact
        # vertex-edge relation h/d <= h_edge <= h.
        within("cheeger_buser_lower",
               summary.lambda2 - float(edge_h * edge_h / 2))
        within("cheeger_buser_upper", 2 * float(edge_h) - summary.lambda2)
        ve_lower = edge_h - Fraction(h, d)
        ve_upper = h - edge_h
        put("vertex_edge_lower",
            "pass" if ve_lower >= 0 else "fail",
            margin=float(ve_lower))
        put("vertex_edge_upper",
            "pass" if ve_upper >= 0 else "fail",
            margin=float(ve_upper))

        exp = large_set_expansion_check(graph, max_exact=max_exact)
        worst = min(exp.main_slack, exp.internal_slack)
        put("large_set_expansion",
            "pass" if exp.ok else "fail",
            margin=float(worst),
            reason=None if exp.exhaustive else f"sampled:{exp.tested}")

        # h passed max_exact, the only cap run_pipeline applies.
        trace = run_pipeline(graph, zeta, max_exact=max_exact)
        if trace.hypothesis_met:
            ok = trace.succeeded
        else:
            ok = not bip_structural
        if ok:
            put("proof_pipeline", "pass",
                reason=None if trace.hypothesis_met
                else "hypothesis not met")
        elif trace.out_of_regime:
            # A forced zeta above the ceiling voids the guarantee, so a
            # failed run is neither a pass nor a counterexample.
            put("proof_pipeline", "not_applicable",
                reason="out_of_regime")
        else:
            put("proof_pipeline", "fail")

    # Dual Cheeger (1 - dual)^2/2 <= 2 - lambda_n <= 2(1 - dual), and
    # dual = 1 exactly iff lambda_n = 2 within TOL.
    if dual_h is not None:
        gap = 2.0 - summary.lambda_max
        one_minus = 1 - dual_h
        within("dual_cheeger_lower", gap - float(one_minus * one_minus / 2))
        within("dual_cheeger_upper", 2 * float(one_minus) - gap)
        put("dual_cheeger_equivalence",
            "pass" if (dual_h == 1) == bip_spectral else "fail")

    # A row that no block decided lacks the constant it needs: dual_h for
    # the dual Cheeger rows, h for every other.
    checks = tuple(
        rows.get(name) or CheckRow(name, "skipped", reason=(
            dual_reason if name.startswith("dual_cheeger_") else h_reason))
        for name in CHECK_NAMES
    )
    return VerificationReport(
        group_label=group.name,
        gens=graph.gens,
        n=n,
        d=graph.d,
        h=h,
        edge_h=edge_h,
        dual_h=dual_h,
        summary=summary,
        bipartite_spectral=bip_spectral,
        bipartite_structural=bip_structural,
        checks=checks,
        trace=trace,
        tightness=tightness,
    )


# ---------------------------------------------------------------------------
# Serialisation


def graph_label(group: str, gens: tuple[int, ...]) -> str:
    """How text and CSV output name a graph, e.g. 'cyclic:6 gens=1,5'."""
    return f"{group} gens={','.join(map(str, gens))}"


def graph_dict(group: str, gens: tuple[int, ...], n: int, d: int) -> dict:
    """The leading keys of every per-graph JSON payload."""
    return {"schema_version": 1, "group": group, "gens": list(gens), "n": n, "d": d}


def _fraction_dict(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


def trace_json_dict(trace: ProofTrace | None) -> dict | None:
    if trace is None:
        return None
    p = trace.params
    c = trace.candidate
    out: dict = {
        "eps": _fraction_dict(p.eps),
        "zeta": p.zeta,
        "beta": p.beta,
        "z": p.z,
        "r": p.r,
        "candidate_regime": p.candidate_regime,
        "subgroup_regime": p.subgroup_regime,
        "threshold_regime": p.threshold_regime,
        "out_of_regime": trace.out_of_regime,
        "hypothesis_met": c.hypothesis_met,
        "t_min": c.t_min,
        "gap": c.gap,
        "candidate": None,
        "properties": None,
        "dichotomy": None,
        "agreement_bounds_ok": None,
        "subgroup": None,
        "final": None,
        "failure": trace.failure,
        "succeeded": trace.succeeded,
    }
    if c.hypothesis_met and c.a_mask is not None:
        out["candidate"] = {
            "a_set": list(c.a_set),
            "identified_excess": c.identified_excess,
            "weighted_excess": c.weighted_excess,
            "ratio_ok": c.ratio_ok,
        }
    if trace.properties is not None:
        pr = trace.properties
        out["properties"] = {
            "size_ok": pr.size_ok,
            "overlap_ok": pr.overlap_ok,
            "translate_ok": pr.translate_ok,
        }
    if trace.dichotomy is not None:
        di = trace.dichotomy
        out["dichotomy"] = {
            "valid": di.valid,
            "case_low_count": len(di.case_low),
            "case_high_count": len(di.case_high),
            "violations": list(di.violations),
        }
    if trace.agreement_bounds is not None:
        out["agreement_bounds_ok"] = all(
            rep.all_ok for rep in trace.agreement_bounds
        )
    if trace.subgroup is not None:
        sub = trace.subgroup
        out["subgroup"] = {
            "elements": list(sub.h_set),
            "index": sub.index,
            "is_index_two": sub.is_index_two,
            "triangle_ok": sub.triangle_ok,
        }
    if trace.final is not None:
        fin = trace.final
        out["final"] = {
            "s_cap_h": list(fin.s_cap_h),
            "disjoint": fin.disjoint,
            "structural_match": fin.structural_match,
            "conflicts": [
                {
                    "t": rec.t,
                    "count": rec.count,
                    "upper_ok": rec.upper_ok,
                    "lower_ok": rec.lower_ok,
                }
                for rec in fin.conflicts
            ],
            "r_exceeds_ratio": fin.r_exceeds_ratio,
        }
    return out


def report_json_dict(report: VerificationReport) -> dict:
    return graph_dict(report.group_label, report.gens, report.n, report.d) | {
        "h": _fraction_dict(report.h),
        "edge_h": _fraction_dict(report.edge_h),
        "dual_h": _fraction_dict(report.dual_h),
        "spectrum": {
            "t": list(report.summary.t),
            "lambda": list(report.summary.lam),
        },
        "bipartite": {
            "spectral": report.bipartite_spectral,
            "structural": report.bipartite_structural,
        },
        "checks": [
            {
                "name": row.name,
                "status": row.status,
                "margin": row.margin,
                "reason": row.reason,
            }
            for row in report.checks
        ],
        "proof_trace": trace_json_dict(report.trace),
    }


# How json.dumps writes a scalar of exactly this type. float.__repr__ writes
# nan, inf and -inf where json.dumps writes NaN, Infinity and -Infinity.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _non_finite(floats_text: str) -> str:
    # No finite float's repr holds an "n".
    if "n" in floats_text:
        return floats_text.replace("nan", "NaN").replace("inf", "Infinity")
    return floats_text


def _json_text(value: object, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for an acyclic value.

    Dicts with str keys, lists, tuples and scalars of the exact types in
    _SCALAR_TEXT are written here; anything else (a non-str key, a subclass
    such as np.float64, an unsupported type) goes to json.dumps, which
    writes the same bytes or raises the same TypeError. newline is "\\n" and
    the indent of the line that value starts on."""
    kind = type(value)
    write = _SCALAR_TEXT.get(kind)
    if write is not None:
        return _non_finite(write(value)) if kind is float else write(value)
    inner = newline + "  "
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        body = f",{inner}".join([
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in value.items()
        ])
        return f"{{{inner}{body}{newline}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        only = kinds.pop() if len(kinds) == 1 else None
        if (write := _SCALAR_TEXT.get(only)) is not None:
            body = f",{inner}".join(map(write, value))
            if only is float:
                body = _non_finite(body)
        else:
            body = f",{inner}".join([_json_text(item, inner) for item in value])
        return f"[{inner}{body}{newline}]"
    return json.dumps(value, indent=2).replace("\n", newline)


def _format_fraction(value: Fraction | None) -> str:
    if value is None:
        return ""
    return str(value)


def report_csv_row(report: VerificationReport) -> str:
    main_margin = ""
    for row in report.checks:
        if row.name == "main_bound" and row.margin is not None:
            main_margin = repr(row.margin)
    tightness = "" if report.tightness is None else repr(report.tightness)
    fields = (
        graph_label(report.group_label, report.gens),
        str(report.n),
        str(report.d),
        _format_fraction(report.h),
        _format_fraction(report.edge_h),
        repr(report.summary.lambda2) if report.n > 1 else "",
        repr(report.summary.lambda_max),
        "true" if report.bipartite_structural else "false",
        main_margin,
        tightness,
    )
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def report_text_lines(report: VerificationReport) -> list[str]:
    lines = [
        f"graph: {graph_label(report.group_label, report.gens)}",
        f"n = {report.n}, d = {report.d}",
        f"h = {report.h}, edge_h = {report.edge_h}, dual_h = {report.dual_h}",
        f"lambda_2 = {report.summary.lambda2 if report.n > 1 else 'n/a'}, "
        f"lambda_n = {report.summary.lambda_max}",
        f"bipartite: spectral = {report.bipartite_spectral}, "
        f"structural = {report.bipartite_structural}",
    ]
    if report.tightness is not None:
        lines.append(f"tightness ratio = {report.tightness:.6g}")
    lines.append("checks:")
    for row in report.checks:
        margin = "" if row.margin is None else f"  margin = {row.margin:.6g}"
        reason = "" if row.reason is None else f"  ({row.reason})"
        lines.append(f"  {row.name:28s} {row.status}{margin}{reason}")
    return lines


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepItem:
    spec: str
    report: VerificationReport | None = None
    error: str | None = None


def parse_sweep_spec(spec: str) -> tuple[str, str | None]:
    """Split one sweep item into group spec and generator spec. The generator
    part follows the first ' gens=' marker; absent means default generators."""
    spec = spec.strip()
    marker = " gens="
    pos = spec.find(marker)
    if pos < 0:
        return spec, None
    return spec[:pos].strip(), spec[pos + len(marker):].strip()


def build_graph(group_spec: str, gens_spec: str | None) -> CayleyGraph:
    spec = parse_group_spec(group_spec)
    group = spec.build()
    # build validates the set, so it is validated once per graph.
    if gens_spec is None or gens_spec == "auto":
        gens = default_generators(spec, group)
    else:
        gens = _generator_elements(group, gens_spec)
    return build(group, gens)


# The last field is the error that expanding the item's spec raised, if any.
_SweepTask = tuple[str, str | None, int, int, Fraction | None, str | None]


def _sweep_worker(args: _SweepTask) -> SweepItem:
    item_spec, gens_spec, max_exact, max_dual, zeta, error = args
    label = item_spec if gens_spec is None else f"{item_spec} gens={gens_spec}"
    if error is not None:
        return SweepItem(spec=label, error=error)
    try:
        graph = build_graph(item_spec, gens_spec)
        report = full_report(graph, max_exact=max_exact, max_dual=max_dual, zeta=zeta)
        return SweepItem(spec=label, report=report)
    except (CayleyGapError, ValueError) as exc:
        return SweepItem(spec=label, error=str(exc))


def sweep(
    specs: list[str],
    *,
    max_exact: int = MAX_EXACT_DEFAULT,
    max_dual: int = MAX_DUAL_DEFAULT,
    zeta: Fraction | None = None,
    workers: int = 1,
) -> list[SweepItem]:
    """One report per (group, generators) item, in input order. Items that
    fail to build are recorded as errors and the sweep continues. zeta is
    passed to every full_report; None means each graph's in-regime maximum."""
    tasks: list[_SweepTask] = []
    for spec in specs:
        group_part, gens_part = parse_sweep_spec(spec)
        try:
            expanded = expand_group_specs(group_part)
        except (CayleyGapError, ValueError) as exc:
            # Unparseable spec: still a task, so its error is recorded as a
            # per-item result in input order and the sweep continues.
            tasks.append((group_part, gens_part, max_exact, max_dual, zeta, str(exc)))
            continue
        for single in expanded:
            tasks.append((single.label(), gens_part, max_exact, max_dual, zeta, None))
    # The pool starts all its workers at once, so start no more than there
    # are tasks.
    workers = min(workers, len(tasks))
    if workers > 1:
        # Imported here: it loads multiprocessing, which a serial run and
        # `import cayleygap` never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_worker, tasks))
    return [_sweep_worker(task) for task in tasks]


def sweep_json_dict(items: list[SweepItem]) -> dict:
    return {
        "schema_version": 1,
        "reports": [
            report_json_dict(item.report)
            if item.report is not None
            else {"schema_version": 1, "group": item.spec, "error": item.error}
            for item in items
        ],
    }


def sweep_csv_lines(items: list[SweepItem]) -> list[str]:
    return [CSV_HEADER] + [
        report_csv_row(item.report) for item in items if item.report is not None
    ]


def sweep_text_lines(items: list[SweepItem]) -> list[str]:
    """Each item's text block, with a blank line between blocks."""
    lines: list[str] = []
    for item in items:
        if lines:
            lines.append("")
        if item.report is not None:
            lines += report_text_lines(item.report)
        else:
            lines += [f"graph: {item.spec}", f"  error: {item.error}"]
    return lines


def sweep_to_json(items: list[SweepItem]) -> str:
    """The sweep as JSON text: json.dumps(sweep_json_dict(items), indent=2),
    byte for byte, without its pure-Python encoder."""
    return _json_text(sweep_json_dict(items))


def sweep_to_csv(items: list[SweepItem]) -> str:
    return "\n".join(sweep_csv_lines(items)) + "\n"


def sweep_to_text(items: list[SweepItem]) -> str:
    return "".join(f"{line}\n" for line in sweep_text_lines(items))
