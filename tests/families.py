"""Family suite: every graph the acceptance checks quantify over, with its
expected bipartiteness, plus cached builders and a random generating-set
drawer shared across test modules.

Each member's graph is built once; its spectrum and Cheeger certificates are
kept in that graph's memo."""

from __future__ import annotations

import functools
from typing import NamedTuple

from cayleygap import (
    CayleyGraph,
    FiniteGroup,
    SpectralSummary,
    build_graph,
    closure,
    dual_cheeger,
    edge_cheeger,
    full_report,
    spectrum,
    vertex_cheeger,
)
from cayleygap.verify import CheckRow, VerificationReport


class FamilyMember(NamedTuple):
    group_spec: str
    gens_spec: str
    bipartite: bool

    @property
    def name(self) -> str:
        return f"{self.group_spec} gens={self.gens_spec}"


MEMBERS: tuple[FamilyMember, ...] = tuple(
    [FamilyMember(f"cyclic:{n}", "±1", n % 2 == 0) for n in range(3, 17)]
    + [FamilyMember(f"cyclic:{n}", "±1,±2", False) for n in range(3, 17)]
    + [FamilyMember(f"dihedral:{m}", "auto", m % 2 == 0) for m in (3, 4, 5, 6)]
    + [
        FamilyMember("symmetric:3", "auto", True),
        FamilyMember("symmetric:4", "auto", True),
        FamilyMember("symmetric:4", "(0 1);(1 2);(2 3)", True),
        FamilyMember("product:cyclic:2xcyclic:2xcyclic:2", "4,2,1", True),
        FamilyMember("product:cyclic:2xcyclic:2xcyclic:2", "4,5,6,7", True),
        FamilyMember("product:cyclic:3xcyclic:3", "3,6,1,2", False),
        FamilyMember("product:cyclic:2xcyclic:4", "4,1,3", True),
    ]
)

MEMBER_IDS = [m.name for m in MEMBERS]


@functools.cache
def graph_of(member: FamilyMember) -> CayleyGraph:
    return build_graph(member.group_spec, member.gens_spec)


def summary_of(member: FamilyMember) -> SpectralSummary:
    return spectrum(graph_of(member))


def h_cert_of(member: FamilyMember):
    return vertex_cheeger(graph_of(member))


def edge_h_cert_of(member: FamilyMember):
    # The spectrum comes first, as in full_report, so the family tests check
    # the search that the spectral floor ends early.
    summary_of(member)
    return edge_cheeger(graph_of(member))


def dual_h_cert_of(member: FamilyMember):
    return dual_cheeger(graph_of(member))


def h_of(member: FamilyMember):
    return h_cert_of(member).value


def edge_h_of(member: FamilyMember):
    return edge_h_cert_of(member).value


def dual_h_of(member: FamilyMember):
    return dual_h_cert_of(member).value


@functools.cache
def report_of(member: FamilyMember) -> VerificationReport:
    return full_report(graph_of(member))


def rows_of(member: FamilyMember) -> dict[str, CheckRow]:
    """The member's report rows by check name."""
    return {row.name: row for row in report_of(member).checks}


def small(limit: int) -> list[FamilyMember]:
    return [m for m in MEMBERS if graph_of(m).n <= limit]


def random_generators(group: FiniteGroup, draw, loop: bool) -> list[int]:
    """The drawn elements and their inverses, with the identity (a loop)
    only if `loop` or G is trivial, topped up with the least element outside
    the generated subgroup until it is G. Without a loop the graph may be
    bipartite, with t_min = -1 exactly."""
    elements = set(draw) - {0}
    if loop or group.order == 1:
        elements.add(0)
    elements |= {group.inv[x] for x in elements}
    while len(reached := closure(group, elements)) < group.order:
        missing = min(set(range(group.order)) - set(reached))
        elements |= {missing, group.inv[missing]}
    return sorted(elements)
