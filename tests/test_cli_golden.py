"""Golden CLI output: stdout, stderr and the exit code of fixed invocations.

Each case runs `cayleygap.cli.main` in-process and compares its output, byte
for byte, with the files under tests/golden/. The scripts under scripts/ are
pinned the same way: their `main(argv)` runs in-process and must return the
exit code listed with the case. A change that alters CLI or script output on
purpose regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py

and shows the diff of tests/golden/ in review.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from cayleygap.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"

GRAPHS = (
    ("c6", "cyclic:6", "±1"),                           # bipartite
    ("d5", "dihedral:5", "auto"),
    ("c20", "cyclic:20", "±1"),                         # dual rows skipped
    ("c2xc4", "product:cyclic:2xcyclic:4", "4,1,3"),
    ("c26", "cyclic:26", "±1"),                         # over max_exact
)
FORMATS = ("text", "csv", "json")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for command in ("spectrum", "cheeger", "subgroups", "proof", "verify"):
        for key, group, gens in GRAPHS:
            for fmt in FORMATS:
                cases[f"{command}-{key}-{fmt}"] = [
                    command, "--group", group, "--gens", gens, "--format", fmt,
                ]
    for command in ("proof", "verify"):
        for key, group, gens in GRAPHS[:2]:
            for fmt in FORMATS:
                cases[f"{command}-{key}-zeta-{fmt}"] = [
                    command, "--group", group, "--gens", gens, "--zeta", "1/2",
                    "--format", fmt,
                ]
    for fmt in FORMATS:
        # The exact t_min = -1/2 equals -1 + zeta, so the strict hypothesis
        # t_min < -1 + zeta is not met.
        cases[f"verify-c3-zeta-{fmt}"] = [
            "verify", "--group", "cyclic:3", "--gens", "±1", "--zeta", "1/2",
            "--format", fmt,
        ]
    for fmt in FORMATS:
        cases[f"sweep-{fmt}"] = [
            "sweep", "cyclic:3..6 gens=±1", "florble:9", "dihedral:4",
            "--format", fmt,
        ]
    return cases


CASES = _cases()

# Golden name -> (script under scripts/, argv, exit code).
SCRIPT_CASES = {
    "script-tightness_scan-csv": ("tightness_scan", ["--format", "csv"], 0),
    # bipartite, so no tightness ratio: the table is its header alone
    "script-tightness_scan-empty-table": ("tightness_scan", ["cyclic:4"], 0),
    "script-tightness_scan-bad-spec": ("tightness_scan", ["florble"], 2),
    "script-run_family_sweep-csv": ("run_family_sweep", ["--format", "csv"], 0),
    "script-run_family_sweep-json": ("run_family_sweep", ["--format", "json"], 0),
    "script-run_family_sweep-text": ("run_family_sweep", ["--format", "text"], 0),
}


@functools.cache
def script_main(script: str):
    spec = importlib.util.spec_from_file_location(
        f"script_{script}", SCRIPTS_DIR / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def run_case(argv: list[str], entry=main) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return out.getvalue(), err.getvalue(), code


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    stdout, stderr, code = run_case(CASES[name])
    codes = json.loads(_read(GOLDEN_DIR / "exit_codes.json"))
    assert code == codes[name]
    assert stdout == _read(GOLDEN_DIR / f"{name}.stdout")
    assert stderr == _read(GOLDEN_DIR / f"{name}.stderr")


@pytest.mark.parametrize("name", sorted(SCRIPT_CASES))
def test_script_output_matches_golden(name):
    script, argv, expected_code = SCRIPT_CASES[name]
    stdout, stderr, code = run_case(argv, script_main(script))
    assert code == expected_code
    assert stdout == _read(GOLDEN_DIR / f"{name}.stdout")
    assert stderr == _read(GOLDEN_DIR / f"{name}.stderr")


@pytest.mark.parametrize("workers", ["0", "-3", "x"])
def test_run_family_sweep_rejects_workers_below_one(workers, capsys):
    """The script checks --workers as the CLI does, so a value that is not
    an integer of at least 1 ends argument parsing with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        script_main("run_family_sweep")(["--workers", workers])
    assert exc.value.code == 2
    assert (f"argument --workers: must be an integer >= 1, got {workers!r}"
            in capsys.readouterr().err)


def test_run_family_sweep_unwritable_out_is_one_error_line(tmp_path, monkeypatch):
    entry = script_main("run_family_sweep")
    # --out is opened before the sweep, so the sweep must never start.
    def must_not_run(specs, **kwargs):
        raise AssertionError("the sweep started before --out was opened")

    monkeypatch.setitem(entry.__globals__, "sweep", must_not_run)
    target = tmp_path / "missing" / "out.json"
    stdout, stderr, code = run_case(["--format", "json", "--out", str(target)], entry)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: cannot write {target}: No such file or directory\n"


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path in GOLDEN_DIR.iterdir():
        path.unlink()
    codes = {}
    for name in sorted(CASES):
        stdout, stderr, codes[name] = run_case(CASES[name])
        (GOLDEN_DIR / f"{name}.stdout").write_bytes(stdout.encode("utf-8"))
        (GOLDEN_DIR / f"{name}.stderr").write_bytes(stderr.encode("utf-8"))
    (GOLDEN_DIR / "exit_codes.json").write_bytes(
        (json.dumps(codes, indent=2) + "\n").encode("utf-8"))
    for name, (script, argv, expected_code) in sorted(SCRIPT_CASES.items()):
        stdout, stderr, code = run_case(argv, script_main(script))
        if code != expected_code:
            raise SystemExit(f"{name} exited {code}, expected {expected_code}")
        (GOLDEN_DIR / f"{name}.stdout").write_bytes(stdout.encode("utf-8"))
        (GOLDEN_DIR / f"{name}.stderr").write_bytes(stderr.encode("utf-8"))
    print(f"wrote {len(codes) + len(SCRIPT_CASES)} cases to {GOLDEN_DIR}",
          file=sys.stderr)


if __name__ == "__main__":
    regenerate()
