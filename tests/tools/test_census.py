"""The reachability census: its verdicts on a toy package, and the real run.

The toy checks take well under a second: :mod:`tests.tools.toypkg` is profiled
while one entry point calls a few of its functions, then
:func:`tests.tools.census.census` must name what is unreached, stale or badly
reasoned.  The real census (every entry point of the repository, several
minutes) runs in the slow tier.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from tests.tools import census

TOY_DIR = Path(__file__).resolve().parent / "toypkg"


def _toy_entry() -> None:
    from tests.tools.toypkg import shapes

    square = shapes.Square(3)
    assert square.area() == 9
    assert square.side_length == 3


def _findings(allowlist):
    reached, failures = census.collect([("toy", _toy_entry)], log=io.StringIO())
    assert failures == []
    sites = census.defined_functions(TOY_DIR, "tests.tools.toypkg")
    return census.census(sites, reached, allowlist)


def test_sites_are_module_and_class_level_defs():
    names = [site.name for site in census.defined_functions(TOY_DIR, "tests.tools.toypkg")]
    assert names == [
        "tests.tools.toypkg.shapes.area",
        "tests.tools.toypkg.shapes.perimeter",
        "tests.tools.toypkg.shapes.Square.__init__",
        "tests.tools.toypkg.shapes.Square.side_length",
        "tests.tools.toypkg.shapes.Square.side_length.setter",
        "tests.tools.toypkg.shapes.Square.area",
        "tests.tools.toypkg.shapes.Square.describe",
    ]


def test_an_unreached_function_that_is_not_allowlisted_is_named():
    findings = _findings({})
    unreached = sorted(site.name for site in findings.unreached)
    assert unreached == [
        "tests.tools.toypkg.shapes.Square.describe",
        "tests.tools.toypkg.shapes.Square.side_length.setter",
        "tests.tools.toypkg.shapes.perimeter",
    ]
    problems = findings.problems()
    assert len(problems) == 3
    assert any("UNREACHED tests.tools.toypkg.shapes.perimeter (" in p for p in problems)


def test_allowlisted_functions_pass_with_a_known_reason():
    findings = _findings({
        "tests.tools.toypkg.shapes.perimeter": "future: item 15(b)",
        "tests.tools.toypkg.shapes.Square.side_length.setter": "interface",
        "tests.tools.toypkg.shapes.Square.describe": "fault-path",
    })
    assert findings.problems() == []
    assert [reason for _site, reason in findings.allowed] == [
        "future: item 15(b)", "interface", "fault-path",
    ]
    assert "census: OK" in census.report(findings)


def test_a_stale_allowlist_entry_is_named():
    findings = _findings({
        "tests.tools.toypkg.shapes.area": "fault-path",  # reached
        "tests.tools.toypkg.shapes.volume": "fault-path",  # no such function
    })
    problems = findings.problems()
    assert "STALE tests.tools.toypkg.shapes.area: allowlisted but an entry point reaches it" \
        " - drop the entry" in problems
    assert any(p.startswith("GONE tests.tools.toypkg.shapes.volume") for p in problems)


@pytest.mark.parametrize("reason", ["", "unused", "future", "future: soon", "fault path"])
def test_an_entry_without_a_known_reason_is_named(reason):
    findings = _findings({"tests.tools.toypkg.shapes.perimeter": reason})
    assert any(p.startswith("REASON tests.tools.toypkg.shapes.perimeter:") for p in findings.problems())


@pytest.mark.parametrize("reason", list(census.REASONS) + ["future: item 7", "future: item 15(b)"])
def test_every_known_reason_is_accepted(reason):
    assert census.known_reason(reason)
    findings = _findings({"tests.tools.toypkg.shapes.perimeter": reason})
    assert not any(p.startswith("REASON") for p in findings.problems())


def test_a_forked_worker_s_calls_count_as_reached():
    """A child that leaves through ``os._exit`` dumps what it ran."""

    def forking_entry() -> None:
        from tests.tools.toypkg import shapes

        pid = os.fork()
        if pid == 0:
            shapes.perimeter(1, 2)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    reached, failures = census.collect([("fork", forking_entry)], log=io.StringIO())
    assert failures == []
    sites = census.defined_functions(TOY_DIR, "tests.tools.toypkg")
    findings = census.census(sites, reached, {})
    assert "tests.tools.toypkg.shapes.perimeter" in [site.name for site in findings.reached]


def test_a_failing_entry_point_is_named():
    def broken() -> None:
        raise RuntimeError("runner broke")

    reached, failures = census.collect(
        [("fine", lambda: None), ("broken", broken), ("exit-2", lambda: 2)], log=io.StringIO()
    )
    assert [f.split(":", 1)[0] for f in failures] == ["ENTRY broken", "ENTRY exit-2"]
    assert "RuntimeError: runner broke" in failures[0]


def test_report_tallies_unreached_lines_per_module_and_allowlist_per_reason():
    findings = _findings({
        "tests.tools.toypkg.shapes.perimeter": "fault-path",
        "tests.tools.toypkg.shapes.Square.describe": "fault-path",
    })
    text = census.report(findings, listing=True)
    lines = text.splitlines()
    # setter (3 lines, its decorator counted) + perimeter (2) + describe (2)
    assert any(line.split() == ["tests.tools.toypkg.shapes", "3", "7"] for line in lines)
    assert any(line.split() == ["fault-path", "2", "4"] for line in lines)
    assert any(line.split() == ["total", "2", "4"] for line in lines)
    assert "  tests.tools.toypkg.shapes.Square.side_length.setter  3" in lines
    assert lines[-1] == "census: 1 problem(s)"


def test_sites_follow_branches_but_not_closures(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import sys\n"
        "if sys.version_info >= (3,):\n"
        "    def picked():\n"
        "        def closure():\n"
        "            return 1\n"
        "        return closure\n"
        "else:\n"
        "    def picked():\n"
        "        return 0\n"
        "try:\n"
        "    def guarded():\n"
        "        return 2\n"
        "except ImportError:\n"
        "    pass\n"
        "class Box:\n"
        "    @staticmethod\n"
        "    def make():\n"
        "        return Box()\n",
        encoding="utf-8",
    )
    sites = census.defined_functions(tmp_path, "toy")
    assert [(s.name, s.first, s.last) for s in sites] == [
        ("toy.mod.picked", 3, 6),
        ("toy.mod.picked#2", 8, 9),
        ("toy.mod.guarded", 11, 12),
        ("toy.mod.Box.make", 16, 18),  # a decorated def starts at its decorator
    ]


def test_every_allowlist_entry_names_a_function_of_src_with_a_known_reason():
    """The static half of the census: no run needed to catch a gone entry."""
    from tests.tools.allowlist import ALLOWLIST

    names = {site.name for site in census.defined_functions()}
    assert sorted(name for name in ALLOWLIST if name not in names) == []
    assert sorted(name for name, reason in ALLOWLIST.items()
                  if not census.known_reason(reason)) == []


def _interface_entries():
    from tests.tools.allowlist import ALLOWLIST

    return sorted(name for name, reason in ALLOWLIST.items() if reason == "interface")


def _is_default_body(body):
    """Only a docstring, ``pass``, ``raise NotImplementedError`` or ``return <constant>``."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Return) and (
            statement.value is None
            or isinstance(statement.value, ast.Constant)
            or isinstance(statement.value, ast.UnaryOp) and isinstance(statement.value.operand, ast.Constant)
        ):
            continue
        if isinstance(statement, ast.Raise) and ast.unparse(statement.exc) in (
            "NotImplementedError", "NotImplementedError()"
        ):
            continue
        return False
    return True


@pytest.mark.parametrize("name", _interface_entries())
def test_an_interface_entry_is_a_base_class_default_without_logic(name):
    """``interface`` may not hide code: the method belongs to a class that
    ``src/repro`` subclasses, and its body is only a default."""
    module_name, class_name, method_name = name.rsplit(".", 2)
    cls = getattr(importlib.import_module(module_name), class_name)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    pending, subclasses = list(cls.__subclasses__()), []
    while pending:
        sub = pending.pop()
        subclasses.append(sub)
        pending.extend(sub.__subclasses__())
    assert any(sub.__module__.startswith("repro.") for sub in subclasses), \
        f"{name}: no class of src/repro derives from {class_name}"
    source = textwrap.dedent(inspect.getsource(getattr(cls, method_name)))
    [function] = ast.parse(source).body
    assert _is_default_body(function.body), f"{name} has logic of its own: not an interface"


@pytest.mark.slow
def test_every_function_of_src_is_reached_or_allowlisted():
    """The real census over every entry point (a few minutes on two cores)."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.tools.census"],
        cwd=root, env=env, capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
