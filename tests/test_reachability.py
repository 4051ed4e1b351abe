"""Every package function is reached from the command line or kept for a
stated reason.

Both pin files' argv, one ``--config`` scan and one ``laurent`` whose
hypothesis fails run in a fresh interpreter under ``sys.setprofile``,
which records each package function they enter.  A module-level function
or class method they never enter must be in UNREACHED, with the one thing
that still needs it: the benchmark's tracer, the benchmark itself, a test
oracle or an acceptance criterion.  Anything else unreached is dead code,
to be deleted rather than listed.  The run is a fresh process so that no
cache an earlier test filled (functools.cache, the endpoint constant
tables) hides a function behind it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tripow

PKG = Path(tripow.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PIN_FILES = ("threshold_reports.json", "command_reports.json")

UNREACHED = {
    "numerics.perfect_power_exponent": "tracer: perfbench/tracing.py's FUNCTIONS binds it",
    "numerics.RInterval.__radd__": "tracer: listed in perfbench/tracing.py's RINTERVAL_METHODS",
    "numerics.RInterval.__rsub__": "tracer: listed in perfbench/tracing.py's RINTERVAL_METHODS",
    "numerics.RInterval.lo": "perfbench: Threshold._bracket compares it with mpmath values",
    "numerics.RInterval.hi": "perfbench: Threshold._bracket compares it with mpmath values",
    "search.find_solutions_unpruned": "perfbench and test oracle: the reference solver",
    "numerics.GaussianInt.__add__": "test oracle: the g_divmod identity x = q m + r",
    "residues.ParityConstraint.satisfied_by": "test oracle: a constraint checked on solutions",
    "residues.ParityVerdict.rule_ids": "test oracle: the parity engine's rules by id",
    "bounds.ordering_predicates": "acceptance criterion 9",
    "search.gaussian_power_structure": "acceptance criterion 6",
    "search._smooth_part": "acceptance criterion 6, through gaussian_power_structure",
    "search._odd_prime_valuations_match": "acceptance criterion 6, through gaussian_power_structure",
    "numerics.g_pow": "acceptance criterion 6, through gaussian_power_structure",
    "triples.min_c_scan": "acceptance criterion 3",
}

CHILD = r"""
import contextlib, io, json, sys

pkg, argvs = sys.argv[1], json.loads(sys.stdin.read())
entered = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(pkg):
        entered.add((code.co_filename, code.co_firstlineno))


sys.setprofile(profile)
from tripow import cli

codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def package_functions() -> dict:
    """(file, first line of the code object) -> module.qualified name, for
    each module-level function and each method of a module-level class."""
    found = {}

    def add(path, node, name):
        # a decorated function's code starts at its first decorator
        line = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found[(str(path), line)] = f"{path.stem}.{name}"

    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(path, node, node.name)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        add(path, sub, f"{node.name}.{sub.name}")
    return found


def test_every_function_is_reached_or_kept_for_a_reason(tmp_path):
    pins = [pin for name in PIN_FILES for pin in json.loads((TESTS / name).read_text())]
    assert len(pins) == 51
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m_max = 6\ncap = 10\noutput_path = {tmp_path / 'scan.csv'}\n")
    argvs = [pin["argv"] for pin in pins]
    argvs += [["--config", str(cfg), "scan"], ["laurent", "--a2", "1000", "--bprime", "10"]]
    path = [str(PKG.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(PKG)],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(run.stdout)
    assert out["codes"] == [pin["exit_code"] for pin in pins] + [0, 1]
    functions = package_functions()
    entered = {(file, line) for file, line in out["entered"]}
    unreached = {functions[key] for key in functions.keys() - entered}
    assert sorted(unreached - UNREACHED.keys()) == []  # dead code: delete it
    assert sorted(UNREACHED.keys() - unreached) == []  # reached now, or gone: drop the entry
