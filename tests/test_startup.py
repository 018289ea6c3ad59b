"""What a launch loads: `import mild2` and each CLI subcommand, every check in
a fresh interpreter, since the test process itself has loaded everything."""

import ast
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import mild2
from mild2 import cli

SRC = Path(mild2.__file__).resolve().parents[1]
EX1 = "41,13,5,3,19"

# the last line a child prints: the mild2 modules it loaded, as short names
LOADED = "print(*sorted(m.removeprefix('mild2.') for m in sys.modules if m.split('.')[0] == 'mild2'))"

# one launch: import the CLI, run one command, report the exit code and what loaded
LAUNCH = f"""
import sys
from mild2 import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code)
{LOADED}
"""

BASE = {"mild2", "cli", "arith"}
SERIES = BASE | {"series"}
LINKING = BASE | {"linking"}
MILD = LINKING | {"mildness", "gf2"}
ORACLE = {"oracle", "quadlie", "series", "gf2"}
EVERYTHING = {"mild2"} | {p.stem for p in (SRC / "mild2").glob("*.py")} - {"__init__"}


def child(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_import_mild2_loads_no_submodule():
    proc = child("-c", f"import sys, mild2\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["mild2"]


def test_public_names_resolve_to_their_home_modules():
    check = f"""
import sys, mild2
star = {{}}
exec("from mild2 import *", star)
for name in mild2.__all__:
    obj = getattr(mild2, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("mild2.") and vars(home)[name] is obj, name
    assert star[name] is obj, name
assert not set(mild2.__all__) & set(vars(mild2))  # looked up, never stored
assert set(mild2.__all__) <= set(dir(mild2))
print(*mild2.__all__)
{LOADED}
"""
    proc = child("-c", check)
    assert proc.returncode == 0, proc.stderr
    names, loaded = proc.stdout.splitlines()
    assert names.split() == [
        "WeightSignature",
        "augment",
        "check_mild",
        "eliminate_generator",
        "find_mild_partition",
        "gamma_series",
        "koch_presentation",
        "linking_data",
        "lower_central_dims",
        "reduced_dims_bn",
        "strongly_free_oracle",
        "strongly_free_series",
        "validate_augmentation",
        "verify_cent_g",
        "zassenhaus_dims",
    ]
    assert set(loaded.split()) == {"mild2", "arith", "linking", "mildness", "gf2", "oracle", "quadlie", "series"}


def test_dir_lists_every_public_name_and_loads_nothing():
    assert len(mild2.__all__) == 15 and set(mild2.__all__) <= set(dir(mild2))
    check = f"""
import sys, mild2
names = dir(mild2)
print(all(name in names for name in mild2.__all__))
{LOADED}
"""
    proc = child("-c", check)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "mild2"]


def test_an_unknown_package_attribute_raises_and_loads_nothing():
    check = f"""
import sys, mild2
try:
    mild2.nope
except AttributeError as exc:
    print(exc)
{LOADED}
"""
    proc = child("-c", check)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["module 'mild2' has no attribute 'nope'", "mild2"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--help"], BASE),
        (["series", "--d", "4", "--m", "4"], SERIES),
        (["dims", "--kind", "zassenhaus", "--d", "4", "--m", "4"], SERIES),
        (["linking", "--primes", EX1], LINKING),
        (["present", "--primes", EX1], LINKING),
        (["reduce", "--primes", EX1], LINKING),
        (["check-mild", "--primes", EX1], MILD),
        (["augment", "--seed", "3,13"], MILD),
        (["check-mild", "--primes", EX1, "--oracle-depth", "4"], MILD | ORACLE),
        (["oracle", "--primes", EX1, "--max", "4"], LINKING | ORACLE),
        (["basis", "--kind", "y", "--weights", "1,1", "--max", "3"], BASE | {"quadlie"}),
        (["selftest"], EVERYTHING),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    proc = child("-c", LAUNCH, *argv)
    assert proc.returncode == 0, proc.stderr
    *_, code, modules = proc.stdout.splitlines()
    assert code == "0"
    assert set(modules.split()) == loaded


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def without_times(text):
    return re.sub(r"\(\d+\.\d\ds\)", "(-s)", text)


@pytest.mark.parametrize(
    "argv",
    [
        ["linking", "--primes", EX1],
        ["present", "--primes", EX1, "--format", "json"],
        ["reduce", "--primes", EX1],
        ["check-mild", "--primes", EX1, "--oracle-depth", "5", "--format", "text"],
        ["augment", "--seed", "3,13"],
        ["series", "--e", "1,1,2", "--h", "2,3", "--kind", "gamma", "--format", "json"],
        ["dims", "--kind", "lower-central", "--d", "4", "--m", "4"],
        ["oracle", "--primes", EX1, "--max", "5", "--format", "json"],
        ["basis", "--kind", "elimination", "--weights", "1,1,2", "--sigma", "1,2", "--max", "4"],
        ["selftest"],
        ["check-mild", "--primes", "4,5"],
    ],
)
def test_a_launch_prints_what_main_prints_in_process(argv):
    """A handler that leans on a module some other command imported would
    pass in this process, where everything is loaded, and fail in a launch."""
    proc = child("-m", "mild2.cli", *argv)
    launched = (proc.returncode, without_times(proc.stdout), proc.stderr)
    code, out, err = in_process(argv)
    assert launched == (code, without_times(out), err)


def test_every_imported_name_is_used_in_its_module():
    # annotations parse as expressions, so a name used only there counts as used
    unused = []
    for path in sorted((SRC / "mild2").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
