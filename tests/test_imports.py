"""What importing polmod and running a subcommand loads, and the public names.

The checks that depend on what is already imported run in a fresh
interpreter (without site, so nothing but polmod adds modules).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import polmod
from polmod.cli import SELECTOR_FILES
from polmod.cli.main import main
from polmod.cli.verify import resolve_selectors

SRC = Path(__file__).resolve().parent.parent / "src"

SELECTORS = [
    "examples:fast",
    "exceptions",
    "experiments",
    "hilbert:4",
    "hilbert:5",
    "homog",
    "table:4",
    "table:5",
]


def fresh(code):
    """The JSON document a fresh interpreter prints last after running code."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys\nsys.path.insert(0, %r)\n%s" % (str(SRC), code)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


FOOTPRINT = """
import json
from polmod.cli.main import main

HEAVY = ("polmod.exceptions", "polmod.cli.verify", "dataclasses", "inspect")
module_jobs = [
    main(["frobenius", "--gen=p[3]", "--n", "3", "--ell", "2", "--format", "json"]),
    main(["basis", "--gen=m[2,1]", "--n", "3", "--ell", "2", "--format", "json"]),
]
loaded = [name for name in HEAVY if name in sys.modules]
lazy_jobs = [
    main(["classify", "--gen=m[3] + m[2,1]", "--n", "4", "--ell", "2"]),
    main(["exceptions", "--n", "5", "--point=4,-3,4", "--point=1,1,1"]),
    main(["verify", "--set", "examples:fast"]),
]
print(json.dumps({"module_jobs": module_jobs, "loaded": loaded, "lazy_jobs": lazy_jobs}))
"""


def test_module_jobs_load_no_classification_or_verify_code():
    doc = fresh(FOOTPRINT)
    assert doc["module_jobs"] == [0, 0]
    assert doc["loaded"] == []
    # the deferred imports still work once a subcommand needs them
    assert doc["lazy_jobs"] == [0, 0, 0]


PUBLIC_NAMES = """
import json
import polmod

before = "polmod.exceptions" in sys.modules
listed = [name for name in polmod.__all__ if name not in dir(polmod)]
namespace = {}
exec("from polmod import *", namespace)
print(json.dumps({
    "loaded_by_import": before,
    "not_listed": listed,
    "not_bound": [name for name in polmod.__all__ if name not in namespace],
    "same_objects": all(namespace[name] is getattr(polmod, name) for name in polmod.__all__),
}))
"""


def test_public_names_resolve_lazily():
    doc = fresh(PUBLIC_NAMES)
    assert doc == {
        "loaded_by_import": False,
        "not_listed": [],
        "not_bound": [],
        "same_objects": True,
    }


EXCEPTIONS_NAMES = [
    "aux_poly",
    "build_matrix",
    "classify",
    "det_T",
    "det_identity_check",
    "exception_equation",
    "gcd_form_check",
    "h_gram_check",
    "is_n_exception",
    "rank_lower_bound_check",
]


def test_classification_names_come_from_the_exceptions_layer():
    from polmod import exceptions

    assert polmod.exceptions is exceptions
    for name in EXCEPTIONS_NAMES:
        assert name in polmod.__all__
        assert getattr(polmod, name) is getattr(exceptions, name)
    with pytest.raises(AttributeError):
        polmod.no_such_name


def test_verify_help_lists_every_selector(capsys):
    assert sorted(SELECTOR_FILES) == SELECTORS
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "fixture selector (%s, all)" % ", ".join(SELECTORS) in text
    for name in SELECTORS:
        assert resolve_selectors([name]) == SELECTOR_FILES[name]
