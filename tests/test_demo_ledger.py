"""The golden ledger: every report.json count of the five demos, in one file.

``golden/demo_ledger.json`` holds, for each demo, the report.json that
``specexact demo NAME`` writes, with every ``seconds`` and ``blas_threads`` key
removed and every float leaf replaced by ``"<float>"``.  Keys, ints, strings,
bools and nulls are compared exactly; floats, which move in their last digits
with the CPU's BLAS kernels, and the pool sizes, which depend on the machine,
are not.  So a route, cache or guard count that moves fails here, on any CPU.

A change that moves a count regenerates the file, which prints each moved key
(on a checkout, with ``PYTHONPATH=src``)::

    python tests/test_demo_ledger.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from specexact import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_ledger.json"
#: the timing, and each OpenBLAS pool's thread count, which depends on the machine
DROPPED = ("seconds", "blas_threads")
MISSING = "<missing>"


def normalized(value):
    """``value`` without its DROPPED keys, every float leaf replaced by ``"<float>"``."""
    if isinstance(value, dict):
        return {key: normalized(item) for key, item in value.items() if key not in DROPPED}
    if isinstance(value, list):
        return [normalized(item) for item in value]
    return "<float>" if isinstance(value, float) else value


def demo_report(name: str, out: Path) -> dict:
    """The normalized report.json of demo ``name``, run into ``out / name``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["demo", name, "--out", str(out / name)])
    assert code == 0, f"demo {name} exited {code}"
    return normalized(json.loads((out / name / "report.json").read_text()))


def demo_ledger(out: Path) -> dict:
    """{demo: its normalized report.json}, each demo run into its own directory under ``out``."""
    return {name: demo_report(name, out) for name in cli.DEMO_NAMES}


def rendered(ledger: dict) -> str:
    """The golden file's text for ``ledger``."""
    return json.dumps(ledger, indent=2, sort_keys=True) + "\n"


def leaves(value, path=""):
    """{path: leaf} of a JSON value: one path per dict key and list index; an empty dict or list is a leaf."""
    if isinstance(value, dict) and value:
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list) and value:
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return {path: value}
    return {leaf: v for sub, item in items for leaf, v in leaves(item, sub).items()}


def moved(got: dict, want: dict) -> dict:
    """{path: (want, got)} of every leaf that differs between the ledgers or is in only one of them."""
    new, old = leaves(got), leaves(want)
    return {
        path: (old.get(path, MISSING), new.get(path, MISSING))
        for path in sorted(new.keys() | old.keys())
        if new.get(path, MISSING) != old.get(path, MISSING)
    }


@pytest.mark.parametrize("name", cli.DEMO_NAMES)
def test_demo_counts_match_the_golden_ledger(name, tmp_path):
    want = json.loads(GOLDEN.read_text()).get(name, MISSING)
    assert moved(demo_report(name, tmp_path), want) == {}


def test_golden_ledger_holds_exactly_the_demos():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cli.DEMO_NAMES)


def test_golden_file_is_normalized_and_in_regenerated_form():
    text = GOLDEN.read_text()
    ledger = json.loads(text)
    assert normalized(ledger) == ledger
    assert "<float>" in text
    assert rendered(ledger) == text


def test_normalized_drops_seconds_and_blas_threads_at_any_depth():
    report = {"seconds": 1.5, "stages": [{"op": "pseudo", "seconds": 0.2, "blas_threads": 4,
                                          "nested": {"blas_threads": 1, "calls": 3}}]}
    assert normalized(report) == {"stages": [{"op": "pseudo", "nested": {"calls": 3}}]}


def test_normalized_masks_floats_and_keeps_every_other_leaf():
    report = {"x": 0.5, "nan": float("nan"), "n": 0, "flag": True, "off": False,
              "none": None, "s": "1.5", "list": [1, 2.0, [3.25, "a"]], "empty": {}}
    assert normalized(report) == {"x": "<float>", "nan": "<float>", "n": 0, "flag": True,
                                  "off": False, "none": None, "s": "1.5",
                                  "list": [1, "<float>", ["<float>", "a"]], "empty": {}}


def test_leaves_keeps_empty_containers_as_leaves():
    assert leaves({"a": [], "b": {}, "c": [{"d": 1}, 2]}) == {
        "a": [], "b": {}, "c[0].d": 1, "c[1]": 2}
    assert leaves([]) == {"": []}


def test_moved_names_each_changed_added_and_missing_leaf():
    want = {"stages": [{"routes": {"tridiagonal": 10}, "fallbacks": 0}], "kind": "demo"}
    got = {"stages": [{"routes": {"tridiagonal": 9, "dense": 1}}, {}], "kind": "demo"}
    assert moved(got, want) == {
        "stages[0].fallbacks": (0, MISSING),
        "stages[0].routes.dense": (MISSING, 1),
        "stages[0].routes.tridiagonal": (10, 9),
        "stages[1]": (MISSING, {}),
    }
    assert moved(want, want) == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ledger = demo_ledger(Path(tmp))
    for path, (old, new) in moved(ledger, json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}).items():
        print(f"{path}: {json.dumps(old)} -> {json.dumps(new)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(rendered(ledger))
