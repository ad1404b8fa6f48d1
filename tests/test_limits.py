"""One size limit behind one check: every up-front size estimate goes
through `errors.check_work` against `errors.WORK_LIMIT`, and every refusal
prints the one shape `<kind> work bound <N> exceeds <limit> (<detail>)`."""

import ast
import json
import pathlib
import re

import pytest

from homlab import cli, errors
from homlab.errors import LimitExceeded
from homlab.graphs import Graph
from homlab.inequalities import check_graphical_bl

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "homlab"

# Input files of the cases below, written to the test's own directory.
FILES = {
    "lists": "0: {0}\n1: {0}\n2: {0}\n3: {0}\n",
    "cc": {"lemma": "color-holder", "params": {"looped": [0], "A": [0, 1, 2, 3], "B": [0, 1, 2, 3], "k": 3, "r": 0, "s": 1, "t": 2}},
    "sym": {"lemma": "sym-monotone", "params": {"k": 3, "alphas": ["1", "2", "3"]}},
    "local": {
        "lemma": "local-123",
        "params": {"beta": 3, "gamma": 2, "delta": 3, "f12": [["1", "1"]], "f23": [["1"], ["1"]], "w1": ["1"], "w2": ["1", "1"], "w3": ["1"]},
    },
    "bcd": {"lemma": "color-bcd", "params": {"q": 3, "looped": [], "B": [0, 1, 2], "C": [0, 1, 2], "D": [0, 1, 2], "b": 2, "c": 1, "k": 3, "t": 1}},
}


def _block_palette():
    # Two vertices of two colors each: a 4 x 4 block matrix, 16 entries.
    check_graphical_bl(Graph.from_edges(2, [(0, 1)]), {(0, 1): [[1, 1], [1, 1]]}, [2, 2])


# (kind, limit, entry): at this limit every other size of the input is
# within it, so the kind's own check is the one that refuses.  An entry is
# the CLI's argv, with {name} for a file of FILES, or a callable where the
# kind has no CLI entry.
CASES = [
    ("contraction", 20, ["count", "--graph", "K4", "--model", "Kq:2"]),  # plan work 30
    ("biclique", 20, ["verify", "--ineq", "reverse-sidorenko", "--graph", "C4", "--model", "wr", "--lists", "{lists}"]),  # K_{2,2} at q = 3: 36
    ("clique", 50, ["verify", "--ineq", "clique-max", "--graph", "K3", "--model", "Kq:3"]),  # h_3 at q = 3: 90
    ("cc", 100, ["lemma", "--file", "{cc}"]),
    ("symmetric-sum", 20, ["lemma", "--file", "{sym}"]),
    ("local-123", 20, ["lemma", "--file", "{local}"]),
    ("color-bcd", 20, ["lemma", "--file", "{bcd}"]),
    ("m-log-conv", 20, ["lemma", "--id", "m-log-conv", "--seed", "0"]),
    ("plan-search", 20, ["count", "--graph", "C6", "--model", "Kq:2"]),  # n^2 = 36
    ("model", 10, ["count", "--graph", "P2", "--model", "Kq:3"]),  # q^2 + q + 1 = 13
    ("random-models", 10, ["scan", "--ineq", "bst", "--graphs", "K2", "--random-models", "antiferro-2spin,2", "--seeds", "0:3"]),  # 3 x 7
    ("complete-looped", 20, ["scan", "--ineq", "bst", "--graphs", "K2", "--complete-looped", "3"]),  # 50 weights
    ("scan-grid", 10, ["scan", "--ineq", "clique-max", "--graphs", "K2;K3", "--models", "Kq:2,wr", "--list-seeds", "3"]),  # 2 x 2 x 3
    ("seed-range", 20, ["scan", "--ineq", "bst", "--graphs", "K2", "--random-models", "antiferro-2spin,2", "--seeds", "0:30"]),
    ("list-seeds", 20, ["scan", "--ineq", "clique-max", "--graphs", "K2", "--models", "Kq:1", "--list-seeds", "30"]),
    ("block-palette", 10, _block_palette),
]


@pytest.mark.parametrize("kind, limit, entry", CASES, ids=[kind for kind, _, _ in CASES])
def test_every_size_refusal_has_one_shape(kind, limit, entry, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(errors, "WORK_LIMIT", limit)
    if callable(entry):
        with pytest.raises(LimitExceeded) as info:
            entry()
        text = str(info.value)
    else:
        paths = {}
        for name, content in FILES.items():
            paths[name] = tmp_path / name
            paths[name].write_text(content if isinstance(content, str) else json.dumps(content))
        assert cli.main([arg.format(**paths) for arg in entry]) == 1
        out, err = capsys.readouterr()
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert not out and len(lines) == 1 and "Traceback" not in err, err
        text = lines[0][len("error: ") :]
    assert re.fullmatch(r"%s work bound \d+ exceeds %d \(.+\)" % (re.escape(kind), limit), text), text


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _calls_by_function(tree, prefix):
    """(qualified name of the enclosing def, call) for every call in tree."""
    for node in ast.iter_child_nodes(tree):
        name = prefix + "." + node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else prefix
        if isinstance(node, ast.Call):
            yield prefix, node
        yield from _calls_by_function(node, name)


def test_only_errors_names_the_work_limit():
    # Docstrings and comments are no AST names, so only code counts; a
    # module's own copy of the limit, under any prefix, counts too.
    readers = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name if isinstance(node, ast.alias) else None
            if name and name.endswith("WORK_LIMIT") and module != "errors":
                readers.add((module, getattr(node, "lineno", None)))
    assert not readers


def test_limit_exceeded_is_raised_in_one_check_and_four_caps():
    # check_work is the one size refusal; the others bound other quantities:
    # the enumeration's vertex count, the swap check's vertex count, and
    # the comparator's two precision caps.
    allowed = {
        "errors.check_work",
        "graphs.enumerate_graphs",
        "inequalities.swap_injection_check",
        "power.compare_power_products",
        "power.RadicalSum.sign",
    }
    built = set()
    for module, tree in _modules():
        for where, call in _calls_by_function(tree, module):
            func = call.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "LimitExceeded":
                built.add(where)
    assert "errors.check_work" in built and built <= allowed, built - allowed
