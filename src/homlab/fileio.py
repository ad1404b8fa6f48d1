"""File formats, and the one reader of input from outside the program.

Models, graphs, replays and lemma instances are JSON documents, each read
by read_fields against its declared fields, and decode maps every error in
reading one to a single InvalidSpec.  Rationals are read only as JSON ints
or exponent-free strings ("p/q", "p", "0.5"), by ratmath.read_rational,
never as JSON floats; frac_str writes them as "p/q" strings, so every file
homlab writes reads back unchanged.  Graph text formats, vertex-constraint
text files and report serialization are here too.
"""

import json
import os
from fractions import Fraction

from homlab.counting import lists_to_constraints
from homlab.errors import HomlabError, InvalidArgument, InvalidSpec, NegativeWeight, PreconditionViolated
from homlab.graphs import Graph, parse_graph_name, read_edge_list, read_graph6
from homlab.inequalities import IneqReport
from homlab.models import Model, parse_model_name
from homlab.power import PowerProduct
from homlab.ratmath import read_rational


def frac_str(x: Fraction) -> str:
    """A Fraction or int as "p/q", or "p" when q is 1."""
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


def model_to_dict(m: Model) -> dict:
    """The model as a document; its looped_set is written for reference and
    ignored by model_from_dict."""
    return {
        "q": m.q,
        "edge_weights": [[frac_str(x) for x in row] for row in m.edge_weights],
        "vertex_weights": [frac_str(x) for x in m.vertex_weights],
        "looped_set": sorted(m.looped_set),
    }


def model_from_dict(d) -> Model:
    p = read_fields(d, {"edge_weights": ("q", "q"), "vertex_weights": ("q",)})
    return Model.from_rows(p["edge_weights"], p["vertex_weights"])


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edge_list()]}


def graph_from_dict(d) -> Graph:
    p = read_fields(d, {"n": int, "edges": list})
    return Graph.from_edges(p["n"], p["edges"])


def replay_from_dict(d):
    """A finding's replay data (see scan.make_replay) as (ineq, graph,
    model, constraints)."""
    kinds = {"ineq": str, "graph": Graph, "model": Model}
    if isinstance(d, dict) and d.get("constraints") is not None:
        kinds["constraints"] = ("n", "q")
    p = read_fields(d, kinds)
    return p["ineq"], p["graph"], p["model"], p.get("constraints")


# A model or graph field: its tag in a lemma file, reader, writer and dimension.
_DOCUMENTS = {Model: ("__model__", model_from_dict, model_to_dict, "q"), Graph: ("__graph__", graph_from_dict, graph_to_dict, "n")}


def _require(cond: bool, condition: str):
    if not cond:
        raise PreconditionViolated(condition)


def read_fields(doc, kinds: dict) -> dict:
    """The declared fields of the dict doc, checked and converted; others
    are ignored.  A kind is int, str, dict, Fraction (by read_rational),
    frozenset (a list of int colors), list (a list of int pairs), Model or
    Graph (or its document, tagged {"__model__": ...} in a lemma file), or
    a tuple of dimension names for an array of nonnegative rationals, read
    as tuples of Fractions: ("q",) is a vector, ("rows", "na") a matrix.  A
    dimension binds to the first length read for it, at least 1; "q" and
    "n" bind to a model's q and a graph's n, so those come first.  A field
    that is missing, mistyped or misshapen raises PreconditionViolated
    naming it; a nested document that does not read, InvalidSpec."""
    _require(isinstance(doc, dict), "a document must be a JSON object")
    p, dims = {}, {}
    for name, kind in kinds.items():
        _require(name in doc, "missing parameter %s" % name)
        value = doc[name]
        if type(kind) is tuple:
            value = _read_array(name, value, kind, dims, 0)
        elif kind is frozenset:
            _require(_ints(value), "%s must be a list of int colors" % name)
            value = frozenset(value)
        elif kind is list:
            pairs = isinstance(value, (list, tuple)) and all(_ints(e) and len(e) == 2 for e in value)
            _require(pairs, "%s must be a list of int pairs" % name)
        elif kind in (int, str, dict):
            _require(type(value) is kind, "%s must be %s" % (name, {int: "an int", str: "a string", dict: "an object"}[kind]))
        elif kind is Fraction:
            try:
                value = read_rational(value)
            except ValueError:
                raise PreconditionViolated("%s must be a rational" % name) from None
        else:
            tag, from_dict, _, dim = _DOCUMENTS[kind]
            if type(value) is dict:
                value = decode(kind.__name__.lower(), lambda: from_dict(value.get(tag, value)), name)
            _require(isinstance(value, kind), "%s must be a %s" % (name, kind.__name__))
            dims[dim] = getattr(value, dim)
        p[name] = value
    return p


def _ints(value) -> bool:
    return isinstance(value, (list, tuple, set, frozenset)) and all(type(c) is int for c in value)


def _read_array(name: str, value, shape: tuple, dims: dict, axis: int) -> tuple:
    dim, leaf = shape[axis], axis + 1 == len(shape)
    ok = isinstance(value, (list, tuple)) and (value or dim in dims)
    if ok and leaf:
        try:
            # Fractions pass through as they are, not re-wrapped.
            value = tuple(x if type(x) is Fraction else read_rational(x) for x in value)
        except ValueError:
            ok = False
    if not ok:
        raise PreconditionViolated("%s must be a nonempty %s array of rationals" % (name, " x ".join(shape)))
    size = dims.setdefault(dim, len(value))
    if len(value) != size:
        raise PreconditionViolated("%s has %d entries along %s = %d" % (name, len(value), dim, size))
    if not leaf:
        return tuple(_read_array(name, row, shape, dims, axis + 1) for row in value)
    _require(all(x >= 0 for x in value), "%s must be nonnegative" % name)
    return value


def to_json(value):
    """A field as read by read_fields, in the form read_fields takes from a
    file."""
    if type(value) in _DOCUMENTS:
        tag, _, to_dict, _ = _DOCUMENTS[type(value)]
        return {tag: to_dict(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [to_json(x) for x in value]
    return frac_str(value) if type(value) is Fraction else value


def decode(what: str, read, name: str = ""):
    """read(), which reads one document, with every error in it, the JSON
    parser's or any HomlabError such as a field read_fields refuses, one
    InvalidSpec: "[<name> is ]not a <what> document: <reason>"."""
    try:
        return read()
    except (ValueError, RecursionError, HomlabError) as exc:
        raise InvalidSpec("%snot a %s document: %s" % (name and name + " is ", what, exc)) from None


def read_text(path: str) -> str:
    """The file's text; a byte that is not UTF-8 reads as U+FFFD."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def load_graph(path: str) -> Graph:
    """A graph file: a JSON graph document, an edge list or a graph6 line."""
    text = read_text(path).strip()
    if not text:
        raise InvalidSpec("graph file %s is empty" % path)
    if text.startswith("{"):
        return decode("graph", lambda: graph_from_dict(json.loads(text)), "graph file %s" % path)
    first = text.splitlines()[0].strip()
    # A graph6 line has no whitespace; an edge list starts "n m".
    if len(first.split()) > 1:
        return read_edge_list(text)
    return read_graph6(first)


def load_model(path: str) -> Model:
    return decode("model", lambda: model_from_dict(json.loads(read_text(path))), "model file %s" % path)


def load_replay(path: str):
    return decode("replay", lambda: replay_from_dict(json.loads(read_text(path))))


def graph_from_any(spec: str) -> Graph:
    """Named graph ("C6", "K3,3", "petersen") or a path to a graph file."""
    return load_graph(spec) if os.path.exists(spec) else parse_graph_name(spec)


def model_from_any(spec: str) -> Model:
    """Named model ("Kq:3", "wr", "heps:1/10") or a path to a model file."""
    return load_model(spec) if os.path.exists(spec) else parse_model_name(spec)


def parse_constraints(text: str, q: int, n: int):
    """Vertex constraints of a graph on n vertices, one line per vertex.

    A line is either whitespace-separated nonnegative rational weights
    ("1/2 0 3"; a negative one raises NegativeWeight), or
    the list shorthand "v: {0,2}" marking allowed colors 0..q-1 of vertex
    v in 0..n-1; a vertex with no shorthand line allows every color.
    Lines may arrive in any order when using the shorthand.
    A line that is neither raises InvalidArgument.
    """
    weight_lines = []
    shorthand = {}
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        try:
            if ":" in line:
                head, _, rest = line.partition(":")
                vertex, colors = int(head), {int(c) for c in rest.strip().strip("{}").replace(",", " ").split()}
                if vertex < 0 or not all(0 <= c < q for c in colors):
                    raise InvalidArgument("constraint line %r needs a vertex >= 0 and colors in 0..%d" % (line, q - 1))
                if vertex >= n:
                    raise InvalidArgument("constraint line %r names vertex %d of a graph on %d vertices" % (line, vertex, n))
                shorthand[vertex] = colors
                continue
            weights = tuple(read_rational(t) for t in line.split())
        except ValueError:
            raise InvalidArgument("constraint line %r is neither weights nor 'v: {colors}'" % line) from None
        if len(weights) != q:
            raise InvalidArgument("constraint line has %d entries, expected %d" % (len(weights), q))
        if any(w < 0 for w in weights):
            raise NegativeWeight("constraint line %r has a negative weight" % line)
        weight_lines.append(weights)
    if shorthand and weight_lines:
        raise InvalidArgument("mix of shorthand and weight lines in constraint file")
    if shorthand:
        return lists_to_constraints([shorthand.get(v, range(q)) for v in range(n)], q)
    return weight_lines


def power_product_to_list(p: PowerProduct | None):
    if p is None:
        return None
    return [[frac_str(b), frac_str(e)] for b, e in p.factors]


def report_to_dict(r: IneqReport) -> dict:
    return {
        "ineq": r.ineq,
        "instance": r.instance,
        "lhs_factors": power_product_to_list(r.lhs),
        "rhs_factors": power_product_to_list(r.rhs),
        "verdict": r.verdict,
        "exact": r.exact,
        "slack_log10": r.slack_log10,
    }
