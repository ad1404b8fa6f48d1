"""File formats: models and graphs as JSON-shaped documents with "p/q"
rational strings, vertex-constraint text files, report serialization.

Rationals are always stored as strings to avoid float round-trips.
"""

import json
import os
from fractions import Fraction

from homlab.counting import lists_to_constraints
from homlab.errors import InvalidArgument, InvalidSpec, NegativeWeight
from homlab.graphs import Graph, parse_graph_name, read_edge_list, read_graph6
from homlab.inequalities import IneqReport
from homlab.models import Model, parse_model_name
from homlab.power import PowerProduct


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


def model_from_dict(d: dict) -> Model:
    return Model.from_rows(
        [[Fraction(x) for x in row] for row in d["edge_weights"]],
        vertex_weights=[Fraction(x) for x in d["vertex_weights"]],
    )


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edge_list()]}


def graph_from_dict(d: dict) -> Graph:
    return Graph.from_edges(d["n"], [tuple(e) for e in d["edges"]])


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise InvalidSpec("graph file %s is empty" % path)
    if stripped.startswith("{"):
        try:
            return graph_from_dict(json.loads(stripped))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidSpec("graph file %s is not a graph document: %s" % (path, exc)) from None
    first = stripped.splitlines()[0].strip()
    # A graph6 line has no whitespace; an edge list starts "n m".
    if len(first.split()) > 1:
        return read_edge_list(text)
    return read_graph6(first)


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return model_from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise InvalidSpec("model file %s is not a model document: %s" % (path, exc)) from None


def read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InvalidSpec("not a %s document: %s is not JSON (%s)" % (what, path, exc)) from None


def replay_from_dict(d: dict):
    """A finding's replay data (see scan.make_replay) as (ineq, graph,
    model, constraints)."""
    try:
        constraints = d.get("constraints")
        if constraints is not None:
            constraints = [tuple(Fraction(x) for x in vec) for vec in constraints]
        return d["ineq"], graph_from_dict(d["graph"]), model_from_dict(d["model"]), constraints
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InvalidSpec("not a replay document: %r" % (exc,)) from None


def load_replay(path: str):
    return replay_from_dict(read_json(path, "replay"))


def graph_from_any(spec: str) -> Graph:
    """Named graph ("C6", "K3,3", "petersen") or a path to a graph file."""
    if os.path.exists(spec):
        return load_graph(spec)
    return parse_graph_name(spec)


def model_from_any(spec: str) -> Model:
    """Named model ("Kq:3", "wr", "heps:1/10") or a path to a model file."""
    if os.path.exists(spec):
        return load_model(spec)
    return parse_model_name(spec)


def parse_constraints(text: str, q: int):
    """Vertex constraints, one line per vertex.

    A line is either whitespace-separated nonnegative rational weights
    ("1/2 0 3"; a negative one raises NegativeWeight), or
    the list shorthand "v: {0,2}" marking allowed colors 0..q-1 of vertex
    v >= 0.  Lines may arrive in any order when using the shorthand.  A
    line that is neither raises InvalidArgument.
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
                shorthand[vertex] = colors
                continue
            weights = tuple(Fraction(t) for t in line.split())
        except (ValueError, ZeroDivisionError):
            raise InvalidArgument("constraint line %r is neither weights nor 'v: {colors}'" % line) from None
        if len(weights) != q:
            raise InvalidArgument("constraint line has %d entries, expected %d" % (len(weights), q))
        if any(w < 0 for w in weights):
            raise NegativeWeight("constraint line %r has a negative weight" % line)
        weight_lines.append(weights)
    if shorthand and weight_lines:
        raise InvalidArgument("mix of shorthand and weight lines in constraint file")
    if shorthand:
        return lists_to_constraints([shorthand.get(v, range(q)) for v in range(max(shorthand) + 1)], q)
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
