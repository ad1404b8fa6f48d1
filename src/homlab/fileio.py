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
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


def model_to_dict(m: Model) -> dict:
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
        looped_set=d.get("looped_set", ()),
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
    the list shorthand "v: {0,2}" marking allowed colors of vertex v.
    Lines may arrive in any order when using the shorthand.
    """
    weight_lines = []
    shorthand = {}
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if ":" in line:
            head, _, rest = line.partition(":")
            allowed = rest.strip().strip("{}").replace(",", " ").split()
            shorthand[int(head)] = {int(c) for c in allowed}
        else:
            weights = tuple(Fraction(t) for t in line.split())
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


# ---------------------------------------------------------------------------
# Lemma instance files: rationals become "p/q" strings, graphs and models
# become tagged sub-documents; ints stay ints.


def _encode_param(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, Graph):
        return {"__graph__": graph_to_dict(value)}
    if isinstance(value, Model):
        return {"__model__": model_to_dict(value)}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_encode_param(x) for x in seq]
    if isinstance(value, str):
        return value
    raise InvalidArgument("cannot encode lemma parameter %r" % (value,))


def _decode_param(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, dict):
        if "__graph__" in value:
            return graph_from_dict(value["__graph__"])
        if "__model__" in value:
            return model_from_dict(value["__model__"])
        raise InvalidArgument("unknown tagged parameter %r" % (value,))
    if isinstance(value, list):
        return [_decode_param(x) for x in value]
    raise InvalidArgument("cannot decode lemma parameter %r" % (value,))


def lemma_instance_to_dict(inst) -> dict:
    return {
        "lemma": inst.lemma_id,
        "params": {k: _encode_param(v) for k, v in inst.params.items()},
    }


def lemma_instance_from_dict(d: dict):
    from homlab.lemmas import LemmaInstance

    return LemmaInstance(d["lemma"], {k: _decode_param(v) for k, v in d["params"].items()})
