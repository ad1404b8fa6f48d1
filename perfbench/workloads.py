"""The benchmark's workloads: which homlab inputs each one feeds, derived
from the run seed.

A scan workload is a stream of *chunks*.  A chunk is one `ScanJob`: a fixed
graph family against a handful of random models whose seeds are drawn from
the run seed.  No two chunks share a random model, so homlab's per-model
caches start cold in every chunk, as they do in a fresh `homlab scan`.
The one exception is rs-scan's 14 complete-looped models, which recur in
every chunk: a cache that outlived one `run_scan` would see hits on them
that a single CLI scan does not get.
The lemma battery is a stream of *rounds*: one instance of each of the 13
lemma ids, with lemma seeds drawn from the run seed.

homlab receives only these generated inputs (model seeds inside model
source dicts, lemma seeds); everything random is decided here.
"""

import random
from dataclasses import dataclass

RS_GRAPHS = {
    "kind": "enumerate",
    "min_vertices": 2,
    "max_vertices": 6,
    "no_isolated": True,
    "triangle_free": True,
    "dedup": True,
}
ALL_GRAPHS = {"kind": "enumerate", "min_vertices": 1, "max_vertices": 6, "dedup": True}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "scan" or "lemma"
    ineq: str | None = None
    graphs: dict | None = None
    jobs: int = 1
    trace_units: int = 2  # chunks (scans) or rounds (battery) in a traced pass
    smoke: bool = False

    def units(self, seed: int):
        """Endless deterministic stream of chunks' model sources (scans) or
        rounds of (lemma_id, lemma_seed) pairs (battery)."""
        rng = random.Random("perfbench|%s|%d" % (self.name, seed))
        make = _UNIT_MAKERS[self.name]
        while True:
            yield make(rng, self.smoke)


def _draw(rng) -> int:
    return rng.randrange(10 ** 6)


def _rs_models(rng, smoke):
    # Acceptance #7 mix: every complete-looped model with q <= 4 plus random
    # general models, one per q in {2, 3, 4} per trio.
    trios = 1 if smoke else 4
    return {
        "kind": "union",
        "parts": [
            {"kind": "complete-looped", "max_q": 2 if smoke else 4},
            {"kind": "random", "rand_kind": "general", "qs": [2, 3, 4], "seeds": [_draw(rng) for _ in range(3 * trios)]},
        ],
    }


def _bst_models(rng, smoke):
    # Antiferromagnetic 2-spin models come in two regimes: a zero diagonal
    # weight (hard-core-like, the colour is forbidden next to itself) and
    # soft models with full support; a soft model costs hom() about four
    # times as much.  Each chunk holds a fixed mix, one hard and two soft,
    # so the chunk cost does not hinge on how many of each the seed drew.
    from homlab.models import random_model

    want = {"hard": 1, "soft": 1 if smoke else 2}
    picked = {"hard": [], "soft": []}
    while any(len(picked[k]) < want[k] for k in want):
        s = _draw(rng)
        w = random_model(2, s, "antiferro-2spin").edge_weights
        regime = "hard" if w[0][0] == 0 or w[1][1] == 0 else "soft"
        if len(picked[regime]) < want[regime]:
            picked[regime].append(s)
    return {"kind": "random", "rand_kind": "antiferro-2spin", "qs": [2], "seeds": picked["hard"] + picked["soft"]}


def _clique_models(rng, smoke):
    # Two PSD models for each q in {2, 3, 4} (q cycles with the seed list).
    count = 2 if smoke else 6
    return {"kind": "random", "rand_kind": "psd", "qs": [2, 3, 4], "seeds": [_draw(rng) for _ in range(count)]}


def _lemma_round(rng, smoke):
    from homlab.lemmas import LEMMA_IDS

    return [(lemma_id, rng.randrange(10 ** 9)) for lemma_id in LEMMA_IDS]


_UNIT_MAKERS = {
    "rs-scan": _rs_models,
    "bst-scan": _bst_models,
    "clique-scan-j2": _clique_models,
    "lemma-battery": _lemma_round,
}


def make_workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; `smoke` shrinks every grid to n <= 4 for tests."""
    if name not in _UNIT_MAKERS:
        raise KeyError(name)
    if name == "lemma-battery":
        return Workload(name, "lemma", trace_units=3 if smoke else 100, smoke=smoke)
    graphs = dict(RS_GRAPHS if name == "rs-scan" else ALL_GRAPHS)
    if smoke:
        graphs["max_vertices"] = 4
    ineq = {"rs-scan": "reverse-sidorenko", "bst-scan": "bst", "clique-scan-j2": "clique-max"}[name]
    jobs = 2 if name == "clique-scan-j2" else 1
    return Workload(name, "scan", ineq, graphs, jobs, trace_units=1 if smoke else 2, smoke=smoke)


WORKLOAD_NAMES = tuple(_UNIT_MAKERS)
