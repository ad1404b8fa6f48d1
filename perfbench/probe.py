"""Set-up probe, run in a fresh interpreter: import homlab and materialize
one workload's inputs, then print the elapsed time as JSON.

    python3 perfbench/probe.py <src-dir> '<json spec>'

The spec holds "graphs" and "models" scan sources and/or "lemmas", a list
of [lemma_id, seed] pairs.  Timing starts before `import homlab`.
"""

import json
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    src, spec = argv[1], json.loads(argv[2])
    sys.path.insert(0, src)
    from homlab.lemmas import random_lemma_instance
    from homlab.scan import materialize_graphs, materialize_models

    graphs = materialize_graphs(spec["graphs"]) if spec.get("graphs") else []
    models = materialize_models(spec["models"]) if spec.get("models") else []
    lemmas = [random_lemma_instance(lemma_id, seed) for lemma_id, seed in spec.get("lemmas", [])]
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "graphs": len(graphs), "models": len(models), "lemmas": len(lemmas)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
