"""Answer checking against ``repro.sssp.dijkstra`` on the generated graph.

References are computed after the timed phases, once per (metric,
source), and every sampled answer must equal them exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Oracle", "expected", "matches"]


class Oracle:
    """Dijkstra distance rows of one or more metrics of one graph."""

    def __init__(self, graphs: dict) -> None:
        self.graphs = graphs  # metric key -> StaticGraph
        self._rows: dict = {}

    def row(self, source: int, metric=0) -> np.ndarray:
        key = (metric, int(source))
        row = self._rows.get(key)
        if row is None:
            from repro.sssp import dijkstra

            row = dijkstra(self.graphs[metric], int(source),
                           with_parents=False).dist
            self._rows[key] = row
        return row


def expected(oracle: Oracle, req: dict, metric=0) -> dict:
    """The payload fields a correct server returns for ``req``."""
    op = req["op"]
    if op == "matrix":
        return {"matrix": [oracle.row(s, metric)[req["targets"]].tolist()
                           for s in req["sources"]]}
    row = oracle.row(req["source"], metric)
    if op == "tree":
        return {"dist": row.tolist()}
    if op == "one_to_many":
        return {"dist": row[req["targets"]].tolist()}
    if op == "isochrone":
        vertices = np.flatnonzero(row <= req["budget"])
        return {"vertices": vertices.tolist(), "count": int(vertices.size)}
    if op == "query":
        return {"distance": int(row[req["target"]])}
    raise ValueError(f"no reference for op {op!r}")


def matches(oracle: Oracle, req: dict, resp: dict, metric=0) -> bool:
    want = expected(oracle, req, metric)
    return bool(resp.get("ok")) and all(resp.get(k) == v
                                        for k, v in want.items())
