"""A store read through its adjacency block alone — the reference that
every CSR-served read is compared against — and the ways a store stops
carrying a CSR that can be served.

A store serves typed and neighbour reads from its compiled CSR and
untyped edge-id/degree reads from the adjacency block.  The reference
takes every read from the block: typed ``edges_of``/``degree`` filter
the untyped read by edge type, and it exposes no ``neighbors_of``/
``neighbor_ids_of``, so consumers resolve far ends edge by edge from
the relationship records (``view.other_end``).
"""

import os

from repro.graphdb.storage.faults import (rewrite_metadata,
                                          stamp_csr_layout,
                                          strip_compiled_csr)
from repro.graphdb.view import Direction


class BlockView:
    """*store* with every adjacency read taken from the block."""

    _HIDDEN = frozenset({"neighbors_of", "neighbor_ids_of"})

    def __init__(self, store):
        self._store = store

    def __getattr__(self, name):
        if name in self._HIDDEN:
            raise AttributeError(name)
        return getattr(self._store, name)

    def edges_of(self, node_id, direction=Direction.BOTH, types=None):
        edges = self._store.edges_of(node_id, direction)
        if types is None:
            return edges
        wanted = set(types)
        return (edge for edge in list(edges)
                if self._store.edge_type(edge) in wanted)

    def degree(self, node_id, direction=Direction.BOTH, types=None):
        if types is None:
            return self._store.degree(node_id, direction)
        return sum(1 for _edge in self.edges_of(node_id, direction, types))

    def close(self):
        self._store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _truncate_csr(directory):
    path = os.path.join(directory, "csr.db")
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 4)


#: ways a store stops carrying a CSR this build serves, each with
#: what open's refusal says: name -> (damage, reason)
UNSERVABLE = {
    "layout_1": (lambda directory: stamp_csr_layout(directory, 1),
                 "csr layout 1"),
    "format_2": (strip_compiled_csr, "format 2: no compiled CSR"),
    "size_mismatch": (_truncate_csr, "csr.db is"),
    "malformed_segment": (
        lambda directory: rewrite_metadata(
            directory,
            lambda metadata: metadata["csr"]["segments"][0].pop("span")),
        "csr segment 0: span is None"),
}
