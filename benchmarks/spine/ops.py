"""The seeded operation stream every query workload replays.

One round is 20 ops — 16 *light* (code search, cross-referencing,
debugging: the paper's Figures 3-5) and 4 *heavy* (three Figure 6
call-graph closures and one label scan). Half of the light ops are the
paper's fixed texts, so they hit the plan cache and the per-text
memos; the other half take a function name drawn from a Zipf(1.1)
distribution, so a hot set of names shares work and a long tail does
not. Heavy and light latencies are reported apart because a heavy op
costs ~100x a light one and would otherwise be the whole tail.

Standard library only; the program receives nothing but the texts.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Sequence

# -- the paper's queries, verbatim (Figures 3-6) -----------------------

FIGURE3 = (
    "START m=node:node_auto_index('short_name: wakeup.elf') "
    "MATCH m -[:compiled_from|linked_from*]-> f "
    "WITH distinct f "
    "MATCH f -[:file_contains]-> (n:field{short_name: 'id'}) "
    "RETURN n")

#: ``{file}`` is the node id of ``wakeup_core.c``, looked up in set-up
FIGURE4_TEMPLATE = (
    "START n=node:node_auto_index('short_name: id') "
    "WHERE (n) <-[{{name_file_id: {file}, name_start_line: 104, "
    "name_start_col: 16}}]- () RETURN n")

FIGURE5 = """
START from=node:node_auto_index('short_name: sr_media_change'),
 to=node:node_auto_index('short_name: get_sectorsize'),
 b=node:node_auto_index('short_name: packet_command')
MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) <-[:contains]- b
WITH to, from, writer, write
MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to
WHERE r.use_start_line >= s.use_start_line AND direct -[:calls*]-> writer
RETURN distinct writer, write.use_start_line
"""

#: Figure 6 with the seed function as a parameter of the text
CLOSURE_TEMPLATE = (
    "START n=node:node_auto_index('short_name: {name}') "
    "MATCH n -[:calls*]-> m RETURN distinct m")

# -- the drawn variants: same shape, a drawn function ------------------

#: index start on a name prefix, one ``calls`` hop out
SEARCH_TEMPLATE = (
    "START n=node:node_auto_index('short_name: {prefix}*') "
    "MATCH n -[:calls]-> m RETURN n, m")

#: callers of one function
XREF_TEMPLATE = (
    "START n=node:node_auto_index('short_name: {name}') "
    "MATCH n <-[:calls]- c RETURN c")

SCAN = "MATCH (n:function) RETURN count(*)"

LIGHT, HEAVY, OPEN = "light", "heavy", "open"

#: (kind, drawn?, how many per round); 8 fixed + 8 drawn light, 4 heavy
ROUND_SHAPE = (
    ("search", False, 3), ("xref", False, 3), ("debug", False, 2),
    ("search", True, 4), ("xref", True, 4),
    ("closure", True, 3), ("scan", False, 1),
)
OPS_PER_ROUND = sum(count for _kind, _drawn, count in ROUND_SHAPE)

ZIPF_EXPONENT = 1.1


class Op(NamedTuple):
    kind: str   # search | xref | debug | closure | scan | open
    cls: str    # light | heavy | open
    text: str


def search_prefix(name: str) -> str:
    """``drm_probe_table_6`` -> ``drm_probe_table_``: the generator
    numbers its names, so the stem matches a handful of siblings."""
    return name.rstrip("0123456789") or name


class ZipfSampler:
    """Draws items with probability proportional to 1 / rank**s."""

    def __init__(self, items: Sequence[str],
                 exponent: float = ZIPF_EXPONENT) -> None:
        if not items:
            raise ValueError("nothing to draw from")
        self.items = list(items)
        self.cumulative = list(itertools.accumulate(
            1.0 / rank ** exponent
            for rank in range(1, len(self.items) + 1)))

    def draw(self, rng: random.Random) -> str:
        return rng.choices(self.items,
                           cum_weights=self.cumulative)[0]


def build_stream(seed: int, ranked_names: Sequence[str],
                 closure_seeds: Sequence[str], figure4_file: int,
                 rounds: int) -> list[Op]:
    """``rounds`` rounds of ops; a pure function of its arguments.

    ``ranked_names`` are function names, most popular first — the
    ranking is the caller's and the same on every run, so two seeds
    sample one distribution and their latencies can be compared.
    ``closure_seeds`` are the functions set-up found to reach at least
    a quarter of the call graph, so every closure is uniformly heavy.
    """
    rng = random.Random(seed)
    names = ZipfSampler(ranked_names)
    closure_pool = sorted(closure_seeds)
    if not closure_pool:
        raise ValueError("no closure seeds")
    fixed = {
        "search": FIGURE3,
        "xref": FIGURE4_TEMPLATE.format(file=figure4_file),
        "debug": FIGURE5,
        "scan": SCAN,
    }
    stream: list[Op] = []
    for _ in range(rounds):
        this_round: list[Op] = []
        for kind, drawn, count in ROUND_SHAPE:
            for _ in range(count):
                if kind == "closure":
                    text = CLOSURE_TEMPLATE.format(
                        name=rng.choice(closure_pool))
                elif not drawn:
                    text = fixed[kind]
                elif kind == "search":
                    text = SEARCH_TEMPLATE.format(
                        prefix=search_prefix(names.draw(rng)))
                else:
                    text = XREF_TEMPLATE.format(name=names.draw(rng))
                cls = HEAVY if kind in ("closure", "scan") else LIGHT
                this_round.append(Op(kind, cls, text))
        rng.shuffle(this_round)
        stream.extend(this_round)
    return stream


def with_open_probes(stream: Sequence[Op]) -> list[Op]:
    """The ``cold_open`` stream: after every round, one op that opens
    the store afresh, runs Figure 3 and closes (Table 5's first row,
    end to end)."""
    probed: list[Op] = []
    for index, op in enumerate(stream, start=1):
        probed.append(op)
        if index % OPS_PER_ROUND == 0:
            probed.append(Op("open", OPEN, FIGURE3))
    return probed


def distinct_texts(stream: Sequence[Op]) -> list[str]:
    """Texts in first-seen order (the warm-up pass and the reference
    digests iterate this)."""
    return list(dict.fromkeys(op.text for op in stream))
