"""Cost-driven schedule autotuner with persisted tuning tables.

ZCCL frames compressed collectives as an *algorithm-selection* problem:
which schedule family wins depends on message size, scale, fabric, and
how compressible the data actually is.  PR 5 made :func:`schedule_cost`
dry-run the exact :class:`~repro.schedule.ir.Schedule` objects the
executor runs, and PR 6 added hierarchical generators with per-round
congestion — so the cost model can now *choose* among
generator × codec × chunking × nodemap candidates instead of the caller
hand-picking a family.  This module is that chooser:

* :func:`enumerate_candidates` — every applicable (family, codec, chunks)
  combination for a rank count, plus the hierarchical variants when a
  :class:`~repro.runtime.nodemap.NodeMap` is given;
* :func:`candidate_stages` — the (schedule, discipline) stage pairs a
  candidate prices and executes.  The stage list is ``lru_cache``-d per
  ``(candidate, n, nodemap)``: it pins strong references to the generator
  schedules so :mod:`~repro.schedule.cost`'s per-schedule weak-ref
  profiles survive the whole enumeration loop — one profile build per
  (schedule, discipline), not one per scored message size;
* :func:`tune_point` — score all candidates at one grid point and return
  the winning :class:`TableEntry` (plus the full per-candidate cost map);
* :class:`TuningTable` — the versioned on-disk table (JSON, schema-
  versioned, byte-stable serialisation, commutative/idempotent merge of
  partial tables) with an in-memory LRU memo on top
  (:func:`lookup_entry`);
* :func:`classify_roughness` — maps actual data to the table's roughness
  axis (predicted bits/value under the error bound).

Keys are ``(op, dtype, message-size bucket, n, fabric, roughness)``; the
canonical string form (``allreduce/float32/b22/n256/torus/smooth``) is
the JSON key, so tables diff cleanly in version control.

Layering: this module stays inside :mod:`repro.schedule` and therefore
never imports :mod:`repro.core` — scoring rates
(:class:`~repro.core.cost_model.CostRates`) are always passed in.  The
executable entry point consulting the table lives in
:mod:`repro.collectives.tuned`.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..runtime.fabrics import (
    DragonflyNetwork,
    FatTreeNetwork,
    TorusNetwork,
)
from ..runtime.network import NetworkModel
from ..runtime.nodemap import NodeMap
from .cost import schedule_cost
from .families import priced_stages

__all__ = [
    "SCHEMA_VERSION",
    "TUNABLE_OPS",
    "PIPELINE_MAX_RANKS",
    "PIPELINE_CHUNKS",
    "ROUGH_RATIO",
    "ROUGHNESS_CLASSES",
    "ROUGHNESS_BITS_THRESHOLD",
    "TuningKey",
    "Candidate",
    "TableEntry",
    "TuningTable",
    "TuningTableError",
    "fabric_name",
    "size_bucket",
    "bucket_bytes",
    "classify_roughness",
    "rates_for_roughness",
    "enumerate_candidates",
    "candidate_family",
    "candidate_stages",
    "score_candidate",
    "tune_point",
    "lookup_entry",
    "resolve_table_path",
    "load_default_table",
]

#: on-disk table schema.  Bump on any incompatible change; loaders reject
#: *newer* schemas with a clean error instead of misreading them.
SCHEMA_VERSION = 1

#: env var consulted when neither an explicit path nor a config path is
#: given (see :func:`resolve_table_path`).
TABLE_ENV_VAR = "REPRO_TUNING_TABLE"

#: chunk-pipelined candidates are enumerated only up to this rank count:
#: a pipelined schedule at ``n`` ranks × ``c`` chunks materialises
#: ``O(n²·c)`` IR objects, which at n=1024 is minutes of build time for a
#: family chunking never wins at that scale (blocks are already tiny).
#: The cap is *logged* in the per-point cost map by simply not listing
#: the candidate — never by silently scoring a stand-in.
PIPELINE_MAX_RANKS = 256
PIPELINE_CHUNKS = (2, 4)

#: the two roughness classes the table is keyed on, and the classifier
#: threshold between them (predicted mean bits/value, see
#: :func:`classify_roughness`).
ROUGHNESS_CLASSES = ("smooth", "rough")
ROUGHNESS_BITS_THRESHOLD = 6.0

#: compression ratio assumed for the "rough" class when scoring
#: compressed-wire candidates (barely compressible data); the "smooth"
#: class uses the rates' own calibrated ratio (the paper's 9.21).
ROUGH_RATIO = 1.6

#: ops the table can key on.  ``allreduce`` enumerates the full
#: family × codec × chunking × placement grid; the rooted ops enumerate
#: their (flat) family × codec grids — ``reduce`` chooses between the
#: ring Reduce_scatter+gather pipelines and the flat fused direct reduce,
#: ``bcast`` between the plain and compressed binomial trees.
TUNABLE_OPS = ("allreduce", "reduce", "bcast")

_FAMILIES = (
    "ring", "pipelined", "rabenseifner", "hier-ring", "hier-rabenseifner",
    "direct", "binomial",
)
_CODECS = ("plain", "hz")


class TuningTableError(ValueError):
    """A tuning table could not be parsed/validated (corrupt, future
    schema, bad entry).  Loading never leaves partial state behind."""


# --------------------------------------------------------------------- #
# keys
# --------------------------------------------------------------------- #
def size_bucket(nbytes: int) -> int:
    """Message-size bucket: ``floor(log2(nbytes))``.

    Power-of-two grid sizes land exactly on bucket boundaries, so a table
    built on the benchmark grid answers those sizes with zero bucketing
    error; odd sizes share the bucket of the nearest power of two below.
    """
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    return nbytes.bit_length() - 1


def bucket_bytes(bucket: int) -> int:
    """The representative (smallest) byte size of a bucket."""
    if bucket < 0:
        raise ValueError(f"bucket must be >= 0, got {bucket}")
    return 1 << bucket


def fabric_name(network: NetworkModel) -> str:
    """The table's fabric axis: the congestion law's family name."""
    if isinstance(network, DragonflyNetwork):
        return "dragonfly"
    if isinstance(network, TorusNetwork):
        return "torus"
    if isinstance(network, FatTreeNetwork):
        return "fattree"
    return "base"


_KEY_RE = re.compile(
    r"^(?P<op>[a-z0-9_]+)/(?P<dtype>[a-z0-9_]+)/b(?P<bucket>\d+)"
    r"/n(?P<n>\d+)/(?P<fabric>[a-z]+)/(?P<roughness>[a-z]+)$"
)


@dataclass(frozen=True, order=True)
class TuningKey:
    """One table key: (op, dtype, size bucket, n, fabric, roughness)."""

    op: str
    dtype: str
    bucket: int
    n_ranks: int
    fabric: str
    roughness: str

    def __post_init__(self) -> None:
        if self.op not in TUNABLE_OPS:
            raise TuningTableError(f"unsupported op {self.op!r}")
        if self.bucket < 0:
            raise TuningTableError(f"negative size bucket {self.bucket}")
        if self.n_ranks < 1:
            raise TuningTableError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.roughness not in ROUGHNESS_CLASSES:
            raise TuningTableError(
                f"unknown roughness class {self.roughness!r} "
                f"(expected one of {ROUGHNESS_CLASSES})"
            )

    def canonical(self) -> str:
        return (
            f"{self.op}/{self.dtype}/b{self.bucket}"
            f"/n{self.n_ranks}/{self.fabric}/{self.roughness}"
        )

    @classmethod
    def parse(cls, text: str) -> "TuningKey":
        m = _KEY_RE.match(text)
        if m is None:
            raise TuningTableError(f"malformed tuning key {text!r}")
        return cls(
            op=m.group("op"),
            dtype=m.group("dtype"),
            bucket=int(m.group("bucket")),
            n_ranks=int(m.group("n")),
            fabric=m.group("fabric"),
            roughness=m.group("roughness"),
        )


# --------------------------------------------------------------------- #
# candidates
# --------------------------------------------------------------------- #
_SLUG_FLAT_RE = re.compile(r"^(ring|rabenseifner|direct|binomial)-(plain|hz)$")
_SLUG_PIPE_RE = re.compile(r"^pipelined(\d+)-hz$")
_SLUG_HIER_RE = re.compile(r"^hier-(ring|rabenseifner)(\d+)-(plain|hz)$")


@dataclass(frozen=True, order=True)
class Candidate:
    """One runnable tuning choice: family × codec (× chunks × placement).

    ``chunks`` is the pipeline depth (> 1 only for ``pipelined``);
    ``ranks_per_node`` records the placement a hierarchical candidate was
    scored for (``NodeMap.regular`` geometry — the table assumes regular
    placement), 0 for flat families.
    """

    family: str
    codec: str
    chunks: int = 1
    ranks_per_node: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise TuningTableError(f"unknown family {self.family!r}")
        if self.codec not in _CODECS:
            raise TuningTableError(f"unknown codec {self.codec!r}")
        if self.family == "pipelined" and (
            self.chunks < 2 or self.codec != "hz"
        ):
            raise TuningTableError(
                "pipelined candidates need chunks >= 2 and the hz codec"
            )
        if self.family == "direct" and self.codec != "hz":
            # the direct rooted reduce only exists as the fused k-way
            # homomorphic schedule — a plain flat gather-and-add is the
            # ring family's job
            raise TuningTableError("direct candidates need the hz codec")
        if self.family != "pipelined" and self.chunks != 1:
            raise TuningTableError("chunks > 1 is pipelined-only")
        if self.hierarchical != (self.ranks_per_node > 0):
            raise TuningTableError(
                "ranks_per_node must be set exactly for hier-* families"
            )

    @property
    def hierarchical(self) -> bool:
        return self.family.startswith("hier-")

    def slug(self) -> str:
        if self.family == "pipelined":
            return f"pipelined{self.chunks}-{self.codec}"
        if self.hierarchical:
            return f"{self.family}{self.ranks_per_node}-{self.codec}"
        return f"{self.family}-{self.codec}"

    @classmethod
    def parse(cls, text: str) -> "Candidate":
        m = _SLUG_FLAT_RE.match(text)
        if m:
            return cls(family=m.group(1), codec=m.group(2))
        m = _SLUG_PIPE_RE.match(text)
        if m:
            return cls(family="pipelined", codec="hz", chunks=int(m.group(1)))
        m = _SLUG_HIER_RE.match(text)
        if m:
            return cls(
                family=f"hier-{m.group(1)}",
                codec=m.group(3),
                ranks_per_node=int(m.group(2)),
            )
        raise TuningTableError(f"malformed candidate slug {text!r}")


def enumerate_candidates(
    n: int, nodemap: NodeMap | None = None, op: str = "allreduce"
) -> tuple[Candidate, ...]:
    """Every applicable candidate for ``n`` ranks, deterministic order.

    * ``ring`` (plain/hz) — always applicable;
    * ``pipelined{c}`` (hz only) — n ≤ :data:`PIPELINE_MAX_RANKS` (the
      schedule-build cap, see the constant's comment) and n ≥ 2;
    * ``rabenseifner`` (plain/hz) — power-of-two n ≥ 2;
    * ``hier-ring`` / ``hier-rabenseifner`` — only with a ``nodemap``
      holding ≥ 2 ranks on some node (otherwise the hierarchy degenerates
      to the flat inter family and would only duplicate it);
      ``hier-rabenseifner`` additionally needs a power-of-two node count.

    The rooted ops enumerate their own (flat) grids: ``reduce`` chooses
    among ``ring-plain`` / ``ring-hz`` (Reduce_scatter + gather) and
    ``direct-hz`` (flat compressed gather + one fused k-way fold);
    ``bcast`` between ``binomial-plain`` and ``binomial-hz``.
    """
    if op not in TUNABLE_OPS:
        raise ValueError(
            f"the tuner supports ops {TUNABLE_OPS}, not {op!r}"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if nodemap is not None and nodemap.n_ranks != n:
        raise ValueError(
            f"nodemap covers {nodemap.n_ranks} ranks, expected {n}"
        )
    if op == "reduce":
        return (
            Candidate("ring", "plain"),
            Candidate("ring", "hz"),
            Candidate("direct", "hz"),
        )
    if op == "bcast":
        return (
            Candidate("binomial", "plain"),
            Candidate("binomial", "hz"),
        )
    cands = [Candidate("ring", "plain"), Candidate("ring", "hz")]
    if 2 <= n <= PIPELINE_MAX_RANKS:
        cands += [
            Candidate("pipelined", "hz", chunks=c) for c in PIPELINE_CHUNKS
        ]
    if n >= 2 and (n & (n - 1)) == 0:
        cands += [
            Candidate("rabenseifner", "plain"),
            Candidate("rabenseifner", "hz"),
        ]
    if nodemap is not None and nodemap.max_node_size > 1:
        rpn = nodemap.max_node_size
        cands += [
            Candidate("hier-ring", "plain", ranks_per_node=rpn),
            Candidate("hier-ring", "hz", ranks_per_node=rpn),
        ]
        k = nodemap.n_nodes
        if k >= 2 and (k & (k - 1)) == 0:
            cands += [
                Candidate("hier-rabenseifner", "plain", ranks_per_node=rpn),
                Candidate("hier-rabenseifner", "hz", ranks_per_node=rpn),
            ]
    return tuple(cands)


#: (op, family, codec) → the family-table row a candidate is priced and
#: run as; every ``hier-*`` family shares the one hierarchical row
_CANDIDATE_FAMILIES = {
    ("allreduce", "ring", "plain"): "mpi_allreduce",
    ("allreduce", "ring", "hz"): "hzccl_allreduce",
    ("allreduce", "pipelined", "hz"): "hzccl_pipelined_allreduce",
    ("allreduce", "rabenseifner", "plain"): "rabenseifner_allreduce",
    ("allreduce", "rabenseifner", "hz"): "hzccl_rabenseifner_allreduce",
    ("allreduce", "hier", "plain"): "mpi_hierarchical_allreduce",
    ("allreduce", "hier", "hz"): "hzccl_hierarchical_allreduce",
    ("reduce", "ring", "plain"): "mpi_reduce",
    ("reduce", "ring", "hz"): "hzccl_reduce",
    ("reduce", "direct", "hz"): "hzccl_reduce_direct",
    ("bcast", "binomial", "plain"): "mpi_bcast",
    ("bcast", "binomial", "hz"): "compressed_bcast",
}


def candidate_family(
    cand: Candidate, op: str = "allreduce", nodemap: NodeMap | None = None
) -> tuple[str, dict]:
    """``(family name, params)`` of the table row ``cand`` stands for.

    The name keys :data:`repro.schedule.families.STAGES` (pricing) and
    ``repro.collectives.FAMILIES`` (running); the params are the ones the
    candidate itself binds — pipeline depth and, for hierarchical
    candidates, placement and the inter-node family.
    """
    if op not in TUNABLE_OPS:
        raise ValueError(f"no tuned dispatch for op {op!r}")
    params: dict = {"chunks": cand.chunks}
    family = cand.family
    if cand.hierarchical:
        if nodemap is None:
            raise ValueError(f"candidate {cand.slug()} needs a nodemap")
        family = "hier"
        params.update(
            nodemap=nodemap, inter=cand.family.removeprefix("hier-")
        )
    name = _CANDIDATE_FAMILIES.get((op, family, cand.codec))
    if name is None:
        raise ValueError(f"candidate {cand.slug()} does not implement {op!r}")
    return name, params


@lru_cache(maxsize=512)
def candidate_stages(
    cand: Candidate, n: int, nodemap: NodeMap | None = None,
    op: str = "allreduce",
):
    """The (schedule, discipline) stage pairs pricing/running ``cand``.

    This is the profile-reuse hoist: the cache holds *strong* references
    to the generator schedules, so the weak-ref profile cache in
    :mod:`~repro.schedule.cost` keeps one structural profile alive per
    (schedule, discipline) across an entire tuning sweep — every message
    size and roughness class scored against the same ``(cand, n)`` reuses
    it instead of rebuilding (see ``tests/schedule/test_profile_reuse``).

    The stages are read from the candidate's family-table row, so they
    are the objects the interpreter executes.  The rooted ops price
    against the canonical ``root=0`` schedules — their generators are
    root-isomorphic, so the modelled cost is root-independent and the
    table stays root-agnostic.
    """
    name, params = candidate_family(cand, op, nodemap)
    return priced_stages(name, n=n, **params)


# --------------------------------------------------------------------- #
# roughness
# --------------------------------------------------------------------- #
def classify_roughness(
    data: np.ndarray, error_bound: float, sample: int = 65536
) -> str:
    """Map actual data to the table's roughness axis.

    fZ-light Lorenzo-predicts each value from its left neighbour, so the
    compressed size tracks the entropy of the quantised first differences.
    The classifier estimates mean bits/value as
    ``log2(1 + |Δ|/eb)`` over (a sample of) the data and splits at
    :data:`ROUGHNESS_BITS_THRESHOLD` — cheap, deterministic, and
    monotone in the error bound like the real compressor.
    """
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    flat = np.asarray(data).ravel()[:sample].astype(np.float64)
    if flat.size < 2:
        return "smooth"
    diffs = np.abs(np.diff(flat))
    bits = float(np.mean(np.log2(1.0 + diffs / error_bound)))
    return "smooth" if bits <= ROUGHNESS_BITS_THRESHOLD else "rough"


def rates_for_roughness(rates, roughness: str):
    """Scoring rates for one roughness class.

    ``smooth`` keeps the calibrated compression ratio; ``rough`` clamps
    it to :data:`ROUGH_RATIO` (barely compressible), which is what makes
    plain candidates win back the small/rough corner of the table.
    """
    if roughness not in ROUGHNESS_CLASSES:
        raise ValueError(f"unknown roughness class {roughness!r}")
    if roughness == "rough" and rates.ratio > ROUGH_RATIO:
        return replace(rates, ratio=ROUGH_RATIO)
    return rates


# --------------------------------------------------------------------- #
# scoring
# --------------------------------------------------------------------- #
def score_candidate(
    cand: Candidate,
    n: int,
    size_bytes: int,
    rates,
    network: NetworkModel,
    roughness: str = "smooth",
    nodemap: NodeMap | None = None,
    op: str = "allreduce",
) -> float:
    """Modelled seconds for one candidate at one grid point."""
    r = rates_for_roughness(rates, roughness) if cand.codec == "hz" else rates
    stages = candidate_stages(
        cand, n, nodemap if cand.hierarchical else None, op
    )
    return sum(
        schedule_cost(sched, disc, size_bytes, r, network).total_time
        for sched, disc in stages
    )


@dataclass(frozen=True)
class TableEntry:
    """One tuning decision: the overall pick plus the best *flat* pick.

    ``flat_pick`` is consulted when a caller has no :class:`NodeMap` (no
    placement information ⇒ hierarchical schedules are unavailable), so a
    table built with placement still serves placement-free callers.

    ``network`` records which scoring network produced the entry — the
    fabric name for idealised sweeps, a ``calibrated:<source>`` label
    when the costs came from a measured α–β fit (``repro tune run
    --calibration``).  Provenance only: merge conflict resolution and
    lookups ignore it.
    """

    pick: Candidate
    cost_s: float
    flat_pick: Candidate
    flat_cost_s: float
    network: str = ""

    def __post_init__(self) -> None:
        for name in ("cost_s", "flat_cost_s"):
            v = getattr(self, name)
            if not (isinstance(v, float) and math.isfinite(v) and v > 0):
                raise TuningTableError(
                    f"{name} must be a positive finite float, got {v!r}"
                )
        if self.flat_pick.hierarchical:
            raise TuningTableError("flat_pick must not be hierarchical")

    def as_dict(self) -> dict:
        return {
            "pick": self.pick.slug(),
            "cost_s": self.cost_s,
            "flat_pick": self.flat_pick.slug(),
            "flat_cost_s": self.flat_cost_s,
            "network": self.network,
        }

    @classmethod
    def from_dict(cls, doc: object) -> "TableEntry":
        if not isinstance(doc, dict):
            raise TuningTableError(f"table entry must be an object, got {doc!r}")
        try:
            pick = Candidate.parse(doc["pick"])
            flat_pick = Candidate.parse(doc["flat_pick"])
            cost_s = float(doc["cost_s"])
            flat_cost_s = float(doc["flat_cost_s"])
            network = str(doc.get("network", ""))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TuningTableError):
                raise
            raise TuningTableError(f"malformed table entry {doc!r}") from exc
        return cls(
            pick=pick, cost_s=cost_s,
            flat_pick=flat_pick, flat_cost_s=flat_cost_s,
            network=network,
        )


def tune_point(
    n: int,
    size_bytes: int,
    network: NetworkModel,
    roughness: str,
    rates,
    nodemap: NodeMap | None = None,
    dtype: str = "float32",
    op: str = "allreduce",
    network_label: str | None = None,
) -> tuple[TuningKey, TableEntry, dict[str, float]]:
    """Score every candidate at one grid point.

    Returns the key, the winning entry (argmin of modelled cost, slug
    lexical order breaking exact ties so the pick is deterministic), and
    the full ``slug → cost`` map for gates/fixtures.  ``network_label``
    overrides the provenance recorded on the entry (calibrated sweeps
    label their fit's source document; the default is the fabric name).
    """
    key = TuningKey(
        op=op,
        dtype=dtype,
        bucket=size_bucket(size_bytes),
        n_ranks=n,
        fabric=fabric_name(network),
        roughness=roughness,
    )
    costs: dict[str, float] = {}
    best = flat_best = None
    for cand in enumerate_candidates(n, nodemap, op=op):
        cost = score_candidate(
            cand, n, size_bytes, rates, network, roughness, nodemap, op
        )
        costs[cand.slug()] = cost
        ranked = (cost, cand.slug())
        if best is None or ranked < (best[0], best[1].slug()):
            best = (cost, cand)
        if not cand.hierarchical and (
            flat_best is None or ranked < (flat_best[0], flat_best[1].slug())
        ):
            flat_best = (cost, cand)
    assert best is not None and flat_best is not None
    entry = TableEntry(
        pick=best[1], cost_s=best[0],
        flat_pick=flat_best[1], flat_cost_s=flat_best[0],
        network=(
            network_label if network_label is not None
            else fabric_name(network)
        ),
    )
    return key, entry, costs


# --------------------------------------------------------------------- #
# the persisted table
# --------------------------------------------------------------------- #
def _better(a: TableEntry, b: TableEntry) -> TableEntry:
    """Deterministic merge conflict resolution: lower modelled cost wins,
    slug lexical order breaks exact ties — order-independent, so merge
    stays commutative on overlapping keys."""
    ka = (a.cost_s, a.pick.slug(), a.flat_cost_s, a.flat_pick.slug())
    kb = (b.cost_s, b.pick.slug(), b.flat_cost_s, b.flat_pick.slug())
    return a if ka <= kb else b


class TuningTable:
    """Versioned, mergeable, byte-stable on-disk tuning table.

    * ``dumps``/``saves`` emit sorted-key JSON with a trailing newline, so
      save→load→save is byte-identical (the property tests pin this);
    * ``loads`` fully parses and validates before constructing — a
      corrupt or future-schema document raises :class:`TuningTableError`
      and leaves no partial state;
    * ``merge`` is commutative and idempotent: disjoint keys union,
      overlapping keys resolve by :func:`_better`.
    """

    def __init__(self, entries: dict[TuningKey, TableEntry] | None = None):
        self.entries: dict[TuningKey, TableEntry] = dict(entries or {})

    # -- construction / inspection ------------------------------------ #
    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuningTable):
            return NotImplemented
        return self.entries == other.entries

    def lookup(self, key: TuningKey) -> TableEntry | None:
        return self.entries.get(key)

    def put(self, key: TuningKey, entry: TableEntry) -> None:
        cur = self.entries.get(key)
        self.entries[key] = entry if cur is None else _better(cur, entry)

    def merge(self, other: "TuningTable") -> "TuningTable":
        merged = dict(self.entries)
        for key, entry in other.entries.items():
            cur = merged.get(key)
            merged[key] = entry if cur is None else _better(cur, entry)
        return TuningTable(merged)

    # -- serialisation ------------------------------------------------- #
    def dumps(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "entries": {
                key.canonical(): entry.as_dict()
                for key, entry in self.entries.items()
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "TuningTable":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TuningTableError(f"tuning table is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise TuningTableError(
                f"tuning table must be a JSON object, got {type(doc).__name__}"
            )
        schema = doc.get("schema")
        if not isinstance(schema, int) or schema < 1:
            raise TuningTableError(f"missing/invalid table schema: {schema!r}")
        if schema > SCHEMA_VERSION:
            raise TuningTableError(
                f"tuning table schema {schema} is newer than the supported "
                f"{SCHEMA_VERSION} — upgrade before loading this table"
            )
        raw = doc.get("entries", {})
        if not isinstance(raw, dict):
            raise TuningTableError("table 'entries' must be an object")
        entries: dict[TuningKey, TableEntry] = {}
        for key_text, entry_doc in raw.items():
            entries[TuningKey.parse(key_text)] = TableEntry.from_dict(entry_doc)
        return cls(entries)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "TuningTable":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise TuningTableError(
                f"cannot read tuning table {path!r}: {exc}"
            ) from exc
        return cls.loads(text)


def resolve_table_path(
    config=None, path: str | None = None
) -> str | None:
    """Explicit path > ``config.tuning_table_path`` > ``$REPRO_TUNING_TABLE``."""
    if path is not None:
        return path
    config_path = getattr(config, "tuning_table_path", None)
    if config_path is not None:
        return config_path
    return os.environ.get(TABLE_ENV_VAR) or None


def load_default_table(path: str | None) -> TuningTable:
    """The table at ``path``; an empty table when no path is configured or
    the file does not exist yet (misses fall back to enumeration)."""
    if path is None or not os.path.exists(path):
        return TuningTable()
    return TuningTable.load(path)


# --------------------------------------------------------------------- #
# lookup: table → LRU memo → enumeration
# --------------------------------------------------------------------- #
class _LRU:
    """Tiny ordered-dict LRU for memoising enumeration results."""

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


#: process-wide memo of enumerated entries; keyed by everything the score
#: depends on, so two different fabrics (or rates) never share an entry.
_ENTRY_MEMO = _LRU(maxsize=256)


def lookup_entry(
    key: TuningKey,
    network: NetworkModel,
    rates,
    nodemap: NodeMap | None = None,
    table: TuningTable | None = None,
) -> tuple[TableEntry, str]:
    """Resolve a key: persisted table, then LRU memo, then enumeration.

    Returns ``(entry, source)`` with source ∈ {"table", "memo",
    "enumerated"} — the entry point feeds the source straight into the
    :mod:`repro.obs` counters.
    """
    if table is not None:
        entry = table.lookup(key)
        if entry is not None:
            return entry, "table"
    memo_key = (key, network, rates, nodemap)
    cached = _ENTRY_MEMO.get(memo_key)
    if cached is not None:
        return cached, "memo"
    _, entry, _ = tune_point(
        key.n_ranks,
        bucket_bytes(key.bucket),
        network,
        key.roughness,
        rates,
        nodemap,
        dtype=key.dtype,
        op=key.op,
    )
    _ENTRY_MEMO.put(memo_key, entry)
    return entry, "enumerated"
