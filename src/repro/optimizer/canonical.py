"""Canonical structural keys for predicate sub-chains.

Common-subexpression elimination works on *structure*: two sub-chains may
be shared when they compute the same bitmap from the same source planes.
This module assigns every predicate sub-chain a canonical, hashable key
such that structurally equal chains collide:

* **Value-set normalization** — a predicate ``col IN values`` keys on the
  *sorted* value tuple: the OR of value bitmaps is order-insensitive.
  The multiset is preserved (no deduplication), so the unoptimized cost
  model of a single request is untouched by keying alone.
* **Commutative ordering** — AND is commutative and associative over
  bitmaps, so a conjunction's predicate keys are sorted, and its whole
  key is ``("and", *sorted predicate keys)``: two requests listing the
  same predicates in different order key alike.

Keys are plain nested tuples (hashable, comparable by ``repr``), scoped
by the identity of the bitmap source so two different indexes never
share a chain.

Everything above except the source's identity depends on the
conjunction's *shape* alone, so :class:`ConjunctionShape` derives it once
per template — a planner interns one beside the shape's
:class:`~repro.api.plans.CompiledChain` — and only
:meth:`ConjunctionShape.keys` runs per request: it stamps ``id(index)``
into the pre-ordered keys.  A shape holds no index and no ``id``, so
nothing interned can answer for a source it was not asked about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Sequence, Tuple

#: A canonical sub-chain key: a nested tuple of op names, source ids,
#: column names and value tuples.  Only equality/hashing semantics
#: matter; the structure is an implementation detail.
Key = Tuple[Any, ...]


def predicate_key(index: object, column: str, values: Sequence[int]) -> Key:
    """Canonical key of one ``col IN values`` predicate sub-chain.

    Scoped by the bitmap source's identity (two indexes never share),
    with the value multiset sorted (OR is order-insensitive).
    """
    return ("in", id(index), column, tuple(sorted(values)))


def sort_token(key: Key) -> str:
    """Deterministic total-order token for heterogeneous keys."""
    return repr(key)


@dataclass(frozen=True, slots=True)
class ConjunctionShape:
    """What canonical lowering derives from a conjunction's shape alone.

    Attributes:
        predicates: ``(column, sorted values)`` per predicate, in
            canonical-key order (the order the optimizer lowers them in).
        columns: Dependency-column set of each predicate's sub-chain.
        dep_columns: The whole conjunction's dependency columns.
        plan_total: Bulk ops the unoptimized plan charges.
        packed_bytes: Bytes of one packed result bitmap.
        rows: Device rows one vector spans (the ``op_cost`` row count).
    """

    predicates: Tuple[Tuple[str, Tuple[int, ...]], ...]
    columns: Tuple[FrozenSet[str], ...]
    dep_columns: FrozenSet[str]
    plan_total: int
    packed_bytes: int
    rows: int

    @classmethod
    def of(
        cls,
        predicates: Sequence[Tuple[str, Sequence[int]]],
        num_rows: int,
        row_size_bytes: int,
    ) -> "ConjunctionShape":
        """Derive the shape of ``predicates`` over a ``num_rows`` source."""
        # Every key of one request carries the same source id, so the
        # canonical order never depends on it: order with a placeholder.
        ordered = sorted(
            ((column, tuple(sorted(values))) for column, values in predicates),
            key=lambda item: sort_token(("in", 0, *item)),
        )
        packed_bytes = (num_rows + 7) // 8
        return cls(
            predicates=tuple(ordered),
            columns=tuple(frozenset((column,)) for column, _values in ordered),
            dep_columns=frozenset(column for column, _values in ordered),
            plan_total=sum(len(values) - 1 for _c, values in ordered) + len(ordered) - 1,
            packed_bytes=packed_bytes,
            rows=max(1, -(-packed_bytes // row_size_bytes)),
        )

    def keys(self, index: object) -> Tuple[Tuple[Key, ...], Key]:
        """``(predicate keys in canonical order, whole-conjunction key)``
        over ``index`` — equal to :func:`predicate_key` per predicate, and
        ``("and", *predicate keys)`` for the whole."""
        index_id = id(index)
        parts = tuple([("in", index_id, column, values) for column, values in self.predicates])
        return parts, ("and", *parts)
