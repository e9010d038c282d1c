"""JSON_DATAGUIDEAGG: the transient DataGuide as a SQL aggregate (section 3.4).

Two entry points:

* :func:`json_dataguide_agg` — the functional form: aggregate any
  iterable of JSON documents (text, OSON/BSON bytes or Python values),
  with optional Bernoulli sampling matching ``FROM po SAMPLE (50)``;
* :class:`JsonDataGuideAgg` — the engine aggregate, usable inside
  ``Query.group_by`` exactly like the paper's Q2
  (``select json_dataguideagg(jcol) from po group by insertion_date``).

Because the transient DataGuide is computed by a plain aggregation over a
query result, it works over filtered subsets (Q3) and over external row
sources — no index, no stored schema.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Optional

from repro.core.dataguide.builder import DataGuideBuilder
from repro.core.dataguide.guide import DataGuide
from repro.engine.constraints import decode_json
from repro.engine.expressions import Aggregate, AggregateState, Col, Expression


def json_dataguide_agg(documents: Iterable[Any],
                       sample_percent: Optional[float] = None,
                       seed: Optional[int] = None) -> DataGuide:
    """Aggregate a DataGuide over ``documents``.

    ``sample_percent`` applies Bernoulli sampling (each document kept with
    probability p/100), the semantics of Oracle's ``SAMPLE (p)`` clause in
    the paper's Q1.  ``seed`` makes sampling reproducible.
    """
    if sample_percent is not None and not 0 < sample_percent <= 100:
        raise ValueError("sample_percent must be in (0, 100]")
    rng = random.Random(seed)
    builder = DataGuideBuilder()
    for document in documents:
        if sample_percent is not None and rng.uniform(0, 100) >= sample_percent:
            continue
        builder.add(decode_json(document))
    return builder.guide()


class JsonDataGuideAgg(Aggregate):
    """``JSON_DATAGUIDEAGG(col)`` for the engine's group-by operator.

    The aggregate value is a :class:`DataGuide`; call ``as_flat()`` /
    ``as_hierarchical()`` on it for the JSON forms of section 3.2.2.
    """

    name = "JSON_DATAGUIDEAGG"

    class _State(AggregateState):
        def __init__(self, operand: Expression) -> None:
            self._fn = operand.compiled()
            self.builder = DataGuideBuilder()

        def step(self, row: dict) -> None:
            value = self._fn(row)
            if value is None:
                return
            self.builder.add(decode_json(value))

        def merge(self, other: AggregateState) -> None:
            # gather of per-shard partials: the builders' union
            self.builder.merge_builder(other.builder)

        def final(self) -> DataGuide:
            return self.builder.guide()

    def __init__(self, operand: Any) -> None:
        if isinstance(operand, str):
            operand = Col(operand)
        super().__init__(operand)

    def create(self) -> AggregateState:
        return self._State(self.operand)
