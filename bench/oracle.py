"""Answer checking: every served answer is compared with one computed
at set-up by an independent route (row-mode execution over plain
in-memory tables holding the same generated documents)."""

from __future__ import annotations

import json
from typing import Any, Iterable, List


def _normalize(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value


def canon(rows: Iterable[dict]) -> List[str]:
    """Order- and float-ulp-insensitive canonical form of a result set
    (the same normalisation ``tests/integration/test_chaos_sweep.py``
    uses: sharded gathers may reorder rows and re-associate float sums)."""
    return sorted(json.dumps(_normalize(row), sort_keys=True, default=repr)
                  for row in rows)
