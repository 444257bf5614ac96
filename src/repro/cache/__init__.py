"""``repro.cache`` — the repetition-aware cross-batch result cache.

Conjunction sub-chain bitmaps keyed by :mod:`repro.optimizer.canonical`
keys, consulted by the batch plan optimizer, invalidated by writes, and
accounted end-to-end through the metrics roll-ups.  See
:mod:`repro.cache.result_cache`.
"""

from __future__ import annotations

from repro.cache.result_cache import ResultCache

__all__ = ["ResultCache"]
