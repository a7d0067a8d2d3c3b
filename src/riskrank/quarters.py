"""Quarterly date arithmetic on plain integer indices (year*4 + quarter - 1).

Integer indices make horizon windows and publication lags exact; labels use
the ``YYYY-Qn`` form everywhere in files and on the CLI.
"""

from __future__ import annotations

import re
from functools import lru_cache

# ASCII digits only: ``\d`` would also match other scripts' digits, which
# ``int`` reads, so "２０００-Q1" would pass as 2000-Q1
_QUARTER_RE = re.compile(r"^([0-9]{4})-Q([1-4])$")


@lru_cache(maxsize=1024)
def quarter_index(label: str) -> int:
    """Parse ``YYYY-Qn`` into an absolute quarter index.

    Results are memoised by label, since input files repeat a few dates on
    many rows; a bad label is not cached and raises on every call.
    """
    m = _QUARTER_RE.match(label.strip())
    if m is None:
        raise ValueError(f"bad quarter {label!r}, expected YYYY-Qn")
    year, q = int(m.group(1)), int(m.group(2))
    return year * 4 + (q - 1)


@lru_cache(maxsize=1024)
def quarter_label(index: int) -> str:
    """Format an absolute quarter index as ``YYYY-Qn``.

    Memoised like ``quarter_index``: writers label every row, and a series
    repeats a few quarters on many rows.
    """
    if index < 0:
        raise ValueError("quarter index must be nonnegative")
    return f"{index // 4:04d}-Q{index % 4 + 1}"
