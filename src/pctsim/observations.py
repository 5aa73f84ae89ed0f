"""The observation log: what each app agent could observe, recorded once per day.

An app agent observes, for each contact of the last ``window`` days, the
level it holds for that contact and how often they met. The log keeps
each day's directed app edges once, in the engine's own arrays (int32
``app_ids`` indexes and the uint16 count clipped to 65535), together
with that day's held levels over app senders. Day d's observation table
is cut from these on demand, by one sort of a packed 64-bit key per row::

    ((receiver * window + k) * 16 + level) * 65536 + count

where ``k`` is how many days before d the contact happened. Equal keys
are equal rows, so the sorted key orders every receiver's rows by
(k, level, count). The key layout is known to this module only.
"""

from __future__ import annotations

import copy

import numpy as np

_K_SHIFT, _LEVEL_SHIFT = np.uint64(20), np.uint64(16)
_LEVEL_MASK, _COUNT_MASK = np.uint64(15), np.uint64(65535)


class ObservationLog:
    """Per-day app edges and held levels, read as one ``(starts, rows)`` table per day.

    ``log[d]`` is day d's table: ``rows`` is the uint16 ``(k, level, count)``
    table of every contact held in the window, sorted by (receiver, k,
    level, count); app agent ``app_ids[i]`` owns ``rows[starts[i]:starts[i + 1]]``,
    and ``starts[-1] == len(rows)``. A slice is a read-only view of the
    same record over fewer days, and iteration yields each day's table.
    """

    def __init__(self, n_app: int, window: int):
        self.n_app, self.window = int(n_app), int(window)
        self._edges = []  # per day: receiver, sender (app indexes), count
        self._held = []   # per day: (n_app, span) int8, column k the level held for day d - k
        self._days = range(0)

    def append(self, receiver, sender, count, held):
        """Log one day: its app edges, and the levels held as of that day.

        ``held[j, k]`` is the level that app sender ``j``'s partners of
        ``k`` days ago hold for it, one column per day of the window the
        run has reached. The arrays are kept, not copied: do not write to them.
        """
        self._edges.append((receiver, sender, count))
        self._held.append(held)
        self._days = range(len(self._held))

    def __len__(self):
        return len(self._days)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = copy.copy(self)
            view._days = self._days[index]
            return view
        key = self.key(index)
        rows = np.empty((key.size, 3), dtype=np.uint16)
        rows[:, 0] = (key >> _K_SHIFT) % np.uint64(self.window)
        rows[:, 1] = (key >> _LEVEL_SHIFT) & _LEVEL_MASK
        rows[:, 2] = key & _COUNT_MASK
        return self._offsets(key)[::self.window], rows

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def nbytes(self) -> int:
        """Bytes held by the logged arrays (shared with any slice of the log)."""
        return (sum(a.nbytes for day in self._edges for a in day)
                + sum(h.nbytes for h in self._held))

    def key(self, index) -> np.ndarray:
        """The sorted packed key of the ``index``-th day's observation table."""
        day = self._days[index]
        held = self._held[day]
        parts = []
        for k in range(held.shape[1]):
            receiver, sender, count = self._edges[day - k]
            parts.append(((receiver.astype(np.int64) * self.window + k) * 16
                          + held[sender, k]) * 65536 + count)
        key = np.concatenate(parts).view(np.uint64)
        key.sort()
        return key

    def cells(self, index):
        """The ``index``-th day's table as cell offsets, levels and counts.

        Cell ``i * window + k`` (app agent ``app_ids[i]``, ``k`` days ago)
        is rows ``offsets[c]:offsets[c + 1]``; ``offsets`` is intp, and
        ``levels`` (uint8) and ``counts`` (uint16) are arrays over the rows.
        """
        key = self.key(index)
        return (self._offsets(key),
                ((key >> _LEVEL_SHIFT) & _LEVEL_MASK).astype(np.uint8),
                (key & _COUNT_MASK).astype(np.uint16))

    def _offsets(self, key) -> np.ndarray:
        """Row offsets of every cell of a sorted key, one count per cell."""
        cells = self.n_app * self.window
        offsets = np.zeros(cells + 1, dtype=np.intp)
        np.cumsum(np.bincount((key >> _K_SHIFT).view(np.int64), minlength=cells),
                  out=offsets[1:])
        return offsets
