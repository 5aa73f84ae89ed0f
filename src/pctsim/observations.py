"""The observation log: what each app agent could observe, recorded once per day.

An app agent observes, for each contact of the last ``window`` days, the
level it holds for that contact and how often they met. The log keeps
each day's directed app edges once, in the engine's own arrays (int32
``app_ids`` indexes and the uint16 count clipped to 65535), together
with that day's held levels over app senders. Day d's cells are cut from
these on demand, by one sort of a packed 64-bit key per row::

    ((receiver * window + k) * 16 + level) * 65536 + count

where ``k`` is how many days before d the contact happened. Equal keys
are equal rows, so the sorted key orders every cell's rows by (level,
count). The key layout is known to this module only.
"""

from __future__ import annotations

import numpy as np

_K_SHIFT, _LEVEL_SHIFT = np.uint64(20), np.uint64(16)
_LEVEL_MASK, _COUNT_MASK = np.uint64(15), np.uint64(65535)


class ObservationLog:
    """Per-day app edges and held levels, read as one day's cells at a time.

    ``log[d]`` is day d's ``(offsets, levels, counts)``: cell
    ``c = i * window + k`` (app agent ``app_ids[i]``, contacts of ``k`` days
    before d) is rows ``offsets[c]:offsets[c + 1]``, sorted by (level, count).
    ``offsets`` is intp, and ``levels`` (uint8) and ``counts`` (uint16) are
    arrays over the rows. A negative ``d`` counts from the last logged day.
    """

    def __init__(self, n_app: int, window: int):
        self.n_app, self.window = int(n_app), int(window)
        self._edges = []  # per day: receiver, sender (app indexes), count
        self._held = []   # per day: (n_app, span) int8, column k the level held for day d - k

    def append(self, receiver, sender, count, held):
        """Log one day: its app edges, and the levels held as of that day.

        ``held[j, k]`` is the level that app sender ``j``'s partners of
        ``k`` days ago hold for it, one column per day of the window the
        run has reached. The arrays are kept, not copied: do not write to them.
        """
        self._edges.append((receiver, sender, count))
        self._held.append(held)

    def __len__(self):
        return len(self._held)

    def __getitem__(self, d):
        day = range(len(self))[d]
        held = self._held[day]
        parts = []
        for k in range(held.shape[1]):
            receiver, sender, count = self._edges[day - k]
            parts.append(((receiver.astype(np.int64) * self.window + k) * 16
                          + held[sender, k]) * 65536 + count)
        key = np.concatenate(parts).view(np.uint64)
        key.sort()
        cells = self.n_app * self.window
        offsets = np.zeros(cells + 1, dtype=np.intp)
        np.cumsum(np.bincount((key >> _K_SHIFT).view(np.int64), minlength=cells),
                  out=offsets[1:])
        return (offsets, ((key >> _LEVEL_SHIFT) & _LEVEL_MASK).astype(np.uint8),
                (key & _COUNT_MASK).astype(np.uint16))

    @property
    def nbytes(self) -> int:
        """Bytes held by the logged arrays."""
        return (sum(a.nbytes for day in self._edges for a in day)
                + sum(h.nbytes for h in self._held))
