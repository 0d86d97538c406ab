"""In-memory access observer and address decoding shared by the tests."""

import numpy as np


class CollectingObserver:
    """Observer keeping every emitted access in memory."""

    def __init__(self):
        self.smap = None
        self._kinds = [np.empty(0, dtype=np.uint8)]
        self._addrs = [np.empty(0, dtype=np.uint64)]

    def register_structures(self, smap) -> None:
        self.smap = smap

    def emit(self, kinds, addrs) -> None:
        self._kinds.append(np.array(kinds, dtype=np.uint8))
        self._addrs.append(np.array(addrs, dtype=np.uint64))

    @property
    def n_events(self) -> int:
        return sum(len(a) for a in self._addrs)

    def arrays(self):
        """Return (kinds, addrs) concatenated."""
        return np.concatenate(self._kinds), np.concatenate(self._addrs)


def in_region(smap, name, addrs) -> np.ndarray:
    """Mask of the addresses that fall in structure ``name``."""
    reg = smap.region(name)
    addrs = np.asarray(addrs)
    return (addrs >= reg.base) & (addrs < reg.end)
