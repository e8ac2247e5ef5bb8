"""Named deterministic random streams.

Every stochastic component of the model draws from its own named stream
so that adding randomness to one component never perturbs another — a
standard discipline for reproducible simulation studies.  Streams are
derived from the engine seed and the stream name, so the same
(seed, name) pair always yields the same sequence.
"""

from __future__ import annotations

import hashlib
import random


class RngStreams:
    """A family of :class:`random.Random` streams keyed by name."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            material = f"{self.seed}:{name}".encode()
            digest = hashlib.sha256(material).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def __getitem__(self, name: str) -> random.Random:
        return self.stream(name)
