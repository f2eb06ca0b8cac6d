"""Message and link models for the event-driven simulator.

The δ model (Section 3.1) abstracts communication into the data-flow
function β; this package *realises* the abstraction: routes travel as
explicit :class:`Announcement` messages over :class:`Link` channels
that can delay, drop, duplicate and reorder them.  A simulator run
therefore induces some admissible (α, β) — the witness extracted in
:mod:`repro.protocols.trace` — which is exactly the sense in which the
paper's convergence theorems cover real message-passing protocols.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.algebra import Route


@dataclass(frozen=True)
class Announcement:
    """One routing update: ``sender`` tells ``receiver`` its route to ``dest``.

    ``gen_step`` is the sender-side activation step that produced the
    announced route — the raw material for reconstructing β.
    """

    sender: int
    receiver: int
    dest: int
    route: Route
    gen_step: int


@dataclass
class LinkConfig:
    """Channel behaviour for one directed link (sender → receiver).

    * ``min_delay``/``max_delay`` — per-message propagation delay drawn
      uniformly from the interval (reordering arises whenever
      ``max_delay > min_delay`` and FIFO is off);
    * ``loss`` — probability a message is silently dropped;
    * ``duplicate`` — probability a message is delivered twice (the
      second copy with an independent delay);
    * ``fifo`` — enforce in-order delivery (what classical proofs
      assume; the paper's point is that we do NOT need it, so the
      default is off).
    """

    min_delay: float = 0.5
    max_delay: float = 2.0
    loss: float = 0.0
    duplicate: float = 0.0
    fifo: bool = False

    def __post_init__(self):
        if self.min_delay <= 0 or self.max_delay < self.min_delay:
            raise ValueError("need 0 < min_delay <= max_delay")
        if not (0.0 <= self.loss < 1.0):
            raise ValueError("loss must be in [0, 1)")
        if not (0.0 <= self.duplicate <= 1.0):
            raise ValueError("duplicate must be in [0, 1]")

    def sample_delay(self, rng) -> float:
        return rng.uniform(self.min_delay, self.max_delay)


#: A well-behaved channel: modest jitter, no loss or duplication.
RELIABLE = LinkConfig()

#: A hostile channel: heavy jitter, 20% loss, 10% duplication.
HOSTILE = LinkConfig(min_delay=0.2, max_delay=5.0, loss=0.2, duplicate=0.1)
