"""Avantan: the paper's fault-tolerant redistribution consensus (§4.3).

One round skeleton, :class:`~repro.core.avantan.base.AvantanProtocol`,
and two variants that override only the decisions they differ on:

- :class:`~repro.core.avantan.majority.AvantanMajority` —
  Avantan[(n+1)/2], Algorithm 1: requires a live majority, executes one
  redistribution at a time, Paxos-style recovery.
- :class:`~repro.core.avantan.star.AvantanStar` — Avantan[*], Algorithm 1
  with the three changes of §4.3.2: any subset of sites may participate,
  concurrent disjoint redistributions are allowed, and the decision
  requires Accept-oks from *all* participants.

Unlike Paxos, the agreed value is not known at protocol start: it is the
concatenation of the participants' token states, constructed in phase 1.
"""

from repro.core.avantan.state import Ballot, AvantanState, AcceptValue
from repro.core.avantan.majority import AvantanMajority
from repro.core.avantan.star import AvantanStar

__all__ = ["Ballot", "AvantanState", "AcceptValue", "AvantanMajority", "AvantanStar"]
