"""Safety invariant checking for Samya deployments.

The paper's system-level constraint (Eq. 1) is that clients never
collectively hold more than M_e tokens.  Combined with per-site
non-negative balances, that is equivalent to global conservation:

    sum(settled tokens at sites) + tokens held by clients == M_e

(plus, for the escrow baseline, whose sites lend tokens to each other,
the tokens lent and not yet received: ``in_transit_tokens``).

"Settled" handles the one legal transient: between a redistribution's
decision and its application at every participant, an already-applied
site holds its new share while a not-yet-applied (frozen) participant
still shows its pooled balance.  The checker resolves the transient by
substituting the decided grant for every participant that has not
applied yet, so any *real* leak or double-spend still trips it.

Reporting
---------
Without a telemetry bus the checker raises :class:`InvariantViolation`
— the right behaviour for tests and untraced benchmark runs, where a
broken invariant must fail the run on the spot.  With a bus attached
(``checker.obs = bus``, done by the harness whenever tracing or
auditing is on) it instead emits ``invariant.violation`` events with
the full arithmetic and keeps running, and every audit records an
``invariant.check`` event; the online/offline auditor
(:mod:`repro.obs.audit`) re-verifies those numbers and turns any
violation into a non-zero exit.  A live asyncio run in particular must
not unwind the event loop from a timer callback mid-experiment — the
trace plus the auditor preserve the failure without losing the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InvariantViolation(AssertionError):
    """A safety property of the system was broken."""


@dataclass
class _ValueRecord:
    participants: tuple[str, ...]
    granted: dict[str, int]
    #: What each participant pooled into the value (its InitVal balance).
    pooled: dict[str, int]
    applied_by: set[str] = field(default_factory=set)


class ConservationChecker:
    """Hooks into sites' apply listeners and audits global token counts."""

    def __init__(self, maximum: int) -> None:
        self.maximum = maximum
        self._sites: list = []
        self._values: dict[object, _ValueRecord] = {}
        self.checks = 0
        self.violations = 0
        #: Telemetry bus; when set, violations become ``invariant.violation``
        #: events (and audits ``invariant.check`` events) instead of raises.
        self.obs = None

    def watch(self, sites: list) -> None:
        self._sites = list(sites)
        for site in sites:
            site.apply_listeners.append(self._on_apply)

    def _violation(self, invariant: str, detail: str, **context) -> None:
        """Report one broken invariant: emit in-trace, or raise."""
        self.violations += 1
        obs = self.obs
        if obs is not None:
            obs.emit(
                "invariant.violation", invariant=invariant, detail=detail, **context
            )
            return
        raise InvariantViolation(detail)

    def _on_apply(self, site, value, granted) -> None:
        record = self._values.get(value.value_id)
        if record is None:
            if granted is None:
                # A non-participant stored/learned the value; nothing moved.
                return
            record = _ValueRecord(
                value.participants,
                dict(granted),
                {state.site_id: state.tokens_left for state in value.states},
            )
            self._values[value.value_id] = record
        if granted is not None and record.granted != granted:
            self._violation(
                "agreement",
                f"sites disagree on the allocation of {value.value_id}: "
                f"{record.granted} vs {granted} — Avantan agreement broken",
                value_id=str(value.value_id),
            )
        record.applied_by.add(site.name)

    # -- the audit ---------------------------------------------------------

    def settled_tokens(self) -> int:
        """Sum of per-site balances with in-flight grants substituted.

        For a participant that has not applied a decided value yet, the
        settled balance is its decided grant plus whatever it earned on
        top of its pooled contribution since (degraded-mode releases) —
        the same delta rule the site itself will apply.
        """
        adjust: dict[str, int] = {}
        for record in self._values.values():
            missing = set(record.participants) - record.applied_by
            for name in missing:
                adjust[name] = record.granted.get(name, 0) - record.pooled.get(name, 0)
        total = 0
        for site in self._sites:
            total += site.state.tokens_left + adjust.get(site.name, 0)
        return total

    def outstanding_tokens(self) -> int:
        """Tokens currently held by clients, from the sites' ledgers."""
        acquired = sum(site.counters["acquired_tokens"] for site in self._sites)
        released = sum(site.counters["released_tokens"] for site in self._sites)
        return acquired - released

    def in_transit_tokens(self) -> int | None:
        """Tokens one site has lent and the borrower not yet received.

        ``None`` for deployments whose sites never lend tokens to each
        other: Samya moves tokens only through Avantan's decided values,
        which ``settled_tokens`` already accounts.
        """
        return None

    def check(self) -> None:
        """Assert conservation and the Eq. 1 constraint right now."""
        self.checks += 1
        settled = self.settled_tokens()
        outstanding = self.outstanding_tokens()
        transit = self.in_transit_tokens()
        # The transit term (and its event field) exists only where sites lend.
        lent = {} if transit is None else {"transit": transit}
        obs = self.obs
        if obs is not None:
            obs.emit(
                "invariant.check",
                settled=settled,
                outstanding=outstanding,
                **lent,
                maximum=self.maximum,
                checks=self.checks,
            )
        if transit is not None and transit < 0:
            self._violation(
                "conservation",
                f"more tokens received ({-transit}) than were ever lent",
                transit=transit,
                maximum=self.maximum,
            )
        if settled + outstanding + (transit or 0) != self.maximum:
            in_transit = "" if transit is None else f" + {transit} in transit"
            self._violation(
                "conservation",
                f"token conservation broken: {settled} at sites + "
                f"{outstanding} held by clients{in_transit} != M_e={self.maximum}",
                settled=settled,
                outstanding=outstanding,
                **lent,
                maximum=self.maximum,
            )
        if outstanding > self.maximum or outstanding < 0:
            self._violation(
                "eq1",
                f"Eq. 1 violated: clients hold {outstanding} of {self.maximum}",
                outstanding=outstanding,
                maximum=self.maximum,
            )

    def install_periodic(self, kernel, interval: float, until: float) -> None:
        """Schedule repeated audits during a run."""

        def audit(time: float) -> None:
            self.check()
            if time + interval <= until:
                kernel.schedule(interval, audit, time + interval)

        kernel.schedule(interval, audit, interval)
