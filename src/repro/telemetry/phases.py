"""Phase-level analysis of traces: the paper's Fig. 12/13 decomposition.

Turns raw spans into the quantities the evaluation reasons about:

* :func:`phase_rows` — per-(category, name) aggregate durations, the input
  of the ``repro trace`` summary table;
* :func:`migration_breakdown` — for one rescale operation, the full DRRS
  phase decomposition: decouple time, per-subscale waves, state-transfer
  time and bytes, cumulative **propagation delay** (signal injection → first
  state migration per subscale, §II-B's :math:`L_p`) and cumulative
  **suspension time** (:math:`L_s`) — derived *purely from spans*, so it can
  be cross-checked against :class:`repro.scaling.base.ScalingMetrics`.

Span/event naming contract (what the instrumented hot paths emit):

=====================  ==============  =======================================
name                   category        emitted by
=====================  ==============  =======================================
``rescale``            ``migration``   ScalingController._run_scale
``decouple``           ``drrs.phase``  DRRSController (A0/B0 deploy update)
``subscale-<i>``       ``drrs.phase``  DRRSController (launch → done)
``signal.injected``    ``drrs.phase``  DRRSController (instant, per subscale)
``state-transfer``     ``transfer``    ScalingController._extract → _land
``suspended``          ``suspension``  OperatorInstance wake-up accounting
``reroute.flush``      ``reroute``     ReRouteManager drain process
``checkpoint.sync``    ``checkpoint``  aligned-snapshot sync pause
``recovery.restore``   ``recovery``    RecoveryManager rollback
``scale.abort``        ``recovery``    ScalingController.abort (zero-length)
``fault.injected``     ``fault``       FaultInjector (instant, per fault)
=====================  ==============  =======================================
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .tracer import Telemetry

__all__ = ["phase_rows", "migration_breakdown"]


def phase_rows(telemetry: Telemetry,
               category: Optional[str] = None) -> List[Dict]:
    """Aggregate closed spans by (category, name)."""
    tracer = telemetry.tracer
    groups: Dict[tuple, List[float]] = {}
    for span in tracer.spans:
        if not span.closed:
            continue
        if category is not None and span.category != category:
            continue
        groups.setdefault((span.category, span.name),
                          []).append(span.duration)
    rows = []
    for (cat, name), durations in sorted(groups.items()):
        rows.append({
            "category": cat,
            "name": name,
            "count": len(durations),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "min_s": min(durations),
            "max_s": max(durations),
        })
    return rows


def migration_breakdown(telemetry: Telemetry,
                        scale_id: Optional[int] = None) -> Dict:
    """Decompose one rescale operation's trace into the paper's phases.

    Picks the ``rescale`` span with the given ``scale_id`` (default: the
    latest one) and attributes every subscale wave, state transfer,
    re-route flush and suspension interval inside its window to it.
    """
    tracer = telemetry.tracer
    rescales = tracer.closed_spans(category="migration", name="rescale")
    if scale_id is not None:
        rescales = [s for s in rescales
                    if s.attrs.get("scale_id") == scale_id]
    if not rescales:
        raise ValueError("no completed rescale span in this trace")
    scale = rescales[-1]
    t0, t1 = scale.start, scale.end
    op = scale.attrs.get("op", "")

    def within(span) -> bool:
        return span.closed and t0 <= span.end <= t1

    # -- waves: one span per subscale -------------------------------------
    waves = []
    kg_to_subscale: Dict[int, int] = {}
    for span in tracer.closed_spans(category="drrs.phase"):
        if not span.name.startswith("subscale-") or not within(span):
            continue
        sid = span.attrs.get("subscale_id")
        for kg in span.attrs.get("key_groups", ()):
            kg_to_subscale[kg] = sid
        waves.append({
            "subscale_id": sid,
            "start": span.start,
            "end": span.end,
            "duration_s": span.duration,
            "key_groups": list(span.attrs.get("key_groups", ())),
            "bytes_moved": span.attrs.get("bytes_moved", 0.0),
            "src": span.attrs.get("src"),
            "dst": span.attrs.get("dst"),
        })
    waves.sort(key=lambda w: (w["start"], w["subscale_id"]))

    # -- state transfers ----------------------------------------------------
    transfers = [s for s in tracer.closed_spans(category="transfer")
                 if within(s)]
    bytes_moved = sum(s.attrs.get("bytes", 0.0) for s in transfers)
    transfer_total = sum(s.duration for s in transfers)

    # -- propagation delay: injection → first transfer, per subscale --------
    injected_at: Dict[int, float] = {}
    for event in tracer.events_named("signal.injected"):
        if t0 <= event.time <= t1:
            sid = event.attrs.get("subscale_id")
            if sid not in injected_at or event.time < injected_at[sid]:
                injected_at[sid] = event.time
    first_transfer: Dict[int, float] = {}
    for span in transfers:
        sid = kg_to_subscale.get(span.attrs.get("key_group"))
        if sid is None:
            continue
        if sid not in first_transfer or span.start < first_transfer[sid]:
            first_transfer[sid] = span.start
    propagation = sum(
        max(0.0, first_transfer[sid] - injected)
        for sid, injected in injected_at.items() if sid in first_transfer)

    # -- suspension on the scaled operator's instances ----------------------
    suspension = sum(
        s.duration for s in tracer.closed_spans(category="suspension")
        if within(s) and s.track.startswith(f"{op}["))

    # -- decouple & re-route ------------------------------------------------
    decouple = sum(s.duration
                   for s in tracer.closed_spans(category="drrs.phase",
                                                name="decouple")
                   if within(s))
    reroute_flushes = [s for s in tracer.closed_spans(category="reroute")
                       if within(s)]
    records_rerouted = sum(s.attrs.get("records", 0)
                           for s in reroute_flushes)

    return {
        "op": op,
        "controller": scale.attrs.get("controller", ""),
        "scale_id": scale.attrs.get("scale_id"),
        "start": t0,
        "end": t1,
        "duration_s": t1 - t0,
        "decouple_s": decouple,
        "state_transfer_s": transfer_total,
        "bytes_moved": bytes_moved,
        "cumulative_propagation_delay_s": propagation,
        "total_suspension_s": suspension,
        "records_rerouted": records_rerouted,
        "num_subscales": len(waves),
        "waves": waves,
    }
