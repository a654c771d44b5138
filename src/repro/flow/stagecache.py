"""Stage-level incremental memoization for the design flow.

The whole-run checkpoint (:mod:`repro.experiments.runner`) reuses a
completed flow only when *every* ``FlowConfig`` field matches.  The
paper's sensitivity studies (Tables 8/9/15/17, Figs. 4/7/11) vary one
knob at a time, so that cache misses on every row even though most of
the flow is identical.  This module keys each supervised stage on a
canonical hash of its **actual inputs**: the digests of the upstream
stages it consumes plus the subset of ``FlowConfig`` parameters the
stage itself reads (:data:`STAGE_PARAMS`).  Parameters a stage only
inherits through its inputs are *not* repeated in its key — they are
already folded into the upstream digest — so changing
``router_detour_coeff`` invalidates ``layout`` and everything after it
while ``synthesis`` and the ``placement`` sub-step keep hitting.

The digest chain (:func:`stage_digests`) is pure arithmetic on the
config — no store, no flow objects — which is what makes ``repro
whatif`` possible: diff the chains of two configs and you know exactly
which stages a parameter change recomputes, before running anything.

Stage payloads live in the same :class:`~repro.runtime.checkpoint.
CheckpointStore` as whole-run results (same schema versioning, same
corruption quarantine, same cross-process create-rename safety): the
current :class:`~repro.runtime.session.Session`'s store, which the
runner's ``--resume`` path and the parallel engine's workers both bind,
so stage hits cross process boundaries.  With no store bound,
:class:`StageMemo` is pass-through: the flow computes exactly as
before, no metrics, no disk.

Hits and misses are counted per stage (``checkpoint.stage_hits``,
``checkpoint.stage_misses``, plus ``.<stage>``-suffixed variants); the
``audit`` stage is deliberately never memoized — every run, cached or
not, is re-verified against the flow invariants.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.runtime.session import current_session

# FlowConfig fields each stage reads *directly*.  A field must appear at
# every stage that reads it, and only there: downstream stages inherit
# it through the dependency digest.  (``placement`` is the sub-step of
# ``layout`` that ends before routing — placer + pre-route optimization
# + CTS — so a router-only change can reuse it.)
STAGE_PARAMS: Dict[str, Tuple[str, ...]] = {
    "prepare": ("node_name", "is_3d", "pin_cap_scale", "metal_stack",
                "local_resistivity_scale", "kernel_backend",
                "tiers", "fold_style", "miv_koz_diameters"),
    "synthesis": ("circuit", "scale", "seed", "target_clock_ns",
                  "tightness", "target_utilization", "use_tmi_wlm"),
    "placement": ("target_utilization",),
    "layout": ("target_utilization", "router_detour_coeff",
               "tiers", "miv_koz_diameters"),
    "post_route": (),
    "signoff": ("target_clock_ns", "tightness"),
    "power": ("pi_activity", "seq_activity"),
}

# Upstream stages whose digests feed each stage's key.
STAGE_DEPS: Dict[str, Tuple[str, ...]] = {
    "prepare": (),
    "synthesis": ("prepare",),
    "placement": ("synthesis",),
    "layout": ("synthesis",),
    "post_route": ("layout",),
    "signoff": ("post_route",),
    "power": ("signoff",),
}

# Digest computation order (dependencies first).
_DIGEST_ORDER = ("prepare", "synthesis", "placement", "layout",
                 "post_route", "signoff", "power")

# Stages whose payloads are persisted.  ``prepare`` only seeds the chain
# (the library cache is in-process and cheap); ``audit`` re-verifies
# every run by design; ``placement`` persists via its per-attempt keys.
PERSISTED_STAGES = ("synthesis", "layout", "post_route", "signoff",
                    "power")

# Row order for whatif reports: the supervised stages plus the
# placement sub-step, in flow order.
REPORT_STAGES = ("prepare", "synthesis", "placement", "layout",
                 "post_route", "signoff", "power", "audit")


def stage_digests(config: object) -> Dict[str, str]:
    """The per-stage input-digest chain for one flow configuration.

    ``digest[stage] = H(stage, digests of its deps, its direct params)``
    — two configs share a stage's digest iff every parameter that can
    reach the stage (directly or through an upstream stage) is equal.
    """
    cfg = asdict(config) if not isinstance(config, dict) else dict(config)
    digests: Dict[str, str] = {}
    for stage in _DIGEST_ORDER:
        payload = {
            "deps": [digests[dep] for dep in STAGE_DEPS[stage]],
            "params": {name: cfg[name] for name in STAGE_PARAMS[stage]},
        }
        digests[stage] = config_key(f"stage.{stage}", payload)
    return digests


def placement_attempt_key(placement_digest: str, utilization: float,
                          attempt: int) -> str:
    """Store key of one placement attempt inside the congestion loop.

    The module accumulates optimization/CTS buffers across congestion
    retries, so attempt *k*'s placement input is a function of the
    static placement digest plus the attempt number and its (stepped)
    utilization — both deterministic given the config.
    """
    return config_key("stage.placement.attempt", {
        "base": placement_digest,
        "utilization": round(float(utilization), 9),
        "attempt": int(attempt),
    })


# -- registry queries ------------------------------------------------------
#
# The single source of truth for "which FlowConfig fields are real flow
# inputs, and what does changing one recompute" is STAGE_PARAMS +
# STAGE_DEPS above.  Both `repro whatif --list` and the DSE engine's
# axis validation (:mod:`repro.dse.space`) answer through these helpers,
# so a field the digest chain does not cover can be neither listed nor
# swept.

def stages_reading(field: str) -> Tuple[str, ...]:
    """Stages whose input key includes ``field`` directly."""
    return tuple(stage for stage in _DIGEST_ORDER
                 if field in STAGE_PARAMS[stage])


def invalidated_stages(field: str) -> Tuple[str, ...]:
    """Stages whose input digest changes when ``field`` changes.

    The direct readers plus everything downstream of them through
    :data:`STAGE_DEPS` — exactly the stages whose
    :func:`stage_digests` entries differ between two configs that
    disagree only on ``field``.
    """
    direct = set(stages_reading(field))
    if not direct:
        raise KeyError(f"{field!r} is not a registered flow input; "
                       f"known fields: {', '.join(sweepable_fields())}")
    invalid = set()
    for stage in _DIGEST_ORDER:
        if stage in direct or any(dep in invalid
                                  for dep in STAGE_DEPS[stage]):
            invalid.add(stage)
    return tuple(stage for stage in _DIGEST_ORDER if stage in invalid)


def sweepable_fields() -> Tuple[str, ...]:
    """Every FlowConfig field the digest chain covers, sorted.

    By the registry invariant (every config field appears in
    :data:`STAGE_PARAMS`, tested in ``tests/test_stage_memo.py``) this
    is the full set of sweepable flow inputs.
    """
    return tuple(sorted({name for params in STAGE_PARAMS.values()
                         for name in params}))


def field_report() -> List[Dict[str, object]]:
    """One row per sweepable field: who reads it, what it invalidates.

    The ``repro whatif --list`` table; the DSE space documentation
    renders the same rows.
    """
    return [{"field": name,
             "read by": ", ".join(stages_reading(name)),
             "invalidates": ", ".join(invalidated_stages(name))}
            for name in sweepable_fields()]


# -- the per-run memo ------------------------------------------------------

class StageMemo:
    """Per-run view of the stage cache for one flow configuration.

    Built at the top of ``run_flow``; snapshots the session's store so a
    run is internally consistent even if the binding changes mid-run.
    """

    def __init__(self, config: object):
        self.config = config
        self.store = current_session().store
        self.digests = stage_digests(config) if self.store is not None \
            else {}

    @property
    def enabled(self) -> bool:
        return self.store is not None

    def key(self, stage: str) -> str:
        return self.digests[stage]

    def placement_key(self, utilization: float, attempt: int) -> str:
        return placement_attempt_key(self.digests["placement"],
                                     utilization, attempt)

    def fetch(self, stage: str, key: str) -> Optional[object]:
        """Load a stage payload, counting the stage hit or miss."""
        value = self.store.load(key)
        if value is not None:
            obs_metrics.counter("checkpoint.stage_hits").inc()
            obs_metrics.counter(f"checkpoint.stage_hits.{stage}").inc()
        else:
            obs_metrics.counter("checkpoint.stage_misses").inc()
            obs_metrics.counter(f"checkpoint.stage_misses.{stage}").inc()
        return value

    def save(self, key: str, payload: object) -> None:
        """Best-effort persist: a sick disk never fails the flow."""
        self.store.try_store(key, payload)

    def cached(self, stage: str, compute: Callable[[], object]) -> object:
        """Run ``compute`` through the stage cache (pass-through when
        no store is bound)."""
        if not self.enabled:
            return compute()
        key = self.key(stage)
        value = self.fetch(stage, key)
        if value is not None:
            return value
        value = compute()
        self.save(key, value)
        return value


# -- whatif: the delta report ----------------------------------------------

def whatif(base_config: object, changed_config: object,
           store: Optional[CheckpointStore] = None
           ) -> List[Dict[str, object]]:
    """Which stages a parameter change reuses vs recomputes.

    Pure digest arithmetic — nothing runs.  Each row reports whether
    the stage's input digest survived the change (``reused``) and, when
    a store is given, whether the *changed* config's entry is already
    warm on disk (``warm``; ``None`` for stages that are never
    persisted).  ``placement`` is probed at its first-attempt key — the
    congestion loop's deeper attempts have their own keys.
    """
    base = stage_digests(base_config)
    changed = stage_digests(changed_config)
    rows: List[Dict[str, object]] = []
    for stage in REPORT_STAGES:
        if stage == "audit":
            rows.append({"stage": stage, "reused": False, "warm": None,
                         "note": "always re-verified"})
            continue
        reused = base[stage] == changed[stage]
        warm: Optional[bool] = None
        if store is not None:
            if stage == "placement":
                cfg = asdict(changed_config) \
                    if not isinstance(changed_config, dict) \
                    else dict(changed_config)
                key = placement_attempt_key(
                    changed["placement"], cfg["target_utilization"], 1)
                warm = key in store
            elif stage in PERSISTED_STAGES:
                warm = changed[stage] in store
        note = ""
        if stage == "prepare":
            note = "in-process (library cache)"
        rows.append({"stage": stage, "reused": reused, "warm": warm,
                     "note": note})
    return rows
