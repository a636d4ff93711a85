"""Deterministic sim-cost profiler: the runtime prong of NYX07x.

The static prong (``repro.analysis.hotlint``) reasons about code it can
*see*; this module measures what the campaign actually *spends*.  Both
answer the same question — "where does an execution go?" — from
opposite directions, and the two cross-check each other:

* **NYX076** — a profiled hot site's call count or sim-clock cost
  drifted past the budget recorded in the committed baseline
  (``tests/golden/profile_baseline.json``).  Because every number here
  comes off the *simulated* clock, the profile is a pure function of
  the campaign configuration: any drift is a real behaviour change,
  never host noise.  Regenerating the baseline (``--write-baseline``)
  is the fix once the change is intentional.
* **NYX077** — a top-decile site by exclusive sim cost has no
  ``# nyx: hot`` root coverage in the static call graph.  This is the
  backstop for hotlint's conservative edge resolution: code the static
  prong could not prove hot but the profiler caught spending real time
  must either gain an annotation or be demoted.

Instrumentation is wrapper-based (``sys.setprofile`` would also see
host library frames and perturb the settrace coverage backend): every
plain function and method in :data:`PROFILE_MODULES` is replaced with
a recording wrapper *before* the campaign is built, so bound methods,
handler tables and restore callbacks all capture the wrapped callable.
Wrappers read the sim clock and never charge it, so an instrumented
campaign's ``stats_checksum`` is byte-identical to a bare run's.

Costs are attributed in the classic profiler split:

* **inclusive** — sim seconds between a frame's entry and exit
  (recursive re-entries double-count, as in any tree profiler);
* **exclusive** — inclusive minus the inclusive time of direct
  callees, i.e. the cost charged while this frame itself ran.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import types
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic

#: Modules whose functions/methods are instrumented.  Coverage backends
#: are excluded (their callbacks run inside ``sys.settrace`` windows)
#: and so are target programs (their cost is the *measured* payload,
#: visible through the kernel surface they call into).
PROFILE_MODULES: Tuple[str, ...] = (
    "repro.fuzz.executor",
    "repro.fuzz.fuzzer",
    "repro.fuzz.mutators",
    "repro.fuzz.queue",
    "repro.guestos.kernel",
    "repro.guestos.epoll",
    "repro.guestos.fds",
    "repro.guestos.process",
    "repro.guestos.sockets",
    "repro.vm.machine",
    "repro.vm.memory",
    "repro.vm.snapshot",
    "repro.emu.interceptor",
    "repro.emu.surface",
)

#: Campaign-configuration keys that must match between a profile and a
#: baseline for the NYX076 gate to be meaningful (the profile is a pure
#: function of these).
CONFIG_KEYS: Tuple[str, ...] = ("target", "seed", "execs", "policy")

#: Fraction of sites (by exclusive cost) considered "top decile" for
#: the NYX077 static-coverage cross-check.
TOP_DECILE = 0.10


class ProfileCollector:
    """Accumulates per-site call counts and sim-clock costs.

    The collector starts disabled with no clock: instrumentation
    happens before the campaign (and therefore the clock) exists, and
    boot-time work is deliberately outside the profile window.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._clock: Optional[Any] = None
        #: Call stack of ``[site, entry_time, child_inclusive]`` frames.
        self._stack: List[List[Any]] = []
        #: site -> [calls, inclusive, exclusive]
        self.sites: Dict[str, List[float]] = {}

    def attach_clock(self, clock: Any) -> None:
        """Bind the campaign's sim clock and start recording."""
        self._clock = clock
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def _push(self, site: str) -> None:
        self._stack.append([site, self._clock.now, 0.0])

    def _pop(self) -> None:
        site, t0, child = self._stack.pop()
        inclusive = self._clock.now - t0
        exclusive = inclusive - child
        rec = self.sites.get(site)
        if rec is None:
            self.sites[site] = [1, inclusive, exclusive]
        else:
            rec[0] += 1
            rec[1] += inclusive
            rec[2] += exclusive
        if self._stack:
            self._stack[-1][2] += inclusive

    def as_table(self) -> Dict[str, Dict[str, float]]:
        """Canonical per-site cost table (costs rounded to nanoseconds
        of sim time so the checksum is repr-stable)."""
        return {
            site: {
                "calls": int(rec[0]),
                "incl": round(rec[1], 9),
                "excl": round(rec[2], 9),
            }
            for site, rec in self.sites.items()
        }


def _wrap(fn: Callable, site: str, collector: ProfileCollector) -> Callable:
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not collector.enabled:
            return fn(*args, **kwargs)
        collector._push(site)
        try:
            return fn(*args, **kwargs)
        finally:
            collector._pop()

    wrapper._nyx_profiled = True  # type: ignore[attr-defined]
    return wrapper


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def instrument(collector: ProfileCollector,
               modules: Sequence[str] = PROFILE_MODULES) -> Callable[[], None]:
    """Wrap every plain function/method in ``modules``; returns an undo.

    Dunders, properties, static/class methods and objects defined in
    other modules (imports) are left alone.  Call *before* building
    the campaign so every handler table and callback binds wrappers.
    """
    patched: List[Tuple[Any, str, Callable]] = []
    for modname in modules:
        module = importlib.import_module(modname)
        for attr, value in sorted(vars(module).items()):
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == modname
                    and not _is_dunder(attr)
                    and not getattr(value, "_nyx_profiled", False)):
                site = "%s:%s" % (modname, attr)
                patched.append((module, attr, value))
                setattr(module, attr, _wrap(value, site, collector))
            elif isinstance(value, type) and value.__module__ == modname:
                for meth, fn in sorted(vars(value).items()):
                    if (isinstance(fn, types.FunctionType)
                            and not _is_dunder(meth)
                            and not getattr(fn, "_nyx_profiled", False)):
                        site = "%s:%s.%s" % (modname, value.__name__, meth)
                        patched.append((value, meth, fn))
                        setattr(value, meth, _wrap(fn, site, collector))

    def undo() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)

    return undo


def profile_checksum(sites: Dict[str, Dict[str, float]]) -> str:
    """sha1 over the canonical JSON of the per-site cost table."""
    payload = json.dumps(sites, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def run_profile(target: str = "lighttpd", seed: int = 1,
                execs: int = 400, policy: str = "aggressive") -> Dict[str, object]:
    """Run one seeded campaign under instrumentation; report sim costs.

    The payload carries no wall-clock number at all: same config, same
    bytes, on any host.  ``stats_checksum`` is included to prove the
    wrappers did not perturb the campaign.
    """
    from repro.fuzz.campaign import build_campaign
    from repro.fuzz.stats import stats_checksum
    from repro.targets import PROFILES
    profile = PROFILES[target]

    collector = ProfileCollector()
    undo = instrument(collector)
    try:
        handles = build_campaign(profile, policy=policy, seed=seed,
                                 time_budget=1e9, max_execs=execs)
        collector.attach_clock(handles.machine.clock)
        stats = handles.fuzzer.run_campaign()
        collector.stop()
    finally:
        undo()

    sites = collector.as_table()
    return {
        "kind": "profile",
        "target": target,
        "seed": seed,
        "execs": execs,
        "policy": policy,
        "campaign_execs": stats.execs,
        "sim_seconds": round(stats.duration(), 6),
        "sites": sites,
        "profile_checksum": profile_checksum(sites),
        "stats_checksum": stats_checksum(stats),
    }


def format_profile(payload: Dict[str, object], top: int = 15) -> str:
    """Human-readable cost table, heaviest exclusive sites first."""
    sites: Dict[str, Dict[str, float]] = payload["sites"]  # type: ignore
    rows = sorted(sites.items(),
                  key=lambda kv: (-kv[1]["excl"], kv[0]))[:top]
    lines = ["%-58s %9s %12s %12s" % ("site", "calls", "incl(s)", "excl(s)")]
    for site, rec in rows:
        lines.append("%-58s %9d %12.6f %12.6f"
                     % (site, rec["calls"], rec["incl"], rec["excl"]))
    lines.append("%d sites, %.6f sim seconds, checksum %s"
                 % (len(sites), payload["sim_seconds"],
                    payload["profile_checksum"]))
    return "\n".join(lines)


def compare_profile(current: Dict[str, object],
                    baseline: Dict[str, object],
                    pct: float = 25.0,
                    baseline_path: str = "tests/golden/profile_baseline.json",
                    ) -> Tuple[List[Diagnostic], List[str]]:
    """NYX076: per-site budget drift against a committed baseline.

    Returns ``(diagnostics, notes)``.  When the campaign configuration
    differs from the baseline's the comparison is skipped with a note
    (sim numbers are a pure function of the configuration, so gating a
    different config would only measure the config delta).
    """
    notes: List[str] = []
    diags: List[Diagnostic] = []
    mismatched = [k for k in CONFIG_KEYS
                  if current.get(k) != baseline.get(k)]
    if mismatched:
        notes.append("profile gate skipped (config mismatch: %s)"
                     % ", ".join("%s %r != %r"
                                 % (k, current.get(k), baseline.get(k))
                                 for k in mismatched))
        return diags, notes
    cur_sites: Dict[str, Dict[str, float]] = current["sites"]  # type: ignore
    base_sites: Dict[str, Dict[str, float]] = baseline["sites"]  # type: ignore
    if current.get("profile_checksum") == baseline.get("profile_checksum"):
        notes.append("profile identical to baseline (checksum %s)"
                     % current.get("profile_checksum"))
        return diags, notes
    for site in sorted(set(cur_sites) | set(base_sites)):
        cur = cur_sites.get(site)
        base = base_sites.get(site)
        if base is None:
            diags.append(Diagnostic(
                "NYX076", "new hot site %s (%d calls, %.6fs excl) absent "
                "from the baseline" % (site, cur["calls"], cur["excl"]),
                file=baseline_path, fixable=True))
            continue
        if cur is None:
            diags.append(Diagnostic(
                "NYX076", "hot site %s vanished (baseline had %d calls, "
                "%.6fs excl)" % (site, base["calls"], base["excl"]),
                file=baseline_path, fixable=True))
            continue
        drifts = []
        if cur["calls"] != base["calls"]:
            drifts.append("calls %d -> %d" % (base["calls"], cur["calls"]))
        for field in ("incl", "excl"):
            b, c = base[field], cur[field]
            if b > 1e-9:
                drift = abs(c - b) / b * 100.0
                if drift > pct:
                    drifts.append("%s %+.1f%% (%.6fs -> %.6fs)"
                                  % (field, (c - b) / b * 100.0, b, c))
            elif c > 1e-9:
                drifts.append("%s 0s -> %.6fs" % (field, c))
        if drifts:
            diags.append(Diagnostic(
                "NYX076", "hot site %s drifted past the %.0f%% budget: %s"
                % (site, pct, "; ".join(drifts)),
                file=baseline_path, fixable=True))
    return diags, notes


def static_disagreement(payload: Dict[str, object],
                        root: str = "src/repro") -> List[Diagnostic]:
    """NYX077: top-decile sim-cost sites without static hot coverage.

    Cross-checks the profile against ``hotlint``'s reachability set: a
    site the campaign demonstrably spends top-decile exclusive sim time
    in must be provably hot to the static prong, or its root needs a
    ``# nyx: hot`` annotation (or the call edge that reaches it is one
    the resolver cannot see — same fix).
    """
    import pathlib

    from repro.analysis.hotlint import hot_sites
    sites: Dict[str, Dict[str, float]] = payload["sites"]  # type: ignore
    if not sites:
        return []
    hot = hot_sites(root)
    src_base = pathlib.Path(root).parent
    ranked = sorted(sites.items(), key=lambda kv: (-kv[1]["excl"], kv[0]))
    take = max(1, int(len(ranked) * TOP_DECILE))
    diags: List[Diagnostic] = []
    for site, rec in ranked[:take]:
        module, _, qualname = site.partition(":")
        if qualname in hot.get(module, set()):
            continue
        diags.append(Diagnostic(
            "NYX077", "top-decile site %s (%.6fs excl, %d calls) has no "
            "'# nyx: hot' root coverage in the static call graph"
            % (site, rec["excl"], rec["calls"]),
            file=str(src_base / (module.replace(".", "/") + ".py"))))
    return diags
