"""Spans around the calls into each surfimp module, wrapped from outside.

A span is ``[name, start, end, parent, value]``: perf_counter times, the
index of the enclosing span on the same thread (-1 for none), and a number
taken from the call's result (rows evaluated, quadrature nodes, a residual)
or None.  Spans stay in memory until ``take`` hands them over.

A wrapped function is replaced in every surfimp module that binds it, so a
call through any imported name is seen.  A target that the package no
longer defines is listed in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _point_value(pt):
    return (0.0 if pt.exists else 1.0,
            pt.res_kernel if pt.exists else 0.0,
            pt.res_riccati if pt.exists else 0.0)


def _scan_value(scan):
    ex = scan.exists
    return (float(np.count_nonzero(~ex)),
            float(np.max(scan.res_kernel[ex], initial=0.0)),
            float(np.max(scan.res_riccati[ex], initial=0.0)))


# (module in surfimp, attribute path, value taken from the result)
TARGETS = (
    ("material", "StiffnessTensor.tensor", None),
    ("material", "validate_stiffness", None),
    ("polyfactor", "build_pencil", None),
    ("polyfactor", "pencil_spectrum", None),
    ("polyfactor", "is_elliptic", None),
    ("polyfactor", "spectral_factor", lambda r: float(r.method == "integral")),
    ("polyfactor", "factor_integral", lambda r: float(r.nodes)),
    ("polyfactor", "factor_residuals", lambda r: max(r.solvency, r.factor_max)),
    ("impedance", "impedance_tensor", None),
    ("impedance", "riccati_residual", float),
    ("impedance", "sylvester_solve", None),
    ("rayleigh", "limiting_speed", None),
    ("rayleigh", "rayleigh_point", _point_value),
    ("rayleigh", "scan_directions", _scan_value),
    ("rayleigh", "_Engine.__init__", None),
    ("rayleigh", "_Engine.prepare", None),
    ("rayleigh", "_Engine.limiting_speeds", None),
    ("rayleigh", "_Engine._eigmin_along", lambda r: float(len(r))),
    ("rayleigh", "_Engine.impedance_at", lambda r: float(len(r[0]))),
    ("rayleigh", "_bracket_walk", lambda r: float(np.count_nonzero(r[0]))),
    ("rayleigh", "_chandrupatla", None),
    ("rayleigh", "_scan_chunk", None),
    ("isotropic", "subprincipal_p", None),
    ("isotropic", "iso_state", None),
    ("isotropic", "iso_state_on_sigma", None),
    ("selftest", "_check_iso_blocks", None),
    ("selftest", "_check_rayleigh_oracle", None),
    ("selftest", "_check_identities", None),
    ("selftest", "_check_monotonicity", None),
    ("selftest", "_check_subprincipal", None),
    ("selftest", "_check_derivatives", None),
    ("selftest", "_check_sylvester", None),
)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def take(self) -> list:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, value):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if value is not None:
                try:
                    rec[4] = value(result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        self.absent = []
        for module, path, value in TARGETS:
            name = f"{module}.{path}"
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"surfimp.{module}")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, value)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "surfimp" or mod_name.startswith("surfimp."):
                    for key, obj in list(vars(mod).items()):
                        if obj is original:
                            self._patch(mod, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class OpSpans:
    """Index over the spans of one operation."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def dur(self, i) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def count(self, name) -> int:
        return len(self.by_name[name])

    def total(self, name) -> float:
        return sum(self.dur(i) for i in self.by_name[name])

    def values(self, name) -> list:
        return self.values_at(self.by_name[name])

    def values_at(self, idx) -> list:
        return [self.spans[i][4] for i in idx if self.spans[i][4] is not None]

    def under(self, name, ancestor) -> list[int]:
        """Spans called ``name`` with an enclosing span called ``ancestor``."""
        out = []
        for i in self.by_name[name]:
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                out.append(i)
        return out

    def child_time(self, i, names) -> float:
        return sum(self.dur(c) for c in self.children[i] if self.spans[c][0] in names)

    def self_time(self, name) -> float:
        return sum(self.dur(i) - sum(self.dur(c) for c in self.children[i])
                   for i in self.by_name[name])


# per-layer metric -> (kind, span name); "count" and "total" are per operation
SIMPLE = {
    "material.tensor_calls": ("count", "material.StiffnessTensor.tensor"),
    "material.tensor_s": ("total", "material.StiffnessTensor.tensor"),
    "material.validate_s": ("total", "material.validate_stiffness"),
    "polyfactor.build_pencil_calls": ("count", "polyfactor.build_pencil"),
    "polyfactor.build_pencil_s": ("total", "polyfactor.build_pencil"),
    "polyfactor.spectrum_calls": ("count", "polyfactor.pencil_spectrum"),
    "polyfactor.spectrum_s": ("total", "polyfactor.pencil_spectrum"),
    "polyfactor.spectral_factor_calls": ("count", "polyfactor.spectral_factor"),
    "polyfactor.spectral_factor_s": ("total", "polyfactor.spectral_factor"),
    "polyfactor.factor_integral_calls": ("count", "polyfactor.factor_integral"),
    "polyfactor.factor_integral_s": ("total", "polyfactor.factor_integral"),
    "polyfactor.factor_residuals_s": ("total", "polyfactor.factor_residuals"),
    "impedance.impedance_tensor_s": ("self", "impedance.impedance_tensor"),
    "impedance.sylvester_calls": ("count", "impedance.sylvester_solve"),
    "impedance.sylvester_s": ("total", "impedance.sylvester_solve"),
    "impedance.riccati_residual_s": ("total", "impedance.riccati_residual"),
    "rayleigh.limiting_speed_calls": ("count", "rayleigh.limiting_speed"),
    "rayleigh.limiting_speed_s": ("total", "rayleigh.limiting_speed"),
    "rayleigh.engine_init_s": ("total", "rayleigh._Engine.__init__"),
    "rayleigh.prepare_s": ("total", "rayleigh._Engine.prepare"),
    "rayleigh.c_lim_s": ("total", "rayleigh._Engine.limiting_speeds"),
    "rayleigh.walk_s": ("total", "rayleigh._bracket_walk"),
    "rayleigh.polish_s": ("total", "rayleigh._chandrupatla"),
    "isotropic.subprincipal_calls": ("count", "isotropic.subprincipal_p"),
    "isotropic.subprincipal_s": ("total", "isotropic.subprincipal_p"),
    "selftest.iso_blocks_s": ("total", "selftest._check_iso_blocks"),
    "selftest.rayleigh_oracle_s": ("total", "selftest._check_rayleigh_oracle"),
    "selftest.identities_s": ("total", "selftest._check_identities"),
    "selftest.monotonicity_s": ("total", "selftest._check_monotonicity"),
    "selftest.subprincipal_s": ("total", "selftest._check_subprincipal"),
    "selftest.derivatives_s": ("total", "selftest._check_derivatives"),
    "selftest.sylvester_s": ("total", "selftest._check_sylvester"),
}

STAGES = ("rayleigh._Engine.prepare", "rayleigh._Engine.limiting_speeds",
          "rayleigh._bracket_walk", "rayleigh._chandrupatla")
QUAD_FIRST_LEVEL = 64  # nodes per panel at the first doubling level of factor_integral


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(ops: list[list]) -> dict[str, float]:
    """Per-layer metrics over the span lists of single-threaded operations.

    Counts and times are means per operation; ratios divide summed
    numerators by summed denominators; ``worst_*`` are maxima.
    """
    n = max(len(ops), 1)
    sums = defaultdict(float)
    worst = defaultdict(float)
    for spans in ops:
        op = OpSpans(spans)
        for metric, (kind, name) in SIMPLE.items():
            sums[metric] += {"count": op.count, "total": op.total, "self": op.self_time}[kind](name)

        sf = op.values("polyfactor.spectral_factor")
        sums["fallbacks"] += sum(sf)
        sums["factors_valued"] += len(sf)
        nodes = op.values("polyfactor.factor_integral")
        sums["nodes"] += sum(nodes)
        sums["nodes_evaluated"] += sum(2.0 * m - QUAD_FIRST_LEVEL for m in nodes)
        sums["integrals_valued"] += len(nodes)
        worst["factor_residual"] = max([worst["factor_residual"], *op.values("polyfactor.factor_residuals")])
        worst["riccati"] = max([worst["riccati"], *op.values("impedance.riccati_residual")])

        sums["ell_tests"] += len(op.under("polyfactor.is_elliptic", "rayleigh.limiting_speed"))
        sums["point_factors"] += len(op.under("polyfactor.spectral_factor", "rayleigh.rayleigh_point"))
        sums["points"] += op.count("rayleigh.rayleigh_point")
        for i in op.by_name["rayleigh.rayleigh_point"]:
            sums["point_root_s"] += op.dur(i) - op.child_time(i, ("rayleigh.limiting_speed",))

        eig = op.under("rayleigh._Engine._eigmin_along", "rayleigh._Engine.limiting_speeds")
        sums["c_lim_eig_calls"] += len(eig)
        sums["c_lim_eig_rows"] += sum(op.values_at(eig))
        for stage, key in (("rayleigh._bracket_walk", "walk"), ("rayleigh._chandrupatla", "polish")):
            rounds = op.under("rayleigh._Engine.impedance_at", stage)
            sums[f"{key}_rounds"] += len(rounds)
            sums[f"{key}_rows"] += sum(op.values_at(rounds))
        sums["bracketed"] += sum(op.values("rayleigh._bracket_walk"))
        detz = op.by_name["rayleigh._Engine.impedance_at"]
        sums["detz_rows"] += sum(op.values_at(detz))
        sums["detz_s"] += sum(op.dur(i) for i in detz)
        for i in op.by_name["rayleigh._scan_chunk"]:
            sums["post_s"] += op.dur(i) - op.child_time(i, STAGES)
        sums["chunks_s"] += op.total("rayleigh._scan_chunk")
        sums["scans_s"] += op.total("rayleigh.scan_directions")
        for rows_no_root, res_k, res_r in (op.values("rayleigh.scan_directions")
                                          + op.values("rayleigh.rayleigh_point")):
            sums["rows_no_root"] += rows_no_root
            worst["res_kernel"] = max(worst["res_kernel"], res_k)
            worst["res_riccati"] = max(worst["res_riccati"], res_r)
        sums["iso_state_s"] += op.total("isotropic.iso_state") + op.total("isotropic.iso_state_on_sigma")

    out = {metric: sums[metric] / n for metric in SIMPLE}
    out.update({
        "polyfactor.integral_fallbacks": sums["fallbacks"] / n,
        "polyfactor.fallback_ratio": _ratio(sums["fallbacks"], sums["factors_valued"]),
        "polyfactor.quad_nodes_mean": _ratio(sums["nodes"], sums["integrals_valued"]),
        "polyfactor.quad_useful_ratio": _ratio(sums["nodes"], sums["nodes_evaluated"]),
        "polyfactor.worst_factor_residual": worst["factor_residual"],
        "impedance.worst_riccati": worst["riccati"],
        "rayleigh.ellipticity_tests_per_call": _ratio(sums["ell_tests"],
                                                      sums["rayleigh.limiting_speed_calls"]),
        "rayleigh.point_factor_calls": _ratio(sums["point_factors"], sums["points"]),
        "rayleigh.point_root_s": sums["point_root_s"] / n,
        "rayleigh.c_lim_eig_calls": sums["c_lim_eig_calls"] / n,
        "rayleigh.c_lim_eig_rows": sums["c_lim_eig_rows"] / n,
        "rayleigh.walk_rounds": sums["walk_rounds"] / n,
        "rayleigh.walk_detz_rows": sums["walk_rows"] / n,
        "rayleigh.walk_useful_ratio": _ratio(sums["bracketed"], sums["walk_rows"]),
        "rayleigh.polish_rounds": sums["polish_rounds"] / n,
        "rayleigh.polish_detz_rows": sums["polish_rows"] / n,
        "rayleigh.post_s": sums["post_s"] / n,
        "rayleigh.detz_rows_per_s": _ratio(sums["detz_rows"], sums["detz_s"]),
        "rayleigh.stage_cover_frac": _ratio(sums["chunks_s"], sums["scans_s"]),
        "rayleigh.rows_no_root": sums["rows_no_root"] / n,
        "rayleigh.worst_res_kernel": worst["res_kernel"],
        "rayleigh.worst_res_riccati": worst["res_riccati"],
        "isotropic.iso_state_s": sums["iso_state_s"] / n,
    })
    return out


def chunk_imbalance(ops: list[list]) -> float:
    """Mean over multi-threaded scans of slowest chunk minus mean chunk.

    Worker threads start with an empty stack, so chunks are matched to their
    scan by time: a chunk belongs to the scan whose span encloses its start.
    """
    gaps = []
    for spans in ops:
        op = OpSpans(spans)
        for s in op.by_name["rayleigh.scan_directions"]:
            t0, t1 = op.spans[s][1], op.spans[s][2]
            chunks = [op.dur(c) for c in op.by_name["rayleigh._scan_chunk"]
                      if t0 <= op.spans[c][1] <= t1]
            if chunks:
                gaps.append(max(chunks) - sum(chunks) / len(chunks))
    return float(np.mean(gaps)) if gaps else 0.0
