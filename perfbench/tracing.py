"""Per-layer tracing for the benchmark: timing wrappers around hho2 functions.

The layers are the hho2 modules.  Each traced function is wrapped where it is
defined and at every other place that holds the same object: `from .linalg
import pfaffian` copies the name into `operators`, `systems` and
`diagnostics`, and a class method can sit under two names (`__add__` and
`__radd__`).  Wrappers exist only while a `Tracer` is installed; hho2 itself
carries no tracing code.

A wrapped call is a span.  Its self time is its wall time minus the wall time
of the wrapped calls made inside it.  The call-heavy polynomial kernels are
leaves and get an aggregate counter (calls and time) instead of a span of
their own; their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("certify-n6", "diagnose-n8", "transform-sl")

MODULES = ("poly", "linalg", "threeform", "operators", "systems", "diagnostics", "catalog", "cli")


def _gcd_nontrivial(result, evals: int) -> Tuple[int, int]:
    return (0 if result.is_constant() else 1), 1


def _jacobian_cache_hit(result, evals: int) -> Tuple[int, int]:
    return (1 if evals == 0 else 0), 1


def _sample_accept(result, evals: int) -> Tuple[int, int]:
    return len(result), evals


@dataclass(frozen=True)
class Target:
    """One traced function.

    name: metric prefix `<module>.<function>`.
    home: `module:attribute` where hho2 defines it (`Class.method` for methods).
    kernel: a call-heavy leaf that gets an aggregate counter, not a span.
    workloads: the workloads on which it must have calls; README.md gives the
        end-to-end metric a change to it should move.
    ratio: optional (metric name, observer); the observer maps a call's result
        and the number of `MultiPoly.eval` calls made inside it to a
        (numerator, denominator) pair that is summed over the run.
    """

    name: str
    home: str
    workloads: Tuple[str, ...]
    kernel: bool = False
    ratio: Optional[Tuple[str, Callable]] = None


CERT, DIAG, TRANS = WORKLOADS

TARGETS: Tuple[Target, ...] = (
    Target("poly.MultiPoly.mul", "poly:MultiPoly.__mul__", (CERT, DIAG), kernel=True),
    Target("poly.MultiPoly.add", "poly:MultiPoly.__add__", (CERT, DIAG), kernel=True),
    Target("poly.MultiPoly.eval", "poly:MultiPoly.eval", (DIAG,), kernel=True),
    Target("poly.MultiPoly.diff", "poly:MultiPoly.diff", (DIAG,), kernel=True),
    Target("poly.poly_gcd", "poly:poly_gcd", (CERT, DIAG),
           ratio=("poly.gcd.nontrivial_ratio", _gcd_nontrivial)),
    Target("linalg.pfaffian", "linalg:pfaffian", (CERT,)),
    Target("linalg.pfaffian_adjugate", "linalg:pfaffian_adjugate", (CERT,)),
    Target("linalg.det_bareiss", "linalg:det_bareiss", (CERT,)),
    Target("linalg.poly_rank", "linalg:poly_rank", (CERT,)),
    # No workload reaches these two at this commit: diag_check calls rat_rank
    # only for rational eigenvalues, and the n=8 sample points never have one
    # (the square-root characteristic polynomial is an irreducible quartic
    # there); rat_kernel is called only by linearity_report with points, which
    # no CLI command passes.  They stay traced so that a change routing work
    # through them shows up.
    Target("linalg.rat_rank", "linalg:rat_rank", ()),
    Target("linalg.rat_kernel", "linalg:rat_kernel", ()),
    Target("linalg.rat_inverse", "linalg:rat_inverse", (DIAG,)),
    Target("linalg.rat_det", "linalg:rat_det", (TRANS,)),
    Target("threeform.pullback", "threeform:pullback", (TRANS,)),
    Target("threeform.embed", "threeform:embed", (TRANS,)),
    Target("threeform.chart_restrict", "threeform:chart_restrict", (TRANS,)),
    Target("operators.transform", "operators:transform", (TRANS,)),
    Target("operators.validate", "operators:validate", (TRANS,)),
    Target("operators.conformal_check", "operators:conformal_check", (TRANS,)),
    Target("operators.conformal_determinant_check", "operators:conformal_determinant_check", (TRANS,)),
    Target("operators.Hho2.metric", "operators:Hho2.metric", (TRANS,)),
    Target("systems.ConservativeSystem", "systems:ConservativeSystem.__init__", (CERT, DIAG)),
    Target("systems.check_compat.symbolic", "systems:_check_compat_symbolic", (CERT,)),
    Target("systems.pluecker_relations", "systems:pluecker_relations", (CERT,)),
    Target("systems.euler_check", "systems:euler_check", (CERT,)),
    Target("systems.casimir_check", "systems:casimir_check", (CERT,)),
    Target("systems.check_compat.points", "systems:_check_compat_points", (DIAG,)),
    Target("systems.jacobian_at", "systems:ConservativeSystem.jacobian_at", (DIAG,),
           ratio=("systems.jacobian_at.cache_hit_ratio", _jacobian_cache_hit)),
    Target("systems.hessian_at", "systems:ConservativeSystem.hessian_at", (DIAG,)),
    Target("diagnostics.nijenhuis", "diagnostics:nijenhuis", (DIAG,)),
    Target("diagnostics.nijenhuis_closed_form", "diagnostics:nijenhuis_closed_form", (DIAG,)),
    Target("diagnostics.haantjes", "diagnostics:haantjes", (DIAG,)),
    Target("diagnostics.diag_check", "diagnostics:diag_check", (DIAG,)),
    Target("diagnostics.charpoly_square_at", "diagnostics:charpoly_square_at", (DIAG,)),
    Target("diagnostics.factor_univariate", "diagnostics:factor_univariate", (DIAG,)),
    Target("diagnostics.charpoly_square_symbolic", "diagnostics:charpoly_square_symbolic", (CERT,)),
    Target("diagnostics.sample_points", "diagnostics:sample_points", (DIAG, TRANS),
           ratio=("diagnostics.sample_points.accept_ratio", _sample_accept)),
    Target("catalog.build", "catalog:CatalogEntry.build", WORKLOADS),
    Target("cli.main", "cli:main", WORKLOADS),
)


def per_layer_spec() -> List[dict]:
    """The `per_layer` entries of BENCHMARK.json, in report order."""
    out = []
    for t in TARGETS:
        out.append({"name": f"{t.name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{t.name}.self_s", "unit": "s", "better": "lower"})
        if t.ratio:
            out.append({"name": t.ratio[0], "unit": "ratio", "better": "higher"})
    for module in MODULES:
        out.append({"name": f"{module}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{module}.self_s", "unit": "s", "better": "lower"})
    return out


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Installs the wrappers, accumulates per-target counts and self times."""

    def __init__(self):
        self.stats: Dict[str, _Stat] = {t.name: _Stat() for t in TARGETS}
        self.ratios: Dict[str, List[int]] = {t.ratio[0]: [0, 0] for t in TARGETS if t.ratio}
        # Child time of the open spans; index 0 collects time outside any span.
        self._child: List[float] = [0.0]
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("hho2")]
        modules += [importlib.import_module(f"hho2.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for target in TARGETS:
            module_name, path = target.home.split(":")
            owner = by_name[module_name]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(target, original)
            # A method is patched under every name its class gives it; a
            # function at every module that imported it.
            holders = [owner] if classes else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.name]
        child = self._child
        clock = time.perf_counter

        if target.kernel:
            @functools.wraps(fn)
            def kernel(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child[-1] += elapsed
                    stat.calls += 1
                    stat.self_s += elapsed

            return kernel

        evals = self.stats["poly.MultiPoly.eval"]
        ratio = self.ratios[target.ratio[0]] if target.ratio else None
        observe = target.ratio[1] if target.ratio else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            evals_before = evals.calls
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - inner
            if observe is not None:
                num, den = observe(result, evals.calls - evals_before)
                ratio[0] += num
                ratio[1] += den
            return result

        return span

    def metrics(self, time_scale: float = 1.0) -> Dict[str, dict]:
        """Every per-layer metric, named and ordered as in `per_layer_spec`.

        Self times are multiplied by `time_scale`.
        """
        values: Dict[str, float] = {}
        for t in TARGETS:
            stat = self.stats[t.name]
            values[f"{t.name}.calls"] = stat.calls
            values[f"{t.name}.self_s"] = stat.self_s * time_scale
            if t.ratio:
                num, den = self.ratios[t.ratio[0]]
                values[t.ratio[0]] = num / den if den else 0.0
        for module in MODULES:
            stats = [self.stats[t.name] for t in TARGETS if t.name.split(".", 1)[0] == module]
            values[f"{module}.calls"] = sum(s.calls for s in stats)
            values[f"{module}.self_s"] = sum(s.self_s for s in stats) * time_scale
        return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in per_layer_spec()}
