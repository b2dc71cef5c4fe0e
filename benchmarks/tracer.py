"""Spans around k2sym's public functions, recorded from the benchmark.

`install` replaces each traced function in every k2sym module namespace
that holds it, because several modules import names directly (funcfield
takes poly_factor and is_irreducible from arith, localsym, k2q and
quadforms take factorize, charpforms takes the _fp_* helpers); patching
only the defining module would miss those calls.  Methods are patched on
their class.

A span covers one call.  Spans nest on a stack; when one closes, its
duration goes to its parent's child time, and its self time (duration
minus child time) and call count go to per-name totals.  Spans are summed
as they close rather than stored, because the field arithmetic opens
millions of them.  With `active` false a wrapper only forwards the call;
`uninstall` removes the wrappers for untraced timing.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

from k2sym import arith

# Attributes traced per module; "Class.method" patches the method on the
# class.  Besides the functions the per-layer metrics name, every function
# one module calls in another is traced, so that a module's self time is
# spent in that module.
TRACED = {
    "arith": ("is_prime", "primes_below", "factorize", "field", "poly_factor", "is_irreducible",
              "_fp_mul", "_fp_divmod", "_fp_gcd", "_fp_sub",
              "Fq.mul", "Fq.add", "Fq.sub", "Fq.neg", "Fq.inv", "Fq.div", "Fq.pow", "Poly.divmod"),
    "funcfield": ("weil_check", "tame_ff", "decompose", "residue_norm", "lift_ff", "PlaceFq.__post_init__"),
    "localsym": ("hilbert", "tame", "h_p", "s_2", "s_infinity", "support_places", "odd_support"),
    "k2q": ("hilbert_reciprocity", "lift", "lambda_tate", "moore_map", "quadratic_reciprocity"),
    "quadforms": ("invariants", "conic_solvable_Q", "conic_point_search", "quaternion_splits",
                  "pfister_hasse_identity", "square_class"),
    "charpforms": ("dlog2", "cartier2", "cartier1", "bipoly_gcd", "nu_member"),
    "zeta": ("count_points", "tate_identity", "l_polynomial", "zeta_minus1"),
    "regnum": ("loop_integral", "residue_check", "bloch_wigner"),
    "parsing": ("parse_rational", "parse_funcfield", "parse_poly", "parse_charp",
                "parse_gauss_ratfunc", "parse_gauss_point"),
    "cli": ("main",),
}


def _observe_place(tracer, args, result):
    if args[0].pi is not None:
        tracer.counts["funcfield.places_built"] += 1


def _observe_loop(tracer, args, result):
    tracer.counts["regnum.loop_integral.samples"] += result.samples


def _observe_support(tracer, args, result):
    if tracer.open["quadforms.invariants"]:
        tracer.counts["quadforms.invariants.support_places"] += 1


OBSERVERS = {
    "funcfield.PlaceFq.__post_init__": _observe_place,
    "regnum.loop_integral": _observe_loop,
    "localsym.support_places": _observe_support,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        self._field = arith.field     # the lru_cache object, for cache_info

    def span(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        stack, calls, self_ns, open_ = self._stack, self.calls, self.self_ns, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            open_[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                child = stack.pop()
                open_[name] -= 1
                calls[name] += 1
                self_ns[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "k2sym" or n.startswith("k2sym.")]
        for module_name, attrs in TRACED.items():
            owner = sys.modules[f"k2sym.{module_name}"]
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, method, self.span(name, cls.__dict__[method]))
                    continue
                original = getattr(owner, attr)
                wrapped = self.span(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, obj, key, value) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def field_cache_hit_ratio(self) -> float:
        info = self._field.cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0


# -- the per-layer metrics ------------------------------------------------------------

FF = ("ff-prime", "ff-prime-power")
FF_CLI = FF + ("cli-mix",)
Q_CLI = ("q-symbols", "cli-mix")
CLI = ("cli-mix",)
ALL = ("q-symbols",) + FF_CLI


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and its prediction: the end-to-end metric it
    should move and on which workload, the workloads that must exercise
    it (non-zero) and those that bypass it (exactly zero)."""

    name: str
    unit: str
    better: str
    moves: str
    on: tuple[str, ...]
    zero_on: tuple[str, ...]


def _m(name, unit, moves, on, better="lower", zero_on=None):
    return LayerMetric(name, unit, better, moves, on,
                       tuple(w for w in ALL if w not in on) if zero_on is None else zero_on)


LAYER_METRICS = (
    # field arithmetic and polynomials over F_q
    _m("arith.Fq.mul.calls", "count", "ops_per_s, op_p95_ms on ff-prime-power and cli-mix (zeta); unchanged on ff-prime", FF_CLI),
    _m("arith.Fq.add.calls", "count", "ops_per_s, op_p95_ms on ff-prime-power and cli-mix (zeta)", FF_CLI),
    _m("arith.Fq.inv.calls", "count", "ops_per_s, op_p95_ms on ff-prime-power and cli-mix (zeta)", FF_CLI),
    _m("arith.Fq.self_ms", "ms", "ops_per_s, op_p95_ms on ff-prime-power and cli-mix (zeta)", FF_CLI),
    _m("arith._fp.calls", "count", "ops_per_s on ff-prime-power (the digit-list layer behind prime-power F_q)", ("ff-prime-power", "cli-mix")),
    _m("arith.poly_factor.calls", "count", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("arith.poly_factor.self_ms", "ms", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("arith.is_irreducible.calls", "count", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("arith.is_irreducible.self_ms", "ms", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("arith.Poly.divmod.calls", "count", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("funcfield.irreducible_tests_per_place", "ratio", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("funcfield.weil_check.self_ms", "ms", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("funcfield.tame_ff.self_ms", "ms", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("funcfield.tame_ff.calls", "count", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("funcfield.decompose.self_ms", "ms", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    _m("funcfield.residue_norm.self_ms", "ms", "ops_per_s on ff-prime and ff-prime-power", FF_CLI),
    # factorization and local symbols over Q
    _m("arith.factorize.calls", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("arith.factorize.self_ms", "ms", "ops_per_s on q-symbols", Q_CLI),
    _m("arith.factorize.per_op", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("arith.is_prime.calls", "count", "ops_per_s on q-symbols", ALL),
    _m("arith.primes_below.calls", "count", "ops_per_s on q-symbols", ALL),
    _m("localsym.hilbert.calls", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("localsym.tame.calls", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("localsym.s_2.calls", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("localsym.support_places.calls", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("localsym.self_ms", "ms", "ops_per_s on q-symbols", Q_CLI),
    _m("k2q.hilbert_reciprocity.self_ms", "ms", "ops_per_s on q-symbols", Q_CLI),
    _m("k2q.lift.self_ms", "ms", "ops_per_s on q-symbols", Q_CLI),
    _m("k2q.lambda_tate.calls", "count", "ops_per_s on q-symbols", Q_CLI),
    _m("quadforms.invariants.self_ms", "ms", "op_p95_ms on q-symbols (invariants are the tail)", Q_CLI),
    _m("quadforms.conic_solvable_Q.self_ms", "ms", "op_p95_ms on q-symbols", Q_CLI),
    _m("quadforms.invariants.support_places_per_call", "count", "op_p95_ms on q-symbols (n^2 support_places calls -> n)", Q_CLI),
    # characteristic p forms and zeta
    _m("charpforms.dlog2.self_ms", "ms", "ops_per_s on cli-mix", CLI),
    _m("charpforms.cartier2.self_ms", "ms", "ops_per_s on cli-mix", CLI),
    _m("charpforms.cartier2.calls", "count", "ops_per_s on cli-mix", CLI),
    _m("charpforms.bipoly_gcd.self_ms", "ms", "ops_per_s on cli-mix", CLI),
    _m("charpforms.bipoly_gcd.calls", "count", "ops_per_s on cli-mix", CLI),
    _m("zeta.count_points.self_ms", "ms", "ops_per_s, op_p95_ms on cli-mix", CLI),
    _m("zeta.tate_identity.self_ms", "ms", "ops_per_s, op_p95_ms on cli-mix", CLI),
    # regulator numerics
    _m("regnum.loop_integral.self_ms", "ms", "op_p95_ms, ops_per_s on cli-mix", CLI),
    _m("regnum.loop_integral.calls", "count", "op_p95_ms, ops_per_s on cli-mix", CLI),
    _m("regnum.loop_integral.samples_per_call", "count", "op_p95_ms, ops_per_s on cli-mix", CLI),
    _m("regnum.residue_check.self_ms", "ms", "op_p95_ms, ops_per_s on cli-mix", CLI),
    _m("regnum.bloch_wigner.self_ms", "ms", "ops_per_s on cli-mix", CLI),
    # may be exactly 0 on a lucky cli-mix stream
    _m("regnum.loop_err_max", "1", "must not rise on cli-mix", (), zero_on=("q-symbols",) + FF),
    # CLI boundary
    _m("parsing.self_ms", "ms", "op_p50_ms on cli-mix", CLI),
    _m("parsing.calls", "count", "op_p50_ms on cli-mix", CLI),
    _m("cli.main.self_ms", "ms", "op_p50_ms on cli-mix (argparse construction and JSON output)", CLI),
    # set-up and the cost of looking
    _m("arith.field.cache_hit_ratio", "ratio", "setup_s on every workload", FF_CLI, better="higher"),
    _m("trace.overhead", "x", "none: traced / untraced busy time of the same decks", ALL),
)


def layer_values(tracer: Tracer, n_ops: int, loop_err_max: float, overhead: float,
                 scale: float) -> dict[str, float]:
    """Every LAYER_METRICS value from a finished traced run; `scale` takes
    its times to reference speed."""
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts

    def module_ms(prefix):
        return sum(ns for name, ns in self_ns.items() if name.startswith(prefix)) * scale / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.name.rpartition(".")
        if kind == "calls":
            values[metric.name] = calls[base]
        elif kind == "self_ms":
            values[metric.name] = self_ns[base] * scale / 1e6
    values.update({
        "arith.Fq.self_ms": module_ms("arith.Fq."),
        "arith._fp.calls": sum(n for name, n in calls.items() if name.startswith("arith._fp_")),
        "funcfield.irreducible_tests_per_place": ratio(calls["arith.is_irreducible"], counts["funcfield.places_built"]),
        "arith.factorize.per_op": ratio(calls["arith.factorize"], n_ops),
        "localsym.self_ms": module_ms("localsym."),
        "quadforms.invariants.support_places_per_call": ratio(
            counts["quadforms.invariants.support_places"], calls["quadforms.invariants"]),
        "regnum.loop_integral.samples_per_call": ratio(
            counts["regnum.loop_integral.samples"], calls["regnum.loop_integral"]),
        "regnum.loop_err_max": loop_err_max,
        "parsing.self_ms": module_ms("parsing."),
        "parsing.calls": sum(n for name, n in calls.items() if name.startswith("parsing.")),
        "arith.field.cache_hit_ratio": tracer.field_cache_hit_ratio(),
        "trace.overhead": overhead,
    })
    return values
