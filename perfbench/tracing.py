"""Spans and counters recorded from outside sustkit.

A :class:`Tracer` replaces public sustkit functions with wrappers that
record one span per call: name, start, end, parent span and the benchmark
round it belongs to.  The replacement is made in every ``sustkit`` module
namespace that holds the original object, so names that ``pavement`` and
``cli`` import from ``diffusion`` and ``expressions`` are traced too.
Spans stay in memory until the run ends; :meth:`Tracer.write` saves them
and :meth:`Tracer.layer_metrics` turns them into the per-layer metrics.

:class:`Counters` counts work at the callables the benchmark passes into
sustkit (integrands, weights, boundary rules).  It is on in every run,
traced or not, because ``rs_evals`` is reported from it.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs whose calls become spans.  The span name is the
# module's short name and the attribute.
FUNCTIONS = (
    ("diffusion", "step_explicit"),
    ("diffusion", "run_scenario"),
    ("diffusion", "convergence_study"),
    ("diffusion", "field_to_csv"),
    ("diffusion", "field_to_json"),
    ("pavement", "run_demo_figures"),
    ("riemann_stieltjes", "rs_integrate"),
    ("riemann_stieltjes", "variation_lower_bound_check"),
    ("riemann_stieltjes", "variation_sup"),
    ("expressions", "compile_expression"),
    ("index", "read_observations"),
    ("index", "fit_alpha_beta"),
    ("index", "write_fit_report"),
    ("polynomials", "verify_solution_families"),
    ("polynomials", "build_solution"),
    ("cli", "main"),
    ("cli", "build_parser"),
)

# (module, class, method) triples traced on the class itself.
METHODS = (
    ("riemann_stieltjes", "WeightFunction", "from_csv"),
    ("polynomials", "SparsePolynomial", "partial"),
    ("polynomials", "SparsePolynomial", "__add__"),
)

COUNTERS = (
    "integrand_points",
    "weight_points",
    "weight_passes",
    "scalar_fallback_points",
    "boundary_calls",
    "csv_bytes",
)


class Counters:
    """Per-round counts of work done at the benchmark's own callables."""

    def __init__(self):
        self.current = dict.fromkeys(COUNTERS, 0)
        self.rounds: list[dict[str, int]] = []

    def add(self, key: str, n: int = 1) -> None:
        self.current[key] += n

    def end_round(self) -> None:
        self.rounds.append(self.current)
        self.current = dict.fromkeys(COUNTERS, 0)

    def discard_round(self) -> None:
        self.current = dict.fromkeys(COUNTERS, 0)


class Counted:
    """Callable that forwards to ``fn`` and, when the call returns, adds to
    ``key`` the number of points it was evaluated at (the array size, 1 for
    a scalar) and to ``calls_key`` one call."""

    def __init__(self, fn, counters: Counters, key: str | None, calls_key: str | None = None):
        self.fn = fn
        self.counters = counters
        self.key = key
        self.calls_key = calls_key

    def __call__(self, *args):
        out = self.fn(*args)
        if self.key is not None:
            x = args[0]
            self.counters.add(self.key, x.size if isinstance(x, np.ndarray) else 1)
        if self.calls_key is not None:
            self.counters.add(self.calls_key)
        return out


class Tracer:
    """Spans of the sustkit calls made while installed, kept in memory."""

    def __init__(self, counters: Counters):
        self.counters = counters
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one record per span: [name_id, parent, start_ns, end_ns, round]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.round = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, parent, time.perf_counter_ns(), 0, self.round])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as a span; ``after(args, kwargs)`` runs once the
        span has closed."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs)
            return out

        return traced

    # -- installing wrappers ---------------------------------------------------

    def _count_csv_bytes(self, args, kwargs) -> None:
        path = kwargs["path"] if "path" in kwargs else args[1]
        self.counters.add("csv_bytes", os.path.getsize(path))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sustkit" or n.startswith("sustkit.")]
        for short, attr in FUNCTIONS:
            module = sys.modules[f"sustkit.{short}"]
            original = getattr(module, attr)
            name = f"{short}.{attr}"
            if (short, attr) == ("expressions", "compile_expression"):
                wrapper = self._compile_wrapper(original)
            elif (short, attr) == ("cli", "build_parser"):
                wrapper = self._parser_wrapper(original)
            else:
                after = self._count_csv_bytes if name == "diffusion.field_to_csv" else None
                wrapper = self.wrap(original, name, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"sustkit.{short}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapper = self.wrap(raw, name)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def _compile_wrapper(self, original):
        timed = self.wrap(original, "expressions.compile_expression")

        def compile_expression(text):
            return self.wrap(timed(text), "expressions.eval")

        return compile_expression

    def _parser_wrapper(self, original):
        timed = self.wrap(original, "cli.build_parser")

        def build_parser():
            parser = timed()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")
            return parser

        return build_parser

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Save every span as gzip-compressed JSON: a name table and one
        [name, parent, start_ns, end_ns, round] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.  Per-round figures are
        medians over the rounds; per-call figures (``_us`` and ``cli.parse_ms``)
        are medians over the calls.  A layer the workload never calls reads 0."""
        rounds = self.counters.rounds
        total = [defaultdict(int) for _ in rounds]  # span time, ns
        own = [defaultdict(int) for _ in rounds]  # span time minus child spans, ns
        ncalls = [defaultdict(int) for _ in rounds]
        durations: dict[str, list[int]] = defaultdict(list)
        child = [0] * len(self.spans)
        for nid, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, parent, start, end, rnd) in enumerate(self.spans):
            if not 0 <= rnd < len(rounds):
                continue
            name = self.names[nid]
            total[rnd][name] += end - start
            own[rnd][name] += end - start - child[i]
            ncalls[rnd][name] += 1
            durations[name].append(end - start)

        def per_round(table, name, scale=1e-9):
            return statistics.median(r[name] for r in table) * scale

        def per_call(name, scale):
            values = durations.get(name)
            return statistics.median(values) * scale if values else 0.0

        def count(key):
            return statistics.median(r[key] for r in rounds)

        csv_rates = [
            c["csv_bytes"] / 1e6 / (t["diffusion.field_to_csv"] * 1e-9)
            for c, t in zip(rounds, total)
            if t["diffusion.field_to_csv"]
        ]
        parse_ns = [
            b + p for b, p in zip(durations["cli.build_parser"], durations["cli.parse_args"])
        ]
        return {
            "diffusion.step_explicit_us": (per_call("diffusion.step_explicit", 1e-3), "us"),
            "diffusion.run_scenario_self_s": (per_round(own, "diffusion.run_scenario"), "s"),
            "diffusion.boundary_calls": (count("boundary_calls"), "count"),
            "diffusion.convergence_study_self_s": (
                per_round(own, "diffusion.convergence_study"), "s"),
            "diffusion.field_to_csv_s": (per_round(total, "diffusion.field_to_csv"), "s"),
            "diffusion.csv_mb_per_s": (statistics.median(csv_rates) if csv_rates else 0.0, "MB/s"),
            "diffusion.field_to_json_s": (per_round(total, "diffusion.field_to_json"), "s"),
            "pavement.run_demo_figures_self_s": (per_round(own, "pavement.run_demo_figures"), "s"),
            "riemann_stieltjes.rs_integrate_self_s": (
                per_round(own, "riemann_stieltjes.rs_integrate"), "s"),
            "riemann_stieltjes.variation_lower_bound_check_self_s": (
                per_round(own, "riemann_stieltjes.variation_lower_bound_check"), "s"),
            "riemann_stieltjes.variation_sup_s": (
                per_round(total, "riemann_stieltjes.variation_sup"), "s"),
            "riemann_stieltjes.levels": (count("weight_passes"), "count"),
            "riemann_stieltjes.integrand_points": (count("integrand_points"), "count"),
            "riemann_stieltjes.weight_points": (count("weight_points"), "count"),
            "riemann_stieltjes.scalar_fallback_points": (count("scalar_fallback_points"), "count"),
            "riemann_stieltjes.from_csv_ms": (
                per_round(total, "riemann_stieltjes.WeightFunction.from_csv", 1e-6), "ms"),
            "expressions.compile_expression_us": (
                per_call("expressions.compile_expression", 1e-3), "us"),
            "expressions.eval_s": (per_round(total, "expressions.eval"), "s"),
            "index.read_observations_s": (per_round(total, "index.read_observations"), "s"),
            "index.fit_alpha_beta_s": (per_round(total, "index.fit_alpha_beta"), "s"),
            "index.write_fit_report_ms": (per_round(total, "index.write_fit_report", 1e-6), "ms"),
            "polynomials.verify_solution_families_self_s": (
                per_round(own, "polynomials.verify_solution_families"), "s"),
            "polynomials.build_solution_s": (per_round(total, "polynomials.build_solution"), "s"),
            "polynomials.partial_s": (
                per_round(total, "polynomials.SparsePolynomial.partial"), "s"),
            "polynomials.partial_calls": (
                per_round(ncalls, "polynomials.SparsePolynomial.partial", 1), "count"),
            "polynomials.add_s": (per_round(total, "polynomials.SparsePolynomial.__add__"), "s"),
            "cli.parse_ms": (statistics.median(parse_ns) * 1e-6 if parse_ns else 0.0, "ms"),
            "cli.handler_self_s": (per_round(own, "cli.main"), "s"),
        }
