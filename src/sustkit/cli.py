"""Command-line front end.

Every library operation is reachable from one executable with
machine-readable output:

    sustkit verify-solutions [--k 2,3,4,5]
    sustkit rs sum|integrate|variation|bound --omega EXPR --lo A --hi B ...
    sustkit solve --spec scenario.json
    sustkit figures --which fig4|fig5
    sustkit index eval|seven|fit ...
    sustkit pavement table|reduction ...

Options follow the verb, and each verb's parser holds only the options its
handler reads: any other, or an option before the verb, is a usage error,
which exits 1 like every error.
Functions for the ``rs`` verbs are expressions in x (see
:mod:`sustkit.expressions`) or ``table:FILE.csv`` sample tables.  All
subcommands are deterministic given their inputs and seeds.  The default
output directory is "." or $SUSTKIT_OUTPUT_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import diffusion, index, pavement, polynomials
from . import riemann_stieltjes as rs
from .expressions import compile_expression

OUTPUT_DIR_ENV = "SUSTKIT_OUTPUT_DIR"


def _fmt(x: float, precision: str) -> str:
    return repr(float(x)) if precision == "full" else f"{float(x):.6g}"


def _function_arg(text: str):
    """An expression in x, or table:FILE for a CSV-sampled function."""
    if text.startswith("table:"):
        return rs.WeightFunction.from_csv(text[len("table:"):])
    return compile_expression(text)


def _list_of(kind):
    """Parser of a comma- or space-separated list; argparse names it in errors."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.replace(",", " ").split()]
    parse.__name__ = f"{kind.__name__} list"
    return parse


_float_list, _int_list = _list_of(float), _list_of(int)


# A negative number; argparse's own pattern misses the exponent form (-1e-3).
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so they exit 1 like every other error.

    A command parser with ``verbs`` refuses an option before its verb, which
    argparse would otherwise report as an invalid verb named by the option's
    value.  An argument such as ``-1e-3`` is a value, not an option."""

    verbs: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        if self.verbs and args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            raise ValueError(f"options follow the verb: {self.prog} VERB {args[0]} ..., "
                             f"where VERB is one of {', '.join(self.verbs)}")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ValueError(message)


def _default_outdir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


# -- subcommand handlers -------------------------------------------------------


def _cmd_verify_solutions(args) -> int:
    checks = polynomials.verify_solution_families(
        k_values=args.k, draws=args.draws, seed=args.seed
    )
    if args.format == "json":
        print(json.dumps([asdict(c) for c in checks], indent=2, sort_keys=True))
    else:
        for c in checks:
            status = "PASS" if c.ok else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            print(
                f"{status}  {c.variant:<18s} k={c.k}  {c.model:<11s} "
                f"max residual coeff {c.max_residual_coeff:.3e}{note}"
            )
    return 0 if all(c.ok for c in checks) else 1


def _rs_sum(args) -> int:
    f, omega = _function_arg(args.f), _function_arg(args.omega)
    p = rs.make_uniform_partition(args.lo, args.hi, args.n, args.tag_rule)
    print(_fmt(rs.rs_sum(f, omega, p), args.precision))
    return 0


def _rs_integrate(args) -> int:
    f, omega = _function_arg(args.f), _function_arg(args.omega)
    value = rs.rs_integrate(f, omega, args.lo, args.hi, args.eta)
    print(_fmt(value, args.precision))
    return 0


def _rs_variation(args) -> int:
    omega = _function_arg(args.omega)
    if args.n is not None:
        value = rs.total_variation(omega, rs.make_uniform_partition(args.lo, args.hi, args.n))
    else:
        value = rs.variation_sup(omega, args.lo, args.hi)
    print(_fmt(value, args.precision))
    return 0


def _rs_bound(args) -> int:
    f, omega = _function_arg(args.f), _function_arg(args.omega)
    report = rs.variation_lower_bound_check(f, omega, args.lo, args.hi, args.eta)
    if args.format == "json":
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print(
            f"lhs={_fmt(report.lhs, args.precision)} "
            f"rhs={_fmt(report.rhs, args.precision)} "
            f"holds={report.holds}"
        )
    return 0 if report.holds else 1


def _cmd_solve(args) -> int:
    spec = diffusion.scenario_from_json(args.spec)
    if args.dt is not None:
        spec = replace(spec, dt=args.dt)
    times = args.snapshots if args.snapshots is not None else [spec.t_end]
    fields = diffusion.run_scenario(spec, times)
    out = Path(args.out)
    stem = Path(args.spec).stem
    files = diffusion.export_snapshots(out, stem, times, fields, args.format)
    diffusion.write_manifest({"spec": str(args.spec), "dt": spec.resolved_dt(), "files": files},
                             out / f"{stem}_manifest.json")
    print(f"wrote {len(files)} snapshot(s) to {out}")
    return 0


def _cmd_figures(args) -> int:
    manifest = pavement.run_demo_figures(
        args.which,
        args.out,
        resolution=args.resolution,
        s=args.s,
        t_end=args.t_end,
        snapshot_times=args.snapshots,
        normalized=args.normalized,
    )
    n_files = sum(1 + ("normalized_file" in f) for p in manifest["panels"] for f in p["files"])
    print(f"wrote {n_files} grid(s) and {args.which}_manifest.json to {args.out}")
    return 0


def _make_inputs(args, k: int | None) -> index.IndexInputs:
    psi = _float_list(args.psi)
    weights = _float_list(args.weights) if args.weights else [1.0] * len(psi)
    return index.IndexInputs(
        k=len(psi) if k is None else k,
        t=args.t,
        psi=tuple(psi),
        weights=tuple(weights),
        alpha=args.alpha,
        beta=args.beta,
    )


def _index_eval(args) -> int:
    print(_fmt(index.index_value(_make_inputs(args, args.k), args.family), args.precision))
    return 0


def _index_seven(args) -> int:
    print(_fmt(index.index_seven_ab(_make_inputs(args, 7)), args.precision))
    return 0


def _index_fit(args) -> int:
    result = index.fit_alpha_beta(index.read_observations(args.observations))
    if args.out:
        index.write_fit_report(result, args.out)
    if args.format == "json":
        print(json.dumps(asdict(result), sort_keys=True))
    else:
        print(
            f"alpha={_fmt(result.alpha, args.precision)} "
            f"beta={_fmt(result.beta, args.precision)} "
            f"residual_norm={_fmt(result.residual_norm, args.precision)} "
            f"n_obs={result.n_obs}"
        )
    return 0


def _pavement_table(args) -> int:
    designs = pavement.load_mix_table(args.table)
    if args.format == "json":
        print(json.dumps([asdict(d) for d in designs], indent=2, sort_keys=True))
    else:
        pavement.write_mix_table(designs, sys.stdout)
    return 0


def _pavement_reduction(args) -> int:
    designs = pavement.load_mix_table(args.table)
    baseline = pavement.find_mix(designs, args.baseline)
    if args.mix:
        mix = pavement.find_mix(designs, args.mix)
        print(_fmt(pavement.thickness_reduction(mix, baseline), args.precision))
    else:
        for label, pct in pavement.reduction_table(designs, args.baseline):
            print(f"{label},{_fmt(pct, args.precision)}")
    return 0


# -- parser --------------------------------------------------------------------

_PRECISION = dict(choices=("default", "full"), default="default")


def _verbs(sub, command: str, help: str, **handlers) -> dict:
    """The parser of each verb of ``command``, by name, set to call its handler."""
    parser = sub.add_parser(command, help=help)
    parser.verbs = tuple(handlers)
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, handler in handlers.items():
        verbs.add_parser(verb).set_defaults(handler=handler)
    return verbs.choices


def _option(parsers: dict, verbs: str, flag: str, **kwargs) -> None:
    """Declare one option on each of the named verbs, the only ones that read it."""
    for verb in verbs.split():
        parsers[verb].add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sustkit",
        description="Sustainability-index toolkit: closed-form PDE index "
        "families, Riemann-Stieltjes weights, an explicit diffusion solver "
        "and the recycled-pavement case study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-solutions", help="check every index family against its model")
    p.add_argument("--k", type=_int_list, default=[2, 3, 4, 5], metavar="LIST")
    p.add_argument("--draws", type=int, default=20,
                   help="random draws per parametrised family; the time is linear in it, "
                   "about 25 us per draw and family at k <= 7 (--draws 100000 at --k 2: "
                   "about 10 s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify_solutions)

    v = _verbs(sub, "rs", "Riemann-Stieltjes sums, integrals and variation", sum=_rs_sum,
               integrate=_rs_integrate, variation=_rs_variation, bound=_rs_bound)
    _option(v, "sum integrate bound", "--f", default="1", help="integrand expression or table:FILE")
    _option(v, "sum integrate variation bound", "--omega", required=True,
            help="weight expression or table:FILE")
    _option(v, "sum integrate variation bound", "--lo", type=float, required=True)
    _option(v, "sum integrate variation bound", "--hi", type=float, required=True)
    _option(v, "sum", "--n", type=int, required=True, help="subintervals")
    _option(v, "sum", "--tag-rule", choices=rs.TAG_RULES, default="midpoint")
    _option(v, "integrate bound", "--eta", type=float, default=1e-6)
    _option(v, "variation", "--n", type=int,
            help="subintervals of one partition (default: the supremum over dyadic refinements)")
    _option(v, "bound", "--format", choices=("text", "json"), default="text")
    _option(v, "sum integrate variation bound", "--precision", **_PRECISION)

    p = sub.add_parser("solve", help="run a scenario from a JSON spec and export grids")
    p.add_argument("--spec", required=True)
    p.add_argument("--snapshots", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--dt", type=float, default=None,
                   help="override the spec's time step (must satisfy the stability bound)")
    p.add_argument("--out", default=_default_outdir())
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("figures", help="run the four panels of a demonstration figure")
    p.add_argument("--which", choices=("fig4", "fig5"), required=True)
    p.add_argument("--out", default=_default_outdir())
    p.add_argument("--resolution", type=int, default=pavement.DEFAULT_RESOLUTION,
                   help="points on the longest axis")
    p.add_argument("--s", type=float, default=pavement.DEFAULT_S)
    p.add_argument("--t-end", type=float, default=pavement.DEFAULT_T_END)
    p.add_argument("--snapshots", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--normalized", action="store_true",
                   help="also export grids divided by s*t")
    p.set_defaults(handler=_cmd_figures)

    v = _verbs(sub, "index", "evaluate or fit the weighted index",
               eval=_index_eval, seven=_index_seven, fit=_index_fit)
    _option(v, "eval", "--family", default="C1w", choices=polynomials.FAMILY_VARIANTS)
    _option(v, "eval", "--k", type=int, help="number of factors (default: as many as --psi)")
    _option(v, "eval seven", "--t", type=float, default=0.0)
    _option(v, "eval seven", "--psi", default="", help="comma-separated factor values")
    _option(v, "eval seven", "--weights", default="", help="comma-separated weights (default all 1)")
    _option(v, "eval seven", "--alpha", type=float)
    _option(v, "eval seven", "--beta", type=float)
    _option(v, "fit", "--observations", required=True,
            help="CSV (t, psi1.., omega1.., H_obs) or JSON observations")
    _option(v, "fit", "--out", help="write the fit report JSON here")
    _option(v, "fit", "--format", choices=("text", "json"), default="text")
    _option(v, "eval seven fit", "--precision", **_PRECISION)

    v = _verbs(sub, "pavement", "mix-design table and thickness reductions",
               table=_pavement_table, reduction=_pavement_reduction)
    _option(v, "table reduction", "--table", help="mix-design CSV (default: embedded table)")
    _option(v, "reduction", "--mix", help="mix label for a single reduction")
    _option(v, "reduction", "--baseline", default=pavement.BASELINE_LABEL)
    _option(v, "table", "--format", choices=("csv", "json"), default="csv")
    _option(v, "reduction", "--precision", **_PRECISION)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, KeyError, OSError, MemoryError, rs.NonConvergenceError,
            diffusion.NonFiniteFieldError) as exc:
        # str() of a KeyError is the repr of its message: print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        if isinstance(exc, MemoryError):  # numpy's names the allocation; a bare one is empty
            message = f"out of memory: {exc}".removesuffix(": ")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
