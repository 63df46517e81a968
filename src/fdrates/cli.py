"""Batch command-line front end.

Subcommands: constants, spectrum, hp-verify, eigenfunction, evolve,
evolve-linear, entropy-report, gronwall, quotient, rescale.  Each command
returns a table (echo, header, rows), or a dict for --format json, and main
writes it, on stdout or in the --output file: a table as CSV, the title
'# fdrates <command>' and one '# key=value' line per echo pair, such as the
config keys the command reads, before the header row; a dict as JSON, keys
sorted, a Fraction as its float, no nan or inf.  Numbers round-trip (CSV
with 17 significant digits, JSON floats as Python's repr), so runs with
identical configuration and seed produce identical bytes.

--m and --alpha (each item of the comma-separated alpha sweep of hp-verify
too), and m and alpha in config files, are read as exact rationals (decimals
such as 0.9, or fractions such as -7/2), so the closed forms evaluate them
exactly.  Every other real number, option or config value, is read by one
parser, _finite, which refuses nan and inf.  A config file is checked as it
is read: each key by its parser and range (_CONFIG_KEYS), the time axis by
scalar._schedule, the constraints across keys by _validate_config, then each
key set against the keys its command reads (_READS), and what its data.kind
needs: D0 and D1 for profile-blend and data.match_D, an admissible mode.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical failure;
the process entry run() exits 141 (128 + SIGPIPE) when stdout is closed.
Exit 1 also covers a config or --output file that cannot be opened, and a
scipy whose LAPACK extension is not where fdrates._lapack looks.  An --output
that is a directory, or lies in a directory that does not exist, is refused
before the command runs; the file is written only once the command succeeded.

Only the closed forms (exponents, spectral) are imported with this module;
each command imports the other modules it runs itself.  So constants,
spectrum and eigenfunction, whose ODE residual is exact rational arithmetic,
and gronwall and rescale, which run on Python floats (scalar), load neither
numpy nor scipy.  No command loads dataclasses: the records are NamedTuples.

The `fdrates` command and `python -m fdrates.cli` enter through run(): BLAS
runs single-threaded unless the user sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS, and the process flushes its output and
exits without interpreter teardown.  main(argv) returns the exit code to
in-process callers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import NoReturn

from . import exponents as exp_mod
from . import spectral as spec

__all__ = ["main", "run", "parse_config", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    """Invalid run configuration (bad key, value, or cross-field constraint)."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, Fraction)):
        return format(float(x), ".17g")
    return str(x)


def _json_number(x) -> float:
    """json.dumps' default: an exact rational as its float, nothing else."""
    if isinstance(x, Fraction):
        return float(x)
    raise TypeError(f"{type(x).__name__} {x!r} has no JSON form")


def _exact(text: str) -> Fraction:
    """m and alpha, on the command line and in config files: a decimal such
    as 0.9 or 1e-3, or a fraction such as -7/2, read exactly so the closed
    forms stay in rational arithmetic."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a finite decimal or fraction, got {text!r}") from None


def _finite(text: str) -> float:
    """Every float option and float config value: a number such as 2e-4 or
    15, as float() reads it, but not nan or inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _exact_list(text: str) -> list[Fraction]:
    """A comma-separated sweep such as -1,-4,-6, each item read by _exact."""
    return [_exact(item) for item in text.split(",")]


def _matching(pattern: str, expected: str):
    """An option type that takes the text whole if it matches pattern."""
    def parse(text: str) -> str:
        if re.fullmatch(pattern, text):
            return text
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _quotient_function(text: str) -> str:
    """quotient's --f: gauss, ring or mode:k, the discrete mode (0, k) of the
    radial sector, where the entropy functionals live, other than the
    constant mode:0, whose mean-zero part, the quotient's denominator,
    vanishes."""
    name = _matching(r"gauss|ring|mode:\d+",
                     "gauss, ring or mode:k with an integer k >= 1")(text)
    if name.startswith("mode:") and not int(name[5:]):
        raise argparse.ArgumentTypeError(
            f"{text} is the constant mode, whose mean-zero part vanishes")
    return name


# ---------------------------------------------------------------------------
# run configuration files (key=value)

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _one_of(*names):
    """A parser that accepts one of the names and raises KeyError otherwise."""
    table = {k: k for k in names}
    return lambda s: table[s]


# the keys each config command reads, by data.kind, the first kind its default
# (data.clip leaves a profile-blend, which lies in the sandwich, as it is)
_SHARED_KEYS = ("d", "m", "alpha", "D", "data.kind", "grid.R_max", "grid.N",
                "time.dt", "time.t_end", "output.cadence", "fit.window_start",
                "fit.window_end", "fit.kind")
_FLOW_KEYS = _SHARED_KEYS + ("D0", "D1", "data.match_D")
_FLOW_READS = {"profile-blend": _FLOW_KEYS,
               "eigen": _FLOW_KEYS + ("data.epsilon", "data.mode_k", "data.clip"),
               "bump": _FLOW_KEYS + ("data.seed", "data.amplitude", "data.clip")}
_READS = {"evolve": _FLOW_READS, "entropy-report": _FLOW_READS,
          "evolve-linear": {"generic": _SHARED_KEYS + ("sector.l",),
                            "mode": _SHARED_KEYS + ("sector.l", "data.mode_k")}}

# limits of config values, (text, holds): a value v is refused unless holds(v)
_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = (">= 0", lambda v: v >= 0)

# key -> (parser, default, limits); a None default means "unset", and a value
# outside the limits is refused with the key and its line named.  The
# time keys have none of their own: they form the time axis, which
# scalar._schedule checks
_CONFIG_KEYS = {
    "d": (int, None, (">= 1", lambda d: d >= 1)),
    "m": (_exact, None, ("< 1", lambda m: m < 1)),
    "alpha": (_exact, None, ("< 0", lambda a: a < 0)),
    "D": (_finite, 1.0, _POSITIVE),
    "D0": (_finite, None, _POSITIVE),
    "D1": (_finite, None, _POSITIVE),
    "data.kind": (_one_of(*_FLOW_READS, *_READS["evolve-linear"]), None, None),
    "data.seed": (int, None, _NONNEGATIVE),
    "data.epsilon": (_finite, 0.05, None),
    "data.amplitude": (_finite, 0.1, None),
    "data.mode_k": (int, 1, _NONNEGATIVE),
    "data.match_D": (lambda s: _BOOL[s.lower()], True, None),
    "data.clip": (lambda s: _BOOL[s.lower()], True, None),
    "grid.R_max": (_finite, 100.0, _POSITIVE),
    "grid.N": (int, 800, (">= 16", lambda n: n >= 16)),
    "sector.l": (int, 0, _NONNEGATIVE),
    "time.dt": (_finite, 1e-3, None),
    "time.t_end": (_finite, 1.0, None),
    "output.cadence": (_finite, None, None),
    "fit.window_start": (_finite, None, None),
    "fit.window_end": (_finite, None, None),
    "fit.kind": (_one_of("exp", "loglog"), "exp", None),
}

# scalar._schedule's parameter -> the config key it reads
_TIME_KEYS = {"dt": "time.dt", "t_end": "time.t_end", "cadence": "output.cadence"}


def _exponents(d, m, alpha, names):
    """The exponent set of dimension d and exactly one of m and alpha, which
    the user sets as names, such as "--m and --alpha"."""
    if (m is None) == (alpha is None):
        raise ConfigError(f"give exactly one of {names}")
    return exp_mod.derive_exponents(d, exp_mod.alpha_to_m(d, alpha) if m is None else m)


class RunConfig(dict):
    """Validated key=value run configuration: every key its reader takes,
    None if unset, and lines, the line of each key the text sets."""

    def echo(self):
        """The (key, value) pairs of the keys set, sorted by key."""
        return [(k, v) for k, v in sorted(self.items()) if v is not None]

    def exponent_set(self):
        if self.get("d") is None:
            raise ConfigError("config must set d")
        return _exponents(self["d"], self.get("m"), self.get("alpha"), "m and alpha")


def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text ('#' comments, one pair per line).

    Each value is checked as it is read, by its key's parser and range; then
    scalar._schedule checks the time axis, whether or not the command runs
    a flow, and _validate_config the constraints across keys, the fit window
    on that time axis among them.  Raises ConfigError naming the key, and
    its line when the text sets it.
    """
    from . import scalar

    cfg = RunConfig({k: v for k, (_, v, _) in _CONFIG_KEYS.items()})
    seen = cfg.lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno
        parser, _, limits = _CONFIG_KEYS[key]
        try:
            value = parser(val)
        except argparse.ArgumentTypeError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from None
        except (ValueError, KeyError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from e
        if limits is not None and not limits[1](value):
            raise ConfigError(f"line {lineno}: {key} must be {limits[0]}, got {value}")
        cfg[key] = value
    try:
        schedule = scalar._schedule(0.0, cfg["time.t_end"], cfg["time.dt"],
                                    cfg["output.cadence"])
    except scalar.ScheduleError as e:
        key = _TIME_KEYS[e.parameter]
        if key in seen:
            raise ConfigError(f"line {seen[key]}: bad value for {key}: {e}") from None
        raise ConfigError(f"bad value for {key} (default {cfg[key]}): {e}") from None
    _validate_config(cfg, schedule)
    return cfg


def _validate_config(v: RunConfig, schedule):
    """The constraints across keys: the bracket D0 > D1, both or neither end
    of the fit window, and a window that entropy.fit_rate takes
    (scalar._window_rows) on the rows t = j*cadence, j = 0..n_rec, of
    schedule = (cadence, n_sub, n_rec), the rows that a flow records."""
    from . import scalar

    D0, D1 = v.get("D0"), v.get("D1")
    if D0 is not None and D1 is not None and not D0 > D1:
        raise ConfigError(f"need D0 > D1, got D0={D0}, D1={D1}")
    w0, w1 = v.get("fit.window_start"), v.get("fit.window_end")
    if (w0 is None) != (w1 is None):
        raise ConfigError("set both fit.window_start and fit.window_end or neither")
    if w0 is None:
        return
    cadence, _, n_rec = schedule
    try:
        scalar._window_rows([j * cadence for j in range(n_rec + 1)], (w0, w1),
                            v["fit.kind"])
    except ValueError as e:
        raise ConfigError(f"fit.window_start = {w0}, fit.window_end = {w1}: "
                          f"{e}") from None


def _load_config(path: str, command: str) -> RunConfig:
    """The config at path as command reads it (_READS): after parse_config's
    checks, a data.kind, unset the command's first, or a key set that the
    command does not read is refused by its line; the echo lists those read.
    Then what the kind needs, by its key's line or with the key named unset:
    D0 and D1 for profile-blend or data.match_D, a sector l of d, an admissible mode."""
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    kinds = _READS[command]
    kind = cfg["data.kind"] = cfg["data.kind"] or next(iter(kinds))
    if kind not in kinds:
        raise ConfigError(f"line {cfg.lines['data.kind']}: {command} does not take "
                          f"data.kind = {kind}; its kinds are {', '.join(kinds)}")
    for key, lineno in cfg.lines.items():
        if key not in kinds[kind]:
            raise ConfigError(f"line {lineno}: {command} with data.kind = {kind} "
                              f"does not read {key}")
    for key in _CONFIG_KEYS.keys() - kinds[kind]:
        del cfg[key]
    def refuse(key, needs):
        at = f"line {cfg.lines[key]}" if key in cfg.lines else f"{key} unset"
        raise ConfigError(f"{at}: {command} with data.kind = {kind} needs {needs}")
    if kind == "profile-blend" and None in (cfg["D0"], cfg["D1"]):
        refuse("D0" if cfg["D0"] is None else "D1", "D0 and D1")
    if cfg.get("data.match_D") and None in (cfg["D0"], cfg["D1"]):
        refuse("data.match_D", "D0 and D1, or data.match_D = false")
    e, l = cfg.exponent_set(), cfg.get("sector.l", 0)
    if spec.multiplicity(e.d, l) == 0:
        raise ConfigError(f"line {cfg.lines['sector.l']}: {command} has no "
                          f"sector l = {l} in d = {e.d}")
    if "data.mode_k" in cfg:
        k = cfg["data.mode_k"]
        if not spec.discrete_mode(e.d, e.alpha, l, k).admissible:
            refuse("data.mode_k", f"an admissible data.mode_k: mode (l, k) = ({l}, {k}) "
                                  f"is not admissible at d = {e.d}, alpha = {e.alpha}")
    return cfg


# ---------------------------------------------------------------------------
# subcommands: each returns its output, a dict (--format json) or a table
# (echo, header, rows), and main writes it


def _cmd_constants(args):
    e = _exponents(args.d, args.m, args.alpha, "--m and --alpha")
    out = {k: v.value if isinstance(v, exp_mod.Regime) else v
           for k, v in e._asdict().items() if k != "at_m_c"}
    out["lambda_cont"] = exp_mod.lambda_continuum(e.d, e.alpha)
    if e.regime is not exp_mod.Regime.CRITICAL:  # at m_star the gap closes
        out["Lambda"] = exp_mod.sharp_rate(e.d, e.alpha)
    try:
        imp = spec.improved_constant(e.d, e.alpha)
        out.update(Lambda_improved=imp.value, improved_flag=imp.discrepancy_flag)
    except ValueError:
        pass
    if args.format == "json":  # JSON has no -inf, the m_star of d <= 2
        return {k: None if v == -math.inf else v for k, v in out.items()}
    return [], ["key", "value"], sorted(out.items())


def _cmd_spectrum(args):
    report = spec.spectrum_report(args.d, args.alpha, args.l_max, args.k_max)
    header = ["l", "k", "lambda", "admissible", "below_continuum", "multiplicity"]
    rows = [(mo.l, mo.k, mo.lam, mo.admissible, mo.below_continuum,
             mo.multiplicity) for mo in report.modes]
    if args.format == "json":
        imp = report.improved_constant  # None when alpha >= -d/2 or d < 2
        return dict(report._asdict(), improved_constant=imp and imp.value,
                    modes=[dict(zip(header, row)) for row in rows])
    echo = [("d", args.d), ("alpha", args.alpha),
            ("sharp_constant", report.sharp_constant),
            ("continuum_bottom", report.continuum_bottom),
            ("gap_source", ":".join(str(s) for s in report.gap_source))]
    return echo, header, rows


def _cmd_hp_verify(args):
    from . import numerics as num

    rows = []
    for a in args.alpha:
        res = num.verify_constants(args.d, a, D=args.D, l_max=args.l_max,
                                   R_max=args.R, N=args.N,
                                   extrapolate=not args.no_extrapolate)
        for s in res.sectors:
            rows.append((res.alpha, s.l, "mean-zero" if s.constrained else "none",
                         res.R_max, res.N, s.lambda_numeric, res.closed_form,
                         abs(s.lambda_numeric - res.closed_form) / abs(res.closed_form)))
        rows.append((res.alpha, "min", "mean-zero", res.R_max, res.N,
                     res.minimum, res.closed_form, res.rel_err))
    echo = [("d", args.d), ("D", args.D), ("extrapolate", not args.no_extrapolate)]
    return echo, ["alpha", "l", "constraints", "R_max", "N", "lambda_numeric",
                  "lambda_closed_form", "rel_err"], rows


def _cmd_eigenfunction(args):
    mode = spec.discrete_mode(args.d, args.alpha, args.l, args.k)
    resid = spec.ode_residual(args.d, args.alpha, args.l, args.k)
    echo = [("d", args.d), ("alpha", args.alpha), ("l", args.l), ("k", args.k),
            ("lambda", mode.lam), ("admissible", mode.admissible),
            ("below_continuum", mode.below_continuum),
            ("multiplicity", mode.multiplicity), ("max_ode_residual", resid)]
    return echo, ["power_of_r2", "coefficient"], enumerate(mode.radial_poly)


def _config_grid(cfg: RunConfig, d: int):
    from . import numerics as num

    return num.build_grid(cfg["grid.R_max"], cfg["grid.N"], d,
                          scale=math.sqrt(cfg["D"]))


def _build_state(cfg: RunConfig):
    from . import flow as flow_mod

    e = cfg.exponent_set()
    grid = _config_grid(cfg, e.d)
    return flow_mod.make_initial_data(
        grid, e, cfg["data.kind"], D=cfg["D"], D0=cfg.get("D0"),
        D1=cfg.get("D1"), epsilon=cfg.get("data.epsilon"),
        mode=(0, cfg.get("data.mode_k")), amplitude=cfg.get("data.amplitude"),
        seed=cfg.get("data.seed"), clip=cfg.get("data.clip"),
        match_D=cfg["data.match_D"])


def _trace_table(cfg: RunConfig, trace, echo):
    """The trace as a table, echo followed by the fit of the configured
    window, if any."""
    from . import entropy as ent

    w0, w1 = cfg.get("fit.window_start"), cfg.get("fit.window_end")
    if w0 is not None:
        fit = ent.fit_rate(trace, (w0, w1), kind=cfg["fit.kind"])
        extra = [] if fit.correction is None else [("fit_correction", fit.correction)]
        echo = echo + [("fitted_rate", fit.rate), ("fit_r2", fit.r2)] + extra
    return echo, ent.EntropyTrace.COLUMNS, trace.rows()


def _cmd_evolve(args):
    from . import flow as flow_mod

    cfg = _load_config(args.config, args.command)
    state = _build_state(cfg)
    trace = flow_mod.evolve_nonlinear(state, cfg["time.t_end"], cfg["time.dt"],
                                      cadence=cfg.get("output.cadence"))
    return _trace_table(cfg, trace, cfg.echo() + [("matched_D", state.profile.D)])


def _cmd_evolve_linear(args):
    import numpy as np

    from . import flow as flow_mod

    cfg = _load_config(args.config, args.command)
    e, l = cfg.exponent_set(), cfg["sector.l"]
    grid = _config_grid(cfg, e.d)
    if cfg["data.kind"] == "mode":
        mode = spec.discrete_mode(e.d, e.alpha, l, cfg["data.mode_k"])
        f0 = spec.mode_field(mode, grid)
    else:  # generic
        r = grid.nodes
        f0 = r**l * np.exp(-(r**2))
    state = flow_mod.LinearState(grid=grid, alpha=e.alpha, D=cfg["D"], l=l, f=f0)
    trace = flow_mod.evolve_linear_sector(state, cfg["time.t_end"], cfg["time.dt"],
                                          cadence=cfg.get("output.cadence"))
    return _trace_table(cfg, trace, cfg.echo())


def _cmd_entropy_report(args):
    from . import entropy as ent

    cfg = _load_config(args.config, args.command)
    state = _build_state(cfg)
    wts = ent.Weights.of(state.grid, state.profile)
    out = ent.sandwich_from_x(state.x, wts)._asdict()
    out.update(mass_defect=ent.mass_defect_from_x(state.x, wts),
               matched_D=state.profile.D)
    return cfg.echo(), ["key", "value"], sorted(out.items())


def _cmd_gronwall(args):
    from .scalar import e_unif, gronwall_bound, h_star

    e = exp_mod.derive_exponents(args.d, args.m)
    Lambda = args.Lambda
    if Lambda is None:
        Lambda = exp_mod.sharp_rate(e.d, e.alpha)
    t, G = gronwall_bound(args.F0, e, Lambda, args.C, args.t_end, args.dt)
    eu = e_unif(e)
    echo = [("d", args.d), ("m", args.m), ("Lambda", Lambda), ("C", args.C),
            ("F0", args.F0), ("h0", 1.0 + args.C * args.F0**eu),
            ("h_star", h_star(e, Lambda)), ("e_unif", eu), ("dt", args.dt)]
    return echo, ["t", "G"], zip(t, G)


def _quotient_test_function(name, grid, alpha):
    import numpy as np

    if name == "gauss":
        return np.exp(-grid.nodes**2)
    if name == "ring":
        return np.exp(-((grid.nodes - 1.0) ** 2))
    k = int(name[5:])  # mode:k, as the --f type checked
    return spec.mode_field(spec.discrete_mode(grid.d, alpha, 0, k), grid)


def _cmd_quotient(args):
    from . import entropy as ent
    from . import numerics as num
    from . import profiles as prof

    e = exp_mod.derive_exponents(args.d, args.m)
    p = prof.Profile(exponents=e, D=args.D)  # refuses D <= 0 before its sqrt
    grid = num.build_grid(args.R, args.N, args.d, scale=math.sqrt(args.D))
    f = _quotient_test_function(args.f, grid, e.alpha)
    forms = num.assemble_sector_forms(grid, e.alpha, args.D, 0)
    wts = ent.Weights.of(grid, p)
    # Rayleigh quotient of the mean-zero projection of f
    rq = num.rayleigh_quotient(ent._mean_zero(f, wts), forms)
    rows = []
    for n in map(int, args.n.split(",")):
        q = ent.variational_quotient(f, n, wts)
        rows.append((n, q, rq, q / rq))
    echo = [("d", args.d), ("m", args.m), ("D", args.D), ("f", args.f),
            ("R_max", args.R), ("N", args.N)]
    return echo, ["n", "quotient", "rayleigh", "ratio"], rows


def _cmd_rescale(args):
    from .scalar import RescalingMap, to_selfsimilar

    e = exp_mod.derive_exponents(args.d, args.m)
    rmap = RescalingMap(exponents=e, T=args.T)
    t, x, v = to_selfsimilar(rmap, args.tau, args.y, args.u)
    echo = [("d", args.d), ("m", args.m), ("T", args.T), ("regime", e.regime.value)]
    return echo, ["tau", "y", "u", "R", "t", "x", "v"], [
        (args.tau, args.y, args.u, rmap.R(args.tau), t, x, v)]


# ---------------------------------------------------------------------------
# parser


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are configuration errors, exit code 1 and not argparse's
    2, and a help text that cannot be written raises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)

    def print_help(self, file=None):
        """As argparse's, but a failed write, to a closed stdout say, raises."""
        (file or sys.stdout).write(self.format_help())


# a value that starts like a negative number, e.g. the sweep "-1,-4,-6",
# which argparse would otherwise read as an option string
_NEGATIVE_VALUE = re.compile(r"-\.?\d.*")


def _bind_negative_values(argv):
    """Rewrite "--opt -1,-4" as "--opt=-1,-4" so argparse takes it as a value."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE.fullmatch(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# the options that several commands declare alike
_SHARED_OPTIONS = {
    "--d": {"type": int, "required": True},
    "--m": {"type": _exact, "required": True},
    "--alpha": {"type": _exact, "required": True},
    "--config": {"required": True},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
}


def _build_parser():
    p = _ArgumentParser(
        prog="fdrates",
        description="Numerical laboratory for sharp fast-diffusion decay rates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *shared):
        """The subcommand name, with --output and then the shared options."""
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        sp.add_argument("--output", default=None, help="write to file instead of stdout")
        for flag in shared:
            sp.add_argument(flag, **_SHARED_OPTIONS[flag])
        return sp

    sp = add("constants", _cmd_constants, "exponents, thresholds, sharp constants",
             "--d")
    sp.add_argument("--m", type=_exact)
    sp.add_argument("--alpha", type=_exact)
    sp.add_argument("--format", **_SHARED_OPTIONS["--format"])

    sp = add("spectrum", _cmd_spectrum, "discrete spectrum table for (d, alpha)",
             "--d", "--alpha")
    sp.add_argument("--l-max", type=int, default=3)
    sp.add_argument("--k-max", type=int, default=3)
    sp.add_argument("--format", **_SHARED_OPTIONS["--format"])

    sp = add("hp-verify", _cmd_hp_verify,
             "verify sharp constants by constrained eigensolve", "--d")
    sp.add_argument("--alpha", type=_exact_list, required=True,
                    help="alpha value or comma-separated sweep")
    sp.add_argument("--D", type=_finite, default=1.0)
    sp.add_argument("--R", type=_finite, default=100.0)
    sp.add_argument("--N", type=int, default=1600)
    sp.add_argument("--l-max", type=int, default=3)
    sp.add_argument("--no-extrapolate", action="store_true")

    sp = add("eigenfunction", _cmd_eigenfunction,
             "polynomial eigenfunction and its ODE residual", "--d", "--alpha")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    add("evolve", _cmd_evolve, "nonlinear radial flow run from a config file",
        "--config")
    add("evolve-linear", _cmd_evolve_linear,
        "linear sector flow run from a config file", "--config")
    add("entropy-report", _cmd_entropy_report,
        "functionals and sandwich slacks of configured initial data", "--config")

    sp = add("gronwall", _cmd_gronwall, "integrate the Gronwall comparison ODE",
             "--d", "--m")
    sp.add_argument("--F0", type=_finite, required=True)
    sp.add_argument("--C", type=_finite, default=0.0)
    sp.add_argument("--Lambda", type=_finite, default=None)
    sp.add_argument("--t-end", type=_finite, default=1.0)
    sp.add_argument("--dt", type=_finite, default=1e-3)

    sp = add("quotient", _cmd_quotient, "variational sharpness quotient sweep",
             "--d", "--m")
    sp.add_argument("--D", type=_finite, default=1.0)
    sp.add_argument("--f", default="gauss", type=_quotient_function)
    sp.add_argument("--n", default="50,100,200,400", type=_matching(
        r"0*[1-9]\d*(,0*[1-9]\d*)*", "comma-separated positive integers"))
    sp.add_argument("--R", type=_finite, default=50.0)
    sp.add_argument("--N", type=int, default=1200)

    sp = add("rescale", _cmd_rescale,
             "map original variables (tau, y, u) to rescaled (t, x, v)", "--d", "--m")
    sp.add_argument("--T", type=_finite, default=1.0)
    sp.add_argument("--tau", type=_finite, required=True)
    sp.add_argument("--y", type=_finite, default=1.0)
    sp.add_argument("--u", type=_finite, default=1.0)

    return p


def _check_output(path: str) -> None:
    """Refuse an --output that cannot be written, before the command runs.
    main opens it, truncating, only once the command has succeeded, so that
    a failing command leaves an existing file as it was."""
    if os.path.isdir(path):
        raise ConfigError(f"--output {path} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"--output {path}: no directory {parent}")


def main(argv=None) -> int:
    """Run the command of argv (default sys.argv[1:]) and write its output:
    a table (echo, header, rows) as CSV, the title '# fdrates <command>' and
    one '# key=value' line per echo pair before the header, or a dict as
    JSON, by the one json.dumps here.  Returns the exit code."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_bind_negative_values(argv))
        if args.output:
            _check_output(args.output)
        out = args.func(args)
        if isinstance(out, dict):
            out = json.dumps(out, sort_keys=True, allow_nan=False, default=_json_number)
        else:
            echo, header, rows = out
            out = "\n".join([f"# fdrates {args.command}",
                             *(f"# {k}={_fmt(v)}" for k, v in echo),
                             ",".join(header),
                             *(",".join(map(_fmt, row)) for row in rows)])
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        else:
            sys.stdout.write(out + "\n")
        return 0
    except BrokenPipeError:  # stdout closed: run() ends the process quietly
        raise
    except (ConfigError, ValueError, ImportError, OSError) as e:
        print(f"fdrates: error: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as e:
        print(f"fdrates: numerical failure: {e}", file=sys.stderr)
        return 2


# fdrates' linear algebra is tridiagonal LAPACK and short dot products, which
# a BLAS thread pool only slows down
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run() -> NoReturn:
    """Process entry of the `fdrates` command and of `python -m fdrates.cli`.

    Runs BLAS single-threaded unless the user set its thread variables (each
    command imports numpy after this), calls main(), flushes stdout and
    stderr and ends the process with os._exit, which skips the interpreter
    teardown over numpy's and scipy's heap.  Every --output file is closed
    before main returns.  argparse's --help leaves main by SystemExit, whose
    status ends the process the same way.  When stdout is closed, so that
    writing or flushing it raises BrokenPipeError, the process ends quietly
    with status 141, as one killed by SIGPIPE would.  Any other exception
    from main, or a failing stderr flush, propagates, and the process ends
    the usual way.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        try:
            code = main()
        except SystemExit as e:  # --help, after argparse printed the help
            code = e.code
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout to devnull, so that no later write or flush raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, the status of a process SIGPIPE ended
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
