"""Command-line front end.

Subcommands: analyze | extend | beltrami | carleson | transfer | probe |
contract | baseline.  Reports are JSON (sorted keys), fields are CSV with
header x,y,re,im (row-major by y level then x, 17 significant digits); all
files are written atomically (write-then-rename), with mode 0666 less the
umask.  The one quadrature option, --min-samples, sets the fewest lattice
nodes a kernel window may hold on circle data (a ResolutionError below it);
line data are not held to it.  Exit codes:
0 success, 2 validation error, 3 numerical failure, each with one
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import analyticity, carleson, data, extension, funcspace, transfer
from .data import Domain, SampledFunction
from .errors import (CoverageError, DomainError, ProbeFailure, QcheatError,
                     ResolutionError, SingularDenominatorError)
from .kernels import QuadratureSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _NonFinite(QcheatError):
    pass


# ---------------------------------------------------------------------------
# datum loading

_REQUIRED = ("domain", "n", "values_re")
_SAMPLE_ARRAYS = ("values_re", "values_im", "x")
# what json.load makes of a JSON number; bool, a subclass of int, is not one
_NUMBER_TYPES = {int, float}


def _structure_errors(raw) -> list:
    """(path, message) for each way `raw` departs from the datum file's
    shape: an object with the required keys and no others, a domain that
    is "circle" or {"line": [a, b]}, an integer n >= 16, and sample lists."""
    if not isinstance(raw, dict):
        return [([], f"{raw!r} is not of type 'object'")]
    out = [([], f"{key!r} is a required property") for key in _REQUIRED if key not in raw]
    extra = sorted(set(raw) - set(_REQUIRED + _SAMPLE_ARRAYS))
    if extra:
        out.append(([], f"additional properties are not allowed ({', '.join(map(repr, extra))})"))
    if "domain" in raw:
        dom = raw["domain"]
        line = dom.get("line") if isinstance(dom, dict) and list(dom) == ["line"] else None
        if dom != "circle" and not (isinstance(line, list) and len(line) == 2
                                    and {type(v) for v in line} <= _NUMBER_TYPES):
            out.append((["domain"], f"{dom!r} is neither \"circle\" nor {{\"line\": [a, b]}}"))
    if "n" in raw:
        n = raw["n"]
        if type(n) is not int:
            out.append((["n"], f"{n!r} is not of type 'integer'"))
        elif n < 16:
            out.append((["n"], f"{n!r} is less than the minimum of 16"))
    for key in _SAMPLE_ARRAYS:
        if key in raw and not isinstance(raw[key], list):
            out.append(([key], f"{raw[key]!r} is not of type 'array'"))
    return out


def _sample_errors(raw) -> list:
    """(path, message) for the first entry of each sample array that is
    not a JSON number, in one pass over each array."""
    out = []
    for key in _SAMPLE_ARRAYS:
        items = raw.get(key) if isinstance(raw, dict) else None
        if isinstance(items, list) and not set(map(type, items)) <= _NUMBER_TYPES:
            j = next(j for j, v in enumerate(items) if type(v) not in _NUMBER_TYPES)
            out.append(([key, j], f"{items[j]!r} is not of type 'number'"))
    return out


def _floats(raw: dict, key: str) -> np.ndarray:
    items = raw[key]
    try:
        return np.asarray(items, dtype=float)
    except OverflowError:  # an integer beyond the float range
        j = next(j for j, v in enumerate(items) if abs(v) > sys.float_info.max)
        raise DomainError(f"datum schema violation at /{key}/{j}: values must be finite")


def load_datum_file(path: str) -> SampledFunction:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read datum file {path}: {e}")
    errors = _structure_errors(raw) + _sample_errors(raw)
    if errors:
        where, message = min(errors, key=lambda e: e[0])
        pointer = "/" + "/".join(str(p) for p in where)
        raise DomainError(f"datum schema violation at {pointer}: {message}")
    n = raw["n"]
    re = _floats(raw, "values_re")
    if re.size != n:
        raise DomainError(f"datum schema violation at /values_re: expected {n} entries, got {re.size}")
    if "values_im" in raw:
        im = _floats(raw, "values_im")
        if im.size != n:
            raise DomainError(
                f"datum schema violation at /values_im: expected {n} entries, got {im.size}"
            )
    else:
        im = np.zeros(n)
    for key, part in (("values_re", re), ("values_im", im)):
        bad = ~np.isfinite(part)
        if bad.any():
            raise DomainError(f"datum schema violation at /{key}/{int(np.argmax(bad))}: "
                              "values must be finite")
    vals = re + 1j * im
    if raw["domain"] == "circle":
        dom = Domain.circle()
        implied = np.arange(n) / n
    else:
        a, b = raw["domain"]["line"]
        dom = Domain.line(a, b)
        implied = np.linspace(a, b, n)
    if "x" in raw:
        xs = _floats(raw, "x")
        if xs.size != n:
            raise DomainError(f"datum schema violation at /x: expected {n} entries, got {xs.size}")
        tol = 1e-9 * max(1.0, dom.length)
        dev = np.abs(xs - implied)
        if not np.all(dev <= tol):  # a NaN node fails too
            j = int(np.argmax(dev))
            raise DomainError(
                f"datum schema violation at /x/{j}: grid is not uniform "
                f"(got {float(xs[j])!r}, expected {float(implied[j])!r})"
            )
    return SampledFunction(dom, vals)


def parse_builtin(spec: str, n: int, seed: int) -> SampledFunction:
    """Builtin data: const:c | sine:a[,k] | step:c | sawtooth:a |
    random-trig:m,amp[,seed] | id:a,b (line identity map)."""
    name, _, argstr = spec.partition(":")
    args = [s for s in argstr.split(",") if s] if argstr else []
    try:
        if name == "const":
            return data.constant(complex(args[0].replace("i", "j")) if args else 0.0, n)
        if name == "sine":
            amp = float(args[0])
            k = int(args[1]) if len(args) > 1 else 1
            return data.sine(amp, k, n)
        if name == "step":
            return data.step(float(args[0]), n)
        if name == "sawtooth":
            return data.sawtooth(float(args[0]), n)
        if name == "random-trig":
            m = int(args[0])
            amp = float(args[1])
            s = int(args[2]) if len(args) > 2 else seed
            return data.random_trig(m, amp, s, n)
        if name == "id":
            a = float(args[0]) if args else 0.0
            b = float(args[1]) if len(args) > 1 else 1.0
            return SampledFunction(Domain.line(a, b), np.linspace(a, b, n) + 0j)
    except (IndexError, ValueError) as e:
        raise DomainError(f"bad builtin spec {spec!r}: {e}")
    raise DomainError(f"unknown builtin {name!r}")


def load_datum(args) -> SampledFunction:
    if args.builtin:
        return parse_builtin(args.builtin, args.n, args.seed)
    if args.input:
        return load_datum_file(args.input)
    raise DomainError("need --builtin or --input")


# ---------------------------------------------------------------------------
# emission

def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _assert_finite(obj, where: str):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_finite(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_finite(v, f"{where}[{i}]")
    elif isinstance(obj, float):
        if not np.isfinite(obj):
            raise _NonFinite(f"non-finite value at {where}")


def _atomic_write(path: str, chunks):
    """Write the strings of `chunks` to `path` through a temporary file in
    the same directory, renamed over `path` only once every chunk is
    written; on any failure the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        # mkstemp creates 0600; give the file the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, report: dict):
    jsonable = _to_jsonable(report)
    _assert_finite(jsonable, "report")
    _atomic_write(path, [json.dumps(jsonable, sort_keys=True, indent=2) + "\n"])


# every float in a CSV: 17 significant digits, the bytes of f"{v:.17g}"
_FLOAT = "%.17g"


def _float_cells(values) -> list[str]:
    return [_FLOAT % v for v in values.tolist()]


def _csv_rows(lead: list[str], values: np.ndarray) -> str:
    """One CSV row per lead cell: lead[i] followed by the entries of row i
    of the real (len(lead), m) array `values`, formatted in one call."""
    tail = ("," + _FLOAT) * values.shape[1] + "\n"
    return (tail.join(lead) + tail) % tuple(values.ravel().tolist())


def write_field_csv(path: str, grid, values: np.ndarray):
    """Field CSV: header x,y,re,im, then one row per node, level by level;
    streamed to disk one level at a time."""
    if not np.all(np.isfinite(values)):
        raise _NonFinite("non-finite value in field output")
    values = np.ascontiguousarray(values, dtype=complex)
    x_cells = [x + "," for x in _float_cells(grid.x)]

    def chunks():
        yield "x,y,re,im\n"
        for y, level in zip(_float_cells(grid.y_levels), values):
            yield _csv_rows([x + y for x in x_cells], level.view(float).reshape(-1, 2))

    _atomic_write(path, chunks())


def _profile_json(entries):
    return [[e.scale, e.value, e.resolution_limited] for e in entries]


# ---------------------------------------------------------------------------
# subcommands

def _grid_from(args) -> extension.HalfPlaneGrid:
    return extension.HalfPlaneGrid.build(
        x_min=args.x_min, x_max=args.x_max, nx=args.nx,
        y_min=args.y_min, y_max=args.y_max,
        levels_per_octave=args.levels_per_octave,
    )


def _quad_from(args) -> QuadratureSpec:
    return QuadratureSpec(args.min_samples)


def _config_echo(args) -> dict:
    keep = ("command", "builtin", "input", "n", "seed", "nx", "x_min", "x_max",
            "y_min", "y_max", "levels_per_octave", "min_samples", "out",
            "w0", "eps", "contour_nodes", "t", "r")
    cfg = {k: getattr(args, k) for k in keep if hasattr(args, k)}
    # only when given: a probe from a builtin w0 echoes no file key
    if getattr(args, "w0_input", None) is not None:
        cfg["w0_input"] = args.w0_input
    return cfg


def _lifted(datum: SampledFunction) -> SampledFunction:
    return transfer.lift(datum) if datum.domain.kind == "circle" else datum


def cmd_analyze(args) -> int:
    datum = load_datum(args)
    rep = funcspace.analyze(datum)
    report = {
        "bmo_norm": rep.bmo_norm,
        "vmo_profile": _profile_json(rep.vmo_profile),
        "a_infty": rep.a_infty_constant,
        "doubling": rep.doubling_constant,
        "jn_fit": list(rep.jn_fit),
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "analyze.json"), report)
    return EXIT_OK


def cmd_extend(args) -> int:
    datum = _lifted(load_datum(args))
    field = extension.extend(datum, _grid_from(args), _quad_from(args))
    write_field_csv(os.path.join(args.out, "field.csv"), field.grid, field.F)
    report = {
        "residual_uy_half_vx": field.identity_residuals.get("uy_half_vx"),
        "residual_vy_identity": field.identity_residuals.get("vy_identity"),
        "v_min": float(np.min(field.V.real)),
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "extend.json"), report)
    return EXIT_OK


def cmd_beltrami(args) -> int:
    from .kernels import ALPHA, BETA, envelope_constant

    datum = _lifted(load_datum(args))
    mu = extension.beltrami(datum, _grid_from(args), _quad_from(args))
    report = {
        "sup_norm": mu.sup_norm,
        "denom_min": mu.denom_min,
        "quasiconformal": mu.quasiconformal,
        # fitted constants of the |k(s)| <= C exp(-|s|) envelopes on |s| >= 4
        "kernel_envelope": {
            "alpha": envelope_constant(ALPHA),
            "beta": envelope_constant(BETA),
        },
        "config": _config_echo(args),
    }
    # the report is checked before anything is written
    write_report(os.path.join(args.out, "beltrami.json"), report)
    write_field_csv(os.path.join(args.out, "mu.csv"), mu.grid, mu.values)
    return EXIT_OK


def _carleson_json(rep: carleson.CarlesonReport) -> dict:
    return {
        "sup_norm": rep.sup_norm,
        "carleson_norm": rep.norm,
        "carleson_profile": _profile_json(rep.profile),
        "hybrid_norm": rep.hybrid_norm,
        "cutoff": rep.cutoff,
    }


def cmd_carleson(args) -> int:
    datum = _lifted(load_datum(args))
    mu = extension.beltrami(datum, _grid_from(args), _quad_from(args))
    rep = carleson.carleson_norm_halfplane(mu)
    report = {**_carleson_json(rep), "argmax": rep.argmax, "config": _config_echo(args)}
    write_report(os.path.join(args.out, "carleson.json"), report)
    return EXIT_OK


def cmd_transfer(args) -> int:
    datum = load_datum(args)
    if datum.domain.kind != "circle":
        raise DomainError("transfer needs circle data")
    lifted = transfer.lift(datum)
    mu = extension.beltrami(lifted, _grid_from(args), _quad_from(args))
    nu = transfer.push_to_disk(mu)
    hp = carleson.carleson_norm_halfplane(mu)
    dk = carleson.carleson_norm_disk(nu)
    report = {
        "bmo_u": funcspace.bmo_norm(datum),
        "bmo_lift": funcspace.bmo_norm(lifted),
        "sup_halfplane": mu.sup_norm,
        "sup_disk": nu.sup_norm,
        "halfplane": _carleson_json(hp),
        "disk": _carleson_json(dk),
        "hybrid_ratio": dk.hybrid_norm / hp.hybrid_norm if hp.hybrid_norm > 0 else 1.0,
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "transfer.json"), report)
    return EXIT_OK


def cmd_probe(args) -> int:
    w1 = _lifted(load_datum(args))
    w0 = _lifted(load_datum_file(args.w0_input) if args.w0_input
                 else parse_builtin(args.w0 or "const:0", args.n, args.seed))
    probe = analyticity.build_probe(w0, w1, args.eps, args.contour_nodes,
                                    _grid_from(args), _quad_from(args))
    cr = analyticity.cr_residual(probe)
    _, cauchy_err = analyticity.cauchy_reconstruct(probe, 0.0)
    steps = [probe.epsilon / 10, probe.epsilon / 20, probe.epsilon / 40]
    _, slope = analyticity.quotient_convergence(probe, 0.0, steps)
    report = {
        "cr_residual": cr,
        "cauchy_error": cauchy_err,
        "quotient_slope": slope,
        "epsilon": probe.epsilon,
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "probe.json"), report)
    return EXIT_OK


def cmd_contract(args) -> int:
    datum = load_datum(args)
    if datum.domain.kind != "circle":
        raise DomainError("contract needs circle data")
    if not datum.is_real:
        raise DomainError("contract needs real-valued data")
    ts = [float(s) for s in args.t.split(",") if s]
    ident = transfer.identity_homeo(datum.n)
    dists = []
    for t in ts:
        homeo = transfer.contraction(datum, t)
        dists.append(homeo.sup_distance(ident))
        _atomic_write(os.path.join(args.out, f"contract_t{t:g}.csv"),
                      ["x,g\n", _csv_rows(_float_cells(homeo.x), homeo.g[:, None])])
    report = {
        "t": ts,
        "sup_distance_to_identity": dists,
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "contract.json"), report)
    return EXIT_OK


def cmd_baseline(args) -> int:
    datum = load_datum(args)
    grid = _grid_from(args)
    field = extension.classical_ba_extend(datum, args.r, grid)
    write_field_csv(os.path.join(args.out, "baseline.csv"), grid, field.F)
    X = grid.x[None, :] + 1j * grid.y_levels[:, None]
    report = {
        "r": args.r,
        "v_min": float(np.min(field.V.real)),
        "max_identity_deviation": float(np.max(np.abs(field.F - X))),
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "baseline.json"), report)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcheat",
        description="Heat-kernel boundary extension, dilatation fields, and "
                    "harmonic-analysis estimators at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": cmd_analyze,
        "extend": cmd_extend,
        "beltrami": cmd_beltrami,
        "carleson": cmd_carleson,
        "transfer": cmd_transfer,
        "probe": cmd_probe,
        "contract": cmd_contract,
        "baseline": cmd_baseline,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--builtin", help="builtin datum spec, e.g. sine:0.3,1")
        p.add_argument("--input", help="datum JSON file")
        p.add_argument("--n", type=int, default=2048, help="builtin sample count")
        p.add_argument("--seed", type=int, default=0, help="random-trig seed")
        p.add_argument("--out", default="qcheat-out", help="output directory")
        p.add_argument("--nx", type=int, default=2048)
        p.add_argument("--x-min", dest="x_min", type=float, default=0.0)
        p.add_argument("--x-max", dest="x_max", type=float, default=1.0)
        p.add_argument("--y-min", dest="y_min", type=float, default=1e-3)
        p.add_argument("--y-max", dest="y_max", type=float, default=4.0)
        p.add_argument("--levels-per-octave", dest="levels_per_octave",
                       type=int, default=8)
        p.add_argument("--min-samples", dest="min_samples", type=int, default=32,
                       help="fewest lattice nodes a kernel window of half-width 8y "
                            "may hold, circle data only (>= 32)")
        if name == "probe":
            base = p.add_mutually_exclusive_group()
            base.add_argument("--w0", help="base datum builtin spec; default const:0")
            base.add_argument("--w0-input", dest="w0_input", help="base datum JSON file")
            p.add_argument("--eps", type=float, default=0.1)
            p.add_argument("--contour-nodes", dest="contour_nodes", type=int, default=64)
        if name == "contract":
            p.add_argument("--t", default="0,0.5,1", help="comma-separated t values")
        if name == "baseline":
            p.add_argument("--r", type=float, default=2.0)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    msg = str(exc).replace("\n", " ")
    print(f"error kind={kind} detail={msg!r}", file=sys.stderr)
    return code


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except DomainError as e:
        return _fail("validation", e, EXIT_VALIDATION)
    except CoverageError as e:
        return _fail("coverage", e, EXIT_NUMERICAL)
    except SingularDenominatorError as e:
        return _fail("singular_denominator", e, EXIT_NUMERICAL)
    except ResolutionError as e:
        return _fail("resolution", e, EXIT_NUMERICAL)
    except ProbeFailure as e:
        return _fail("probe_failure", e, EXIT_NUMERICAL)
    except _NonFinite as e:
        return _fail("nonfinite", e, EXIT_NUMERICAL)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
