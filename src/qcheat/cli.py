"""Command-line front end.

Subcommands: analyze | extend | beltrami | carleson | transfer | probe |
contract | baseline.  Reports are JSON (sorted keys), fields are CSV with
header x,y,re,im (row-major by y level then x, 17 significant digits); all
files are written atomically (write-then-rename), with mode 0666 less the
umask.  The window policy is fixed, not an option: on circle data a kernel
window of half-width 8y at the grid's lowest level must hold 32 lattice
nodes, on line data one; a grid that leaves fewer is a resolution error.
Exit codes:
0 success, 2 validation error, 3 numerical failure, each with one
machine-parsable line on stderr.  BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from types import SimpleNamespace

# one BLAS thread unless the user chose a count: no report path calls BLAS,
# and an idle OpenBLAS worker thread only costs start-up time.  OpenBLAS
# reads the variable when numpy loads, so it is set before; `import qcheat`
# loads no numpy, which lets `python -m qcheat.cli` get here first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import analyticity, carleson, data, extension, funcspace, transfer
from .data import Domain, SampledFunction
from .errors import (CoverageError, DomainError, ProbeFailure, QcheatError,
                     ResolutionError, SingularDenominatorError)
from .extension import _two_product

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
    if n < data.MIN_SAMPLES:
        raise DomainError(f"--n must be at least {data.MIN_SAMPLES}, got {n}")
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
    """Write the chunks of `chunks`, bytes or ASCII strings, to `path`
    through a temporary file in the same directory, renamed over `path`
    only once every chunk is written; on any failure the temporary file is
    removed, and so is each directory this call created, deepest first,
    while it is empty."""
    directory = os.path.dirname(os.path.abspath(path))
    created = []
    parent = directory
    while not os.path.exists(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
        # mkstemp creates 0600; give the file the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        for made in created:
            try:
                os.rmdir(made)
            except FileNotFoundError:  # makedirs stopped short of it
                continue
            except OSError:  # not empty: nor are its parents
                break
        raise


def write_report(path: str, report: dict):
    jsonable = _to_jsonable(report)
    _assert_finite(jsonable, "report")
    _atomic_write(path, [json.dumps(jsonable, sort_keys=True, indent=2) + "\n"])


# ---------------------------------------------------------------------------
# CSV cells: every float is written as the bytes of "%.17g" % v.
#
# A cell is four little-endian uint64 words, and its NUL bytes are dropped
# when a chunk of cells is joined: sign, "0.000" prefix, D0 and dot;
# D1-D8; D9-D16; exponent suffix and separator.  The digits D0..D16 are
# N = round(|v| 10^(16-k)) for the decade k of |v|, from the error-free
# product of |v| with 10^(16-k) held as a pair of doubles (hi, lo).  The
# scaled value p + t is then within 2^-43 of |v| 10^(16-k), so N and k are
# exact wherever it lies 2^-30 away from a rounding tie and _EDGE away from
# 1e16 and 1e17.  Every other value takes "%.17g" % v itself, and so do
# 10 <= |v| < 1e17, whose dot falls among the digits, and every |v|
# outside _DECADES, where 10^(16-k) or |v| could overflow Dekker's split
# or underflow its partial products.

_DECADES = range(-280, 291)
_EDGE = 64.0  # above the |t| <= 19 the scaled value's low part can reach
_TIE_GAP = 2.0 ** -30
_CHUNK_VALUES = 4096  # floats formatted at once: one level of the reference grid


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _cell_tables() -> SimpleNamespace:
    """Built on first use, from ints: table index 0 serves zeros and |v|
    below _DECADES, the last index |v| above them, and both have zero
    powers."""
    hi, lo, head, tail = [0.0], [0.0], [], []
    for k in _DECADES:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den  # correctly rounded, and so is the remainder below
        m, d = h.as_integer_ratio()
        integral = 1 <= k <= 16  # zero powers: the fallback serves these
        hi.append(0.0 if integral else h)
        lo.append(0.0 if integral else (num * d - m * den) / (den * d))
    for k in (0, *_DECADES, 0):
        fixed = -4 <= k < 17  # %g's fixed notation
        prefix = "0." + "0" * (-k - 1) if k < 0 and fixed else ""
        word = _word("\0" + prefix.ljust(5, "\0") + "0")
        # head[2 i + 1] is for a value with digits after D0
        head += [word, word if prefix else word | ord(".") << 56]
        tail.append("" if fixed else f"e{k:+03d}")
    digits = (np.arange(10_000, dtype=np.int32)[:, None] // np.array([1000, 100, 10, 1], np.int32)
              % 10 + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    # 4-digit groups as 4 ASCII bytes: entry g + 10_000 strips trailing zeros
    groups = np.concatenate([digits, np.where(trailing, np.uint8(0), digits)])
    return SimpleNamespace(
        hi=np.array(hi + [0.0]), lo=np.array(lo + [0.0]),
        head=np.array(head, dtype=np.uint64),
        tail=np.array([_word(t) for t in tail], dtype=np.uint64),
        groups=groups.view("<u4")[:, 0].astype(np.uint64))


def _cell_words(values: np.ndarray, seps: str) -> np.ndarray:
    """The (m, c, 4) words of the cells of the finite (m, c) array
    `values`, the cells of column j ending in seps[j] (',' or newline)."""
    T = _cell_tables()
    m, c = values.shape
    words = np.empty((m, c, 4), dtype="<u8")
    words[..., 3] = np.array([ord(sep) << 56 for sep in seps], dtype=np.uint64)
    w = words.reshape(-1, 4)
    v = values.ravel()
    # the separator sits in the last byte of every cell; a zero reads "0"
    # or "-0", and the digits are worked out for the other values only
    at = slice(None)
    if not v.all():
        w[:, :3] = 0
        w[:, 0] = np.signbit(v) * np.uint64(ord("-")) + np.uint64(ord("0") << 48)
        at = np.flatnonzero(v)
    a = np.abs(v[at])
    # values outside _DECADES take table index 0 or the last, whose zero
    # powers give p = 0, or NaN where a split overflows: both fail the
    # range check, so the warnings they raise are not errors
    with np.errstate(all="ignore"):
        k = np.floor(np.log10(a))
        i = np.fmin(np.fmax(k, _DECADES[0] - 1), _DECADES[-1] + 1).astype(np.intp)
        i -= _DECADES[0] - 1
        p, err = _two_product(a, T.hi[i])
        t = err + a * T.lo[i]
        r = np.rint(t)
        fast = (np.abs(p - 5.5e16) <= 4.5e16 - _EDGE) & (np.abs(t - r) < 0.5 - _TIE_GAP)
        n = p.astype(np.int64)
        n += r.astype(np.int64)
    hi9 = n // 100_000_000
    lo8 = n - hi9 * 100_000_000
    d0 = hi9 // 100_000_000
    g12 = hi9 - d0 * 100_000_000
    g1 = g12 // 10_000
    g2 = g12 - g1 * 10_000
    g3 = lo8 // 10_000
    g4 = lo8 - g3 * 10_000
    # the last group strips its trailing zeros, an earlier group only when
    # every group after it is 0
    has_frac = True
    if not g4.all():
        g3 += (g4 == 0) * 10_000
        zero_after = lo8 == 0
        g2 += zero_after * 10_000
        zero_after &= g2 == 10_000
        g1 += zero_after * 10_000
        has_frac = ~(zero_after & (g1 == 10_000))
    g4 += 10_000
    head = T.head[2 * i + has_frac]
    head += (d0 << 48).view(np.uint64)
    head += np.signbit(v[at]) * np.uint64(ord("-"))
    w[at, 0] = head
    w[at, 1] = T.groups[g1] | T.groups[g2] << np.uint64(32)
    w[at, 2] = T.groups[g3] | T.groups[g4] << np.uint64(32)
    w[at, 3] |= T.tail[i]
    if not fast.all():
        slow = np.arange(v.size)[at][~fast]
        text = b"".join(("%.17g" % x).encode("ascii").ljust(24, b"\0") for x in v[slow].tolist())
        w[slow, :3] = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
        w[slow, 3] &= np.uint64(0xFF << 56)
    return words


def _joined(words: np.ndarray) -> bytes:
    return words.tobytes().translate(None, b"\0")


def _padded_cells(values: np.ndarray) -> np.ndarray:
    """(len(values), width) words: the cell of each value with its ',',
    NUL-padded to the longest cell's whole words."""
    cells = [c + b"," for c in _joined(_cell_words(values[:, None], ",")).split(b",")[:-1]]
    width = -(-max(map(len, cells)) // 8) * 8
    return np.array(cells, dtype=f"S{width}").view("<u8").reshape(len(cells), -1)


def write_field_csv(path: str, grid, values):
    """Field CSV: header x,y,re,im, then one row per node, level by level.
    `values` is the (ny, nx) field or an iterable of its blocks of whole
    levels, in order, which are read one at a time: a block that is not
    finite raises before any of it is written.  Streamed to disk in chunks
    of whole levels."""
    blocks = [values] if isinstance(values, np.ndarray) else values
    nx = grid.nx
    x, y = _padded_cells(grid.x), _padded_cells(grid.y_levels)
    lead = x.shape[1] + y.shape[1]
    levels = max(1, _CHUNK_VALUES // (2 * nx))

    def chunks():
        yield b"x,y,re,im\n"
        j = 0
        for block in blocks:
            if not np.all(np.isfinite(block)):
                raise _NonFinite("non-finite value in field output")
            block = np.ascontiguousarray(block, dtype=complex)
            for k in range(0, len(block), levels):
                part = block[k:k + levels]
                rows = np.empty((len(part), nx, lead + 8), dtype="<u8")
                rows[:, :, :x.shape[1]] = x
                rows[:, :, x.shape[1]:lead] = y[j:j + len(part), None]
                cells = _cell_words(part.view(float).reshape(-1, 2), ",\n")
                rows[:, :, lead:] = cells.reshape(len(part), nx, 8)
                j += len(part)
                yield _joined(rows)

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


def _config_echo(args) -> dict:
    keep = ("command", "builtin", "input", "n", "seed", "nx", "x_min", "x_max",
            "y_min", "y_max", "levels_per_octave", "out",
            "w0", "eps", "contour_nodes", "t", "r")
    cfg = {k: getattr(args, k) for k in keep if hasattr(args, k)}
    # only when given: a probe from a builtin w0 echoes no file key
    if getattr(args, "w0_input", None) is not None:
        cfg["w0_input"] = args.w0_input
    return cfg


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
    datum = load_datum(args)
    grid = _grid_from(args)
    _, blocks = extension.extend_blocks(datum, grid)
    residuals, v_min = {}, np.inf

    def field_rows():
        # F is written block by block, so the field is never held whole
        nonlocal residuals, v_min
        for _, rows, residuals in blocks:
            v_min = min(v_min, float(np.min(rows["V"].real)))
            yield rows["U"] + 1j * rows["V"]

    write_field_csv(os.path.join(args.out, "field.csv"), grid, field_rows())
    report = {
        "residual_uy_half_vx": residuals["uy_half_vx"],
        "residual_vy_identity": residuals["vy_identity"],
        "v_min": v_min,
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "extend.json"), report)
    return EXIT_OK


def cmd_beltrami(args) -> int:
    from .kernels import ALPHA, BETA, envelope_constant

    datum = load_datum(args)
    grid = _grid_from(args)
    _, blocks = extension.beltrami_blocks(datum, grid)
    report = {}

    def field_rows():
        # mu is written block by block, so the field is never held whole,
        # and the report is checked before mu.csv is renamed into place
        sups, denom_min = [], np.inf
        for _, mu, denom_mag in blocks:
            sups.append(np.max(np.abs(mu)))
            denom_min = min(denom_min, float(np.min(denom_mag)))
            yield mu
        sup_norm = float(np.max(sups))
        report.update({
            "sup_norm": sup_norm,
            "denom_min": denom_min,
            "quasiconformal": sup_norm < 1.0,
            # fitted constants of the |k(s)| <= C exp(-|s|) envelopes on |s| >= 4
            "kernel_envelope": {
                "alpha": envelope_constant(ALPHA),
                "beta": envelope_constant(BETA),
            },
            "config": _config_echo(args),
        })
        _assert_finite(_to_jsonable(report), "report")

    write_field_csv(os.path.join(args.out, "mu.csv"), grid, field_rows())
    write_report(os.path.join(args.out, "beltrami.json"), report)
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
    datum = load_datum(args)
    grid = _grid_from(args)
    periodic, blocks = extension.beltrami_blocks(datum, grid)
    sums = carleson.HalfPlaneSums(grid, periodic)
    for levels, mu, _ in blocks:
        sums.add(levels, mu)
    rep = sums.report()
    report = {**_carleson_json(rep), "argmax": rep.argmax, "config": _config_echo(args)}
    write_report(os.path.join(args.out, "carleson.json"), report)
    return EXIT_OK


def cmd_transfer(args) -> int:
    datum = load_datum(args)
    if datum.domain.kind != "circle":
        raise DomainError("transfer needs circle data")
    grid = _grid_from(args)
    periodic, blocks = extension.beltrami_blocks(datum, grid)
    halfplane = carleson.HalfPlaneSums(grid, periodic)
    # a field that is not periodic has no disk image: that is reported
    # once the field itself has passed its checks
    disk = carleson.DiskSums(transfer.DiskGrid.from_halfplane(grid)) if periodic else None
    phase = transfer.disk_phase(grid)
    for levels, mu, _ in blocks:
        halfplane.add(levels, mu)
        if disk is not None:
            disk.add(levels, -mu * phase)
    if disk is None:
        raise DomainError(transfer.PERIODIC_DISK)
    hp, dk = halfplane.report(), disk.report()
    # lift only relabels the samples, so both keys carry one BMO norm
    bmo = funcspace.bmo_norm(datum)
    report = {
        "bmo_u": bmo,
        "bmo_lift": bmo,
        "sup_halfplane": hp.sup_norm,
        "sup_disk": dk.sup_norm,
        "halfplane": _carleson_json(hp),
        "disk": _carleson_json(dk),
        "hybrid_ratio": dk.hybrid_norm / hp.hybrid_norm if hp.hybrid_norm > 0 else 1.0,
        "config": _config_echo(args),
    }
    write_report(os.path.join(args.out, "transfer.json"), report)
    return EXIT_OK


def _quotient_steps(eps: float) -> list:
    return [eps / 10, eps / 20, eps / 40]


def cmd_probe(args) -> int:
    w1 = load_datum(args)
    w0 = (load_datum_file(args.w0_input) if args.w0_input
          else parse_builtin(args.w0 or "const:0", args.n, args.seed))
    # one walk of the blocks gives every statistic: no whole field is built
    probe = analyticity.build_probe(w0, w1, args.eps, args.contour_nodes,
                                    _grid_from(args), at=(0.0,), steps=_quotient_steps)
    cr = analyticity.cr_residual(probe)
    cauchy_err = analyticity.cauchy_error(probe, 0.0)
    _, slope = analyticity.quotient_convergence(probe, 0.0, _quotient_steps(probe.epsilon))
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
    if not ts:
        raise DomainError("--t needs at least one value")
    ident = transfer.identity_homeo(datum.n)
    # every t is computed before any file is written
    homeos = [transfer.contraction(datum, t) for t in ts]
    for t, homeo in zip(ts, homeos):
        # a name that reads back as t, so two values never share a file
        name = f"{t:g}" if float(f"{t:g}") == t else repr(t)
        cells = _cell_words(np.column_stack([homeo.x, homeo.g]), ",\n")
        _atomic_write(os.path.join(args.out, f"contract_t{name}.csv"), [b"x,g\n", _joined(cells)])
    report = {
        "t": ts,
        "sup_distance_to_identity": [homeo.sup_distance(ident) for homeo in homeos],
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

_COMMANDS = {
    "analyze": cmd_analyze,
    "extend": cmd_extend,
    "beltrami": cmd_beltrami,
    "carleson": cmd_carleson,
    "transfer": cmd_transfer,
    "probe": cmd_probe,
    "contract": cmd_contract,
    "baseline": cmd_baseline,
}


def _add_options(p: argparse.ArgumentParser, name: str):
    p.add_argument("--builtin", help="builtin datum spec, e.g. sine:0.3,1")
    p.add_argument("--input", help="datum JSON file")
    p.add_argument("--n", type=int, default=2048, help="builtin sample count")
    p.add_argument("--seed", type=int, default=0, help="random-trig seed")
    p.add_argument("--out", default="qcheat-out", help="output directory")
    if name not in ("analyze", "contract"):  # the two that build no grid
        p.add_argument("--nx", type=int, default=2048)
        p.add_argument("--x-min", dest="x_min", type=float, default=0.0)
        p.add_argument("--x-max", dest="x_max", type=float, default=1.0)
        p.add_argument("--y-min", dest="y_min", type=float, default=1e-3)
        p.add_argument("--y-max", dest="y_max", type=float, default=4.0)
        p.add_argument("--levels-per-octave", dest="levels_per_octave",
                       type=int, default=8)
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; given `command`, only that
    subcommand's parser gets its options, which is all a run of it reads."""
    parser = argparse.ArgumentParser(
        prog="qcheat",
        description="Heat-kernel boundary extension, dilatation fields, and "
                    "harmonic-analysis estimators at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if command is None or name == command:
            _add_options(p, name)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    msg = str(exc).replace("\n", " ")
    print(f"error kind={kind} detail={msg!r}", file=sys.stderr)
    return code


def run(argv) -> int:
    # the subcommand is the first word that is not an option: the top-level
    # parser has none but --help, which needs no subcommand's options
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
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
