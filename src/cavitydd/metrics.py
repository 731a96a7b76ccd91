"""The grid of initial qubit states for the figure observables, and the CSV
emission of a trace's worst-case columns used by the CLI.

The ideal sequence action is the identity, so the fidelity of initial state
|psi> at sample time t_k is F = <psi| rho_q(t_k) |psi> with rho_q the
oscillator-traced state; ``propagate.run_trace`` reduces it, the oscillator
occupation and the truncation leakage to their worst case over the grid.
Worst case over a finite grid approximates the true extremum; the six
cardinal states are always included and capture the exact extremum for
Pauli-axis-aligned error channels.

Every CSV field is the text Python's ``format`` gives: ``"{}"`` for the row
index and ``"{:.12g}"`` for each double.  A trace longer than one chunk is
formatted a chunk at a time in numpy; one chunk or less, by ``format``.  A
value x with 1e-280 <= |x| <= 1e280 takes the decimal exponent
e = floor(log10 |x|), corrected once where s = |x| 10^(11-e) falls outside
[1e11, 1e12), and the 12 digits r = rint(s), with 10^(11-e) from a table of
correctly rounded powers of ten; r = 10^12 carries to the next exponent.
s carries two roundings, the power's and the product's, so it lies within
2u 1e12 ~ 2.2e-4 of the exact |x| 10^(11-e) (u = 2^-53).  Where s lies
more than _WINDOW = 8 eps 1e12 ~ 1.8e-3 from every rounding boundary
k + 1/2, r are the correctly rounded digits that format finds (an exact
value just below 1e11 at e rounds up to 10^e at e - 1 as well), and the %g
layout follows from r and e.  Python's format writes every other value:
0, NaN, +-inf, |x| outside the range, s below 1e11 or r above 10^12 after
the correction, and s within the window of a boundary, about one value in
280.
"""

from __future__ import annotations

import functools
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from .propagate import EvolutionTrace

_SQ2 = 1 / np.sqrt(2)
CARDINAL_STATES = (
    (1.0, 0.0),            # +z
    (0.0, 1.0),            # -z
    (_SQ2, _SQ2),          # +x
    (_SQ2, -_SQ2),         # -x
    (_SQ2, _SQ2 * 1j),     # +y
    (_SQ2, -_SQ2 * 1j),    # -y
)


def bloch_grid(n_sphere: int = 50) -> np.ndarray:
    """(6 + n_sphere, 2) array of pure qubit states: the 6 cardinal states,
    then a quasi-uniform (Fibonacci) sphere sampling of n_sphere points."""
    if n_sphere < 0:
        raise ValueError("grid must be >= 0")
    i = np.arange(n_sphere)
    th = np.arccos(1 - 2 * (i + 0.5) / n_sphere)
    ph = np.pi * (3 - np.sqrt(5)) * i
    sphere = np.stack([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)],
                      axis=1)
    return np.concatenate([np.array(CARDINAL_STATES, dtype=complex), sphere])


CSV_HEADER = "period_index,time_over_taup,fidelity_min,n_mean_max,leakage_max"
_CSV_ROW = "{},{:.12g},{:.12g},{:.12g},{:.12g}\n"
# rows formatted and written at a time, so that a long trace's lines are
# never all held at once
_CSV_CHUNK = 1024

# A chunk's rows are built in native uint32 words of four bytes, in fixed
# slots: the index's groups of four digits, then per value _VALUE_WORDS words
# ("," and the sign, three words of integer digits, four of fraction, ".ddd"
# and three groups of four, and two of exponent, "e+dd" and a third digit),
# then "\n".  Unused bytes hold _FILL, which one bytes.translate deletes.
# The buffer is slot-major, one contiguous row of words per slot, and is
# transposed once into row order.
_FILL = b"\0"
_VALUE_WORDS = 10
_WINDOW = 8 * np.finfo(float).eps * 1e12
_FAST_RANGE = (1e-280, 1e280)
# the tables' decimal exponents e, at index e - _E_MIN
_E_MIN = -300
# offsets of the blocks of the digit-word table
_LEAD, _FULL, _TRAIL, _DOT = 0, 10**4, 2 * 10**4, 3 * 10**4
_NEWLINE, _ZERO = np.frombuffer(b"\n\0\0\0" b"\0\0\0" b"0", np.uint32)
# the word whose byte j is 1, in the native byte order
_BYTE = np.frombuffer(bytes([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0,
                             0, 0, 0, 1]), np.uint32)
# "," then "-" for a negative value, then "0" for the integer part of a
# fixed-layout value below 1
_SEPARATOR = np.frombuffer(b",\0\0\0" b",-\0\0" b",\0" b"0\0" b",-0\0",
                           np.uint32)


def _digit_words() -> np.ndarray:
    """The groups of four characters of 0..9999 as words, in five blocks:
    leading zeros dropped (0 gives nothing), all four digits, trailing zeros
    dropped, then for 0..999 "." and the last three digits, with trailing
    zeros kept, and dropped (0 gives nothing)."""
    # digits[j, g]: digit j of g, the most significant first
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    words = np.zeros(_DOT + 2000, np.uint32)
    lead, full, trail = (words[k:k + 10**4] for k in (_LEAD, _FULL, _TRAIL))
    lead_seen = np.zeros(10**4, bool)
    trail_seen = np.zeros(10**4, bool)
    for j in range(4):
        lead_seen |= digits[j] != 0
        trail_seen |= digits[3 - j] != 0
        full += (digits[j] + ord("0")) * _BYTE[j]
        lead += (digits[j] + ord("0")) * lead_seen * _BYTE[j]
        trail += (digits[3 - j] + ord("0")) * trail_seen * _BYTE[3 - j]
    # "." in place of the leading "0" of 0..999, which 0 without its
    # trailing zeros does not have
    point = (ord("0") - ord(".")) * _BYTE[0]
    words[_DOT:_DOT + 1000] = full[:1000] - point
    words[_DOT + 1001:] = trail[1:1000] - point
    return words


@functools.cache
def _tables() -> SimpleNamespace:
    """The writer's tables, built on the first write.  ``words`` are the
    digit words; per decimal exponent e of a value's 12 rounded digits r,
    ``scale`` is the correctly rounded 10^(11 - e), ``split`` the divisor
    that splits r into integer and fraction digits, ``align`` the factor
    that left-aligns the fraction to 15 digits, ``below_one`` is 2 where the
    layout puts "0" before the point, and ``exp_head`` and ``exp_tail`` are
    the exponent words, empty in the fixed layout -4 <= e < 12 of %.12g."""
    e = np.arange(_E_MIN, 1 - _E_MIN)
    fixed = (-4 <= e) & (e < 12)
    below_one = fixed & (e < 0)
    n_int = np.where(fixed, np.maximum(e + 1, 0), 1)
    # zeros between the point and the first digit
    zeros = np.where(below_one, -e - 1, 0)
    d = np.abs(e)
    wide = d >= 100
    exp = np.zeros((5, len(e)), np.uint8)
    exp[0] = ord("e")
    exp[1] = np.where(e < 0, ord("-"), ord("+"))
    exp[2] = np.where(wide, d // 100, d // 10 % 10) + ord("0")
    exp[3] = np.where(wide, d // 10 % 10, d % 10) + ord("0")
    exp[4] = np.where(wide, d % 10 + ord("0"), 0)
    exp[:, fixed] = 0
    tables = SimpleNamespace(
        words=_digit_words(),
        scale=np.fromiter((float(f"1e{11 - k}") for k in range(
            _E_MIN, 1 - _E_MIN)), float, len(e)),
        split=10 ** (12 - n_int), align=10 ** (3 + n_int - zeros),
        below_one=2 * below_one,
        exp_head=sum(exp[j] * _BYTE[j] for j in range(4)),
        exp_tail=exp[4] * _BYTE[0])
    # shared by every write in the process
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _integer_words(n: np.ndarray, out: np.ndarray, words) -> None:
    """Write the non-negative integers n, in groups of four digits with
    leading zeros dropped (0 gives nothing), into the word slots out[j]."""
    for j in range(len(out) - 1, 0, -1):
        high = n // 10**4
        # 10^4 + the group where a higher group is nonzero: all four digits
        out[j] = words[np.minimum(n, _FULL + n - 10**4 * high)]
        n = high
    out[0] = words[n]


def _fast_words(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the "," and %.12g field of each value of x into its word slots
    out[:, j] (out[c, j] for the values x[c]); returns where the rounding is
    not proven and the slots are to be rewritten."""
    t = _tables()
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a[~fast] = 1.0
    # table index of the exponent; log10 may be one off near a power of ten
    i = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    s = a * t.scale[i]
    i += s >= 1e12
    i -= s < 1e11
    s = np.multiply(a, t.scale[i], out=s)
    del a
    r = np.rint(s)
    fast &= (s >= 1e11) & (r <= 1e12)
    s -= r
    fast &= np.abs(s, out=s) < 0.5 - _WINDOW
    del s
    # 999999999999.5 and up round to the next power of ten
    carry = r == 1e12
    r[carry] = 1e11
    i += carry
    i[~fast] = -_E_MIN
    digits = r.astype(np.int64)
    del r
    split = t.split[i]
    whole = digits // split
    digits -= whole * split
    frac = np.multiply(digits, t.align[i], out=digits)
    del split
    out[:, 0] = _SEPARATOR[np.signbit(x) + t.below_one[i]]
    _integer_words(whole, out[:, 1:4].swapaxes(0, 1), t.words)
    # the fraction's 15 digits, trailing zeros dropped, and no point if 0
    f = frac // 10**12
    frac -= 10**12 * f
    out[:, 4] = t.words[_DOT + f + 1000 * (frac == 0)]
    for j, unit in ((5, 10**8), (6, 10**4)):
        f = frac // unit
        frac -= unit * f
        out[:, j] = t.words[_FULL + f + _FULL * (frac == 0)]
    out[:, 7] = t.words[_TRAIL + frac]
    out[:, 8] = t.exp_head[i]
    out[:, 9] = t.exp_tail[i]
    return ~fast


def _csv_text(columns):
    """The CSV rows of the row index and the float columns, _CSV_CHUNK rows
    at a time, each chunk as text; a field is the bytes of "{}" or
    "{:.12g}", which Python's format writes where the fast path does not."""
    n = len(columns[0])
    groups = max(1, -(-len(str(max(n - 1, 0))) // 4))
    rows = min(n, _CSV_CHUNK)
    values = np.empty((len(columns), rows))
    words = np.empty((groups + _VALUE_WORDS * len(columns) + 1, rows),
                     np.uint32)
    words[-1] = _NEWLINE
    value_words = words[groups:-1].reshape(len(columns), _VALUE_WORDS, rows)
    digit_words = _tables().words
    for start in range(0, n, _CSV_CHUNK):
        m = min(_CSV_CHUNK, n - start)
        for c, column in enumerate(columns):
            values[c, :m] = column[start:start + m]
        _integer_words(np.arange(start, start + m), words[:groups, :m],
                       digit_words)
        if start == 0:
            words[groups - 1, 0] = _ZERO
        slots = value_words[:, :, :m]
        slow = np.nonzero(_fast_words(values[:, :m], slots))
        if len(slow[0]):
            fields = b"".join(
                ("," + format(v, ".12g")).encode().ljust(4 * _VALUE_WORDS,
                                                         _FILL)
                for v in values[:, :m][slow].tolist())
            slots[slow[0], :, slow[1]] = np.frombuffer(
                fields, np.uint32).reshape(-1, _VALUE_WORDS)
        yield words[:, :m].T.tobytes().translate(None, _FILL).decode("ascii")


def write_csv(path: str, trace: EvolutionTrace) -> None:
    """Atomically write the CSV rows of the stroboscopic worst-case
    observables (temp file + rename), with the mode 0o666 & ~umask that a
    plain open gives a new file rather than mkstemp's 0o600.  An OSError
    names ``path``, not the temp file."""
    columns = (trace.times, trace.fidelity_min, trace.n_mean_max,
               trace.leakage_max)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(CSV_HEADER + "\n")
            if len(trace.times) > _CSV_CHUNK:
                fh.writelines(_csv_text(columns))
            else:
                # one chunk costs Python's format less than a process's first
                # vectorised write, which builds the tables (about 1 ms)
                fh.writelines(map(_CSV_ROW.format, range(len(trace.times)),
                                  *(c.tolist() for c in columns)))
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # the error names the path asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
