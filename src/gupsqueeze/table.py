"""The CSV format every command writes: a header row, then each float in
full-precision scientific notation and each label as is.

A float field's bytes equal CPython's ``'%.16e' % x`` exactly.  A table of
fewer than ``_TABLE_MIN_FIELDS`` fields (rows times columns; 256, near the
measured crossover) is written row by row, each row formatted by one
per-table ``'%'`` template, so that no byte differs.  ``write_table``
renders every larger table with an exact numpy kernel (``_e16_fields``)
in row blocks that hold ``_BLOCK_VALUES`` dense float values, so a block's
row count follows the number of dense float columns; non-finite values,
magnitudes outside [1e-280, 1e280), power-of-ten neighbours whose decimal
exponent log10 misses, values within 1e-6 of a decimal rounding tie, and
blocks of fewer than ``_KERNEL_MIN_VALUES`` floats go through ``'%.16e' %``
one by one.  The kernel builds the mask of each such condition only where
one test over the whole block finds a value that meets it.  Columns need
only broadcast to one shape, so a command hands over its grid open.  A
float column with a value for every row is rendered block by block; any
other column is rendered once per table, the float columns broadcast over
the grid once per stored value, all in one kernel call, and a ``Labels``
column (its labels plus one code per cell) once per label, and its rows
are gathered block by block by a flat row index.  Each block is laid out
in one buffer and its NUL padding dropped in one pass.

``csv_sink`` is where every command's bytes leave, and so the one place
that decides what a failed command leaves on disk: a regular file appears
whole or not at all, and a FIFO or a device streams.  ``csv_sinks`` does
the same for several files at once, and closes every staged file before
it renames any.  ``write_table``
writes through the function it yields; beside it, csv_sink yields where the
bytes go, "-" for stdout, so a command's status line can follow it.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import math
import os
import shutil
import stat
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .physics_config import ConfigError

# Dense float values rendered per block: the kernel's fixed cost of about 75
# numpy calls is spread over this many values (78 ns per value, against 120
# at 2048; medians on a 2-core VM, numpy 2.4), and a block's arrays stay
# under a megabyte.  A block holds _BLOCK_VALUES // (dense float columns)
# rows: 1170 for a sweep's seven, 8192 for a figure's one.
_BLOCK_VALUES = 8192

# A rendered float field's bytes, NUL where a byte is absent: sign, leading
# digit and "." in 0-2, the 16 fraction digits in 3-18, "e", the exponent
# sign and 2 or 3 digits in 19-23, and 24 left for the writer's separator.
# Each byte is filled in some field ('%.16e' fills at most 24), so the writer
# lays out and drops no padding that every field carries: with 28-byte
# fields a sweep or figure command took 1.07-1.10 times as long (paired
# medians, 2-core VM, numpy 2.4).
_E16_WIDTH = 25
# Below this many values per call, formatting them one by one is faster than
# the kernel's fixed per-call cost (crossover measured at 80-85 values: about
# 115 us either way, 2-core VM, numpy 2.4).
_KERNEL_MIN_VALUES = 80
# Tables of fewer fields (rows times columns) than this are formatted row by
# row with '%': there the block path's fixed cost of about 100 us is the
# larger.  Crossover measured at about 260 fields for oracle-compare's 5
# columns (250: x0.97, 275: x1.05), 190 for a figure's 3 and 480 for a
# sweep's 12 (medians, 2-core VM, numpy 2.4); the 100-field tables of four
# taus are written 1.6 times as fast.
_TABLE_MIN_FIELDS = 256
_POW10_MIN = -270  # 10**k for k = 16 - E, E the decimal exponent in range
_POW10_MAX = 300
_EXP_OFFSET = 300


def _pack(*chars) -> np.ndarray:
    """uint32 words holding up to four byte columns, first in the lowest byte;
    stored as "<u4" they lie in memory in that order."""
    word = np.zeros(np.broadcast(*chars).shape, np.uint32)
    for shift, column in zip((0, 8, 16, 24), chars):
        word |= np.asarray(column, np.uint32) << shift
    return word


def _split(a):
    """Veltkamp split: a = hi + lo exactly, each half with 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _e16_tables():
    """Double-double 10**k, each half correctly rounded from the exact
    rational num/den by int true division, as one row per k of (hi, lo, and
    hi's Veltkamp halves); then the digit tables."""
    pow_hi, pow_lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        pow_hi.append(num / den)
        p, q = pow_hi[-1].as_integer_ratio()
        pow_lo.append((num * q - p * den) / (den * q))
    pow_hi, pow_lo = np.array(pow_hi), np.array(pow_lo)
    powers = np.stack([pow_hi, pow_lo, *_split(pow_hi)], axis=1)
    n = np.arange(10000, dtype=np.uint32)
    quad = _pack(48 + n // 1000, 48 + n // 100 % 10, 48 + n // 10 % 10, 48 + n % 10)
    # index 10 * negative + leading digit
    s = np.arange(20)
    head = _pack(np.where(s >= 10, ord("-"), 0), 48 + s % 10, ord("."))
    # bytes 19-22 and 23-24, index exponent + _EXP_OFFSET; a 2-digit
    # exponent leaves byte 23 NUL
    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET)
    m = np.abs(e)
    wide = m >= 100
    tail = (_pack(ord("e"), np.where(e < 0, ord("-"), ord("+")),
                  np.where(wide, 48 + m // 100, 48 + m // 10 % 10),
                  np.where(wide, 48 + m // 10 % 10, 48 + m % 10)),
            np.where(wide, 48 + m % 10, 0).astype("<u2"))
    return powers, quad, head, tail


def _digits(a, e):
    """floor(a * 10**(16 - e)) as int64 and its fractional part, from an
    exact two-product against the double-double power (error ~1e-31
    relative), reusing its temporaries in place."""
    powers, *_ = _e16_tables()
    pow_hi, pow_lo, b_hi, b_lo = powers.take(16 - _POW10_MIN - e, axis=0).T
    a_hi, a_lo = _split(a)
    p = a * pow_hi
    # err = ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in that order
    err = a_hi * b_hi
    err -= p
    term = np.multiply(a_hi, b_lo, out=a_hi)
    err += term
    err += np.multiply(a_lo, b_hi, out=term)
    err += np.multiply(a_lo, b_lo, out=term)
    err += np.multiply(a, pow_lo, out=term)
    whole = np.floor(p)
    p -= whole
    p += err  # the fraction and what the error carries across an integer
    carry = np.floor(p)
    p -= carry
    d = whole.astype(np.int64)
    d += carry.astype(np.int64)
    return d, p


def _e16_one_by_one(x) -> np.ndarray:
    """'%.16e' % v through CPython for each value of x, as _e16_fields lays
    it out: one NUL-padded row per value."""
    return np.array([b"%.16e" % v for v in x.tolist()], dtype=f"S{_E16_WIDTH}"
                    ).view(np.uint8).reshape(len(x), _E16_WIDTH)


def _e16_fields(x) -> np.ndarray:
    """The bytes of '%.16e' % v for each float64 v in x, one NUL-padded row
    of _E16_WIDTH bytes per value."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < _KERNEL_MIN_VALUES:
        return _e16_one_by_one(x)
    _, quad, head, tail = _e16_tables()
    # The vector path needs each value in [1e-280, 1e280) (there every
    # product and split below stays normal and finite), a d of 17 digits
    # (log10 misses by one next to a power of ten), and no fraction within
    # 1e-6 of a half (a true tie rounds half-even, and the product's error
    # could carry a near one across).  Each condition is first one test over
    # the whole array; a per-value mask is built only where some value fails
    # it, and the values a mask excludes go one by one, zeros excepted.
    masks = []
    a = np.abs(x)
    if not (a.min() >= 1e-280 and a.max() < 1e280):  # NaN fails both
        masks.append((a >= 1e-280) & (a < 1e280))
        a[~masks[0]] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _digits(a, e)
    if not (d.min() >= 10 ** 16 and d.max() < 10 ** 17):
        masks.append((d >= 10 ** 16) & (d < 10 ** 17))
    frac -= 0.5
    d += frac > 0.0
    np.abs(frac, out=frac)
    if not frac.min() > 1e-6:
        masks.append(frac > 1e-6)
    if d.max() >= 10 ** 17:  # 17 nines rounded up: carry into the exponent
        carry = d == 10 ** 17
        d[carry] = 10 ** 16
        e += carry
    if masks:
        vector = functools.reduce(np.logical_and, masks)
        d *= vector  # zeros render as 0.0000000000000000e+00; the rest below
        e *= vector
    # d's 17 digits: the leading one, then two 8-digit halves of two 4-digit
    # quads each, split by floor division (an int64 np.divmod costs about
    # four floor divisions)
    hi = d // 10 ** 8
    d -= hi * 10 ** 8
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    lead += 10 * np.signbit(x)
    e += _EXP_OFFSET
    out = np.empty((x.size, _E16_WIDTH), np.uint8)

    def put(offset: int, values: np.ndarray) -> None:
        """values, one per field, stored from byte offset on (unaligned)."""
        np.ndarray(x.size, values.dtype, out, offset, (_E16_WIDTH,))[...] = values

    put(0, head.take(lead))  # its fourth byte, 3, is overwritten next
    for offset, half in ((3, hi), (11, d)):
        upper = half // 10 ** 4
        half -= upper * 10 ** 4
        put(offset, quad.take(upper))
        put(offset + 4, quad.take(half))
    for offset, table in zip((19, 23), tail):
        put(offset, table.take(e))
    if masks:
        slow = ~vector & (x != 0.0)
        out[slow] = _e16_one_by_one(x[slow])
    return out


class Labels(NamedTuple):
    """A text column, handed over as its labels and, per cell, the index of
    its label: the writer encodes each label once and gathers rows by code,
    with no sort over the cells.  write_table refuses a label that UTF-8
    cannot encode or that holds a NUL with a ValueError naming it."""

    labels: Sequence[str]
    codes: np.ndarray


def _label_bytes(labels) -> list[bytes]:
    """Each label's UTF-8 bytes.  A label that UTF-8 cannot encode, or that
    holds a NUL (which the block path drops with its padding), is a
    ValueError that names it."""
    encoded = []
    for label in labels:
        try:
            encoded.append(label.encode())
        except UnicodeEncodeError:
            raise ValueError(f"label {label!r} is not encodable as UTF-8") from None
        if b"\0" in encoded[-1]:
            raise ValueError(f"label {label!r} holds a NUL")
    return encoded


def _encoded(labels, end: bytes) -> np.ndarray:
    """Each label's UTF-8 bytes and then end, one NUL-padded row each."""
    encoded = np.array([text + end for text in _label_bytes(labels)], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(labels), encoded.itemsize)


def sink_target(path: str) -> str:
    """"-" where csv_sink(path) writes to stdout, else path: path is "-" or
    names the file stdout has open (/dev/stdout, /dev/fd/1, or the file a
    shell redirected stdout to).  Opening that file a second time would
    write at offset 0, under what stdout itself writes."""
    if path != "-":
        try:
            target, stdout = os.stat(path), os.fstat(1)
        except (OSError, ValueError):  # no such file, a bad name, or no stdout
            return path
        if (target.st_dev, target.st_ino) != (stdout.st_dev, stdout.st_ino):
            return path
    return "-"


@contextlib.contextmanager
def csv_sink(path: str):
    """A function that writes bytes to path, or to stdout where sink_target
    says "-", and sink_target(path): where its bytes go.

    A path that does not exist, or that resolves to a regular file, is
    staged: the bytes go to a new sibling file, which replaces the resolved
    target (with an existing target's mode bits) when the block exits
    cleanly and is removed on any exception, so a symlink is written
    through.  Other targets are opened directly: a FIFO (so it streams) or
    a device, a name through /proc (/dev/stdout, /dev/fd/N: a file some
    process holds open), and a target beside which no file can be made.  A
    target that refuses the rename, a file bind-mounted on its own, is
    rewritten in place instead.

    Each write is flushed.  A path that cannot be opened or written, a FIFO
    whose reader left included, is a ConfigError that names path, raised
    by the write that failed."""
    with csv_sinks([path]) as (sink,):
        yield sink


@contextlib.contextmanager
def csv_sinks(paths: Sequence[str]):
    """csv_sink for several paths at once: one (write, target) pair per path.
    When the block exits cleanly, every staged file is given its mode bits
    and closed before any is renamed into place, so a failure before the
    renames leaves every target as it was.  On any exception every staged
    file is removed; an OSError the block raises is named by the last path
    that is not stdout."""
    sinks = []
    try:
        for path in paths:
            sinks.append(_Sink(path))
        yield [(sink.write, sink.target) for sink in sinks]
        for sink in sinks:
            sink.close()
        for sink in sinks:
            sink.replace()
    except BaseException as exc:
        for sink in sinks:
            sink.discard()
        files = [sink.path for sink in sinks if sink.stream is not None]
        if isinstance(exc, OSError) and files:
            raise _cannot_write(files[-1], exc)
        raise


class _Sink:
    """One path of csv_sinks: where its bytes go ("-" for stdout) and, for
    any other target, the stream, the staged file behind it and the target
    it replaces (see _open_sink).  Each step turns an OSError into a
    ConfigError that names path."""

    def __init__(self, path: str):
        self.path, self.target = path, sink_target(path)
        self.stream = self.staged = None
        if self.target != "-":
            try:
                self.stream, self.staged, self.real, self.mode = _open_sink(path)
            except OSError as exc:
                raise _cannot_write(path, exc)

    def write(self, data: bytes) -> None:
        if self.stream is None:
            sys.stdout.write(data.decode())
            return
        try:
            self.stream.write(data)
            self.stream.flush()
        except OSError as exc:  # named here, not by another sink it passes
            raise _cannot_write(self.path, exc)

    def close(self) -> None:
        """Give a staged file the target's mode bits, and close the stream."""
        if self.stream is not None:
            try:
                if self.mode is not None:
                    os.fchmod(self.stream.fileno(), self.mode)
                self.stream.close()
            except OSError as exc:
                raise _cannot_write(self.path, exc)

    def replace(self) -> None:
        """Move the closed staged file into place."""
        if self.staged is not None:
            try:
                _rename(self.staged, self.real, self.path)
            except OSError as exc:
                raise _cannot_write(self.path, exc)

    def discard(self) -> None:
        """Close the stream and remove the staged file, quietly."""
        if self.stream is not None:
            with contextlib.suppress(OSError):
                self.stream.close()
        if self.staged is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.staged)


def _cannot_write(path: str, exc: OSError) -> ConfigError:
    if exc.filename is not None:  # a staged file's name means nothing to the user
        exc = OSError(exc.errno, exc.strerror, path)
    return ConfigError(f"cannot write {path!r}: {exc}")


def _open_sink(path: str):
    """csv_sink's stream, the staged file behind it and the target it will
    replace (both None where path is opened directly), and the mode bits to
    give the staged file (None for a new target)."""
    real = _resolved(path)
    if real is not None:
        try:
            mode = os.stat(real).st_mode
        except OSError:
            mode = None  # a new file; where its directory is missing, open says so
        if mode is None or stat.S_ISREG(mode):
            if mode is not None:  # a target open(path, "wb") refuses stays refused
                os.close(os.open(path, os.O_WRONLY))
                mode = stat.S_IMODE(mode)
            # unique per attempt, so a file a killed run left never blocks one
            staged = os.path.join(os.path.dirname(real), f".{os.path.basename(real)}."
                                                         f"{os.urandom(4).hex()}.tmp")
            with contextlib.suppress(OSError):  # else no file can be made beside it
                fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                return open(fd, "wb"), staged, real, mode
    return open(path, "wb"), None, None, None


def _resolved(path: str) -> str | None:
    """path with the symlinks it ends in followed, or None where it is to be
    opened as given: a name ending in "/", "." or "..", a link in /proc
    (/dev/stdout and /dev/fd/N lead there; such a link names an open file,
    a pipe or a file a shell redirected to, whatever its text), or more
    than 40 links.  Only the directory of a link is resolved: a path that
    is no link already names its file's directory as the kernel reads it."""
    for _ in range(40):
        if os.path.basename(path) in ("", ".", ".."):
            return None
        if not os.path.islink(path):
            return path
        head = os.path.realpath(os.path.dirname(path))
        if head == "/proc" or head.startswith("/proc/"):
            return None
        path = os.path.join(head, os.readlink(path))
    return None


def _rename(staged: str, real: str, path: str) -> None:
    """Move staged onto real, or copy its bytes into path in place where
    real is a mount point (EBUSY, or EXDEV from another file system)."""
    try:
        os.replace(staged, real)
    except OSError as exc:
        if exc.errno not in (errno.EBUSY, errno.EXDEV):
            raise
        with open(staged, "rb") as source, open(path, "wb") as target:
            shutil.copyfileobj(source, target)
        os.unlink(staged)


def _stored(column: np.ndarray) -> np.ndarray:
    """The values a column holds: each axis it is broadcast along (stride 0)
    cut to length 1."""
    return column[tuple(slice(None) if step else slice(0, 1)
                        for step in column.strides)]


def _rows_text(shape, columns) -> bytes:
    """The table's rows, each formatted by '%' from one per-table template:
    '%.16e' for a float column and '%s' for a label column's encoded label."""
    def flat(values):  # broadcast only where needed: it costs 2 us a column
        values = values if values.shape == shape else np.broadcast_to(values, shape)
        return values.reshape(-1).tolist()

    cells = []
    for col in columns:
        if isinstance(col, Labels):
            encoded = _label_bytes(col.labels)
            cells.append([encoded[code] for code in flat(np.asarray(col.codes))])
        else:
            cells.append(flat(np.asarray(col, np.float64)))
    template = b",".join(b"%s" if isinstance(col, Labels) else b"%.16e"
                         for col in columns) + b"\n"
    return b"".join([template % row for row in zip(*cells)])


def write_table(write, header, columns) -> None:
    """Pass the header, then one row per cell of the shape the columns
    broadcast to, in C order.  Each column is a float array (written as
    '%.16e') or a Labels (written as is; see Labels for the labels it
    refuses, before anything is written).  A table of fewer than
    _TABLE_MIN_FIELDS fields goes row by row (_rows_text), with the header
    in one write.  In a larger table a float column that holds a value
    for every row is rendered block by block, in blocks of _BLOCK_VALUES dense
    float values; any other column is rendered once per table, a float per
    stored value (every such column's in one kernel call) and a label per
    label, and its rows are gathered block by block.  write takes bytes, as
    the function csv_sink yields does."""
    shape = np.broadcast_shapes(*(np.shape(col.codes if isinstance(col, Labels) else col)
                                  for col in columns))
    rows = math.prod(shape)
    head = (",".join(header) + "\n").encode()
    if rows * len(columns) < _TABLE_MIN_FIELDS:
        write(head + _rows_text(shape, columns))
        return
    width = _E16_WIDTH  # of a float field
    # every field ends in its separator, "," or "\n" after the last column;
    # a float field's is its last byte, as '%.16e' fills at most 24 of its 25
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    dense, dense_ends = [], []  # the dense float columns' values, flat
    # per run of adjacent dense float columns (None, its bytes in a rendered
    # block row), per other column (fields, the flat row index of its field)
    parts = []
    stored = [None if isinstance(col, Labels) else _stored(np.broadcast_to(col, shape))
              for col in columns]
    once = [values for values in stored if values is not None and values.size < rows]
    if once:  # every float column rendered once per table, in one kernel call
        rendered = iter(np.split(_e16_fields(np.concatenate([v.reshape(-1) for v in once])),
                                 np.cumsum([v.size for v in once[:-1]])))
    for col, values, end in zip(columns, stored, ends):
        if values is None:
            fields, index = _encoded(col.labels, end), np.asarray(col.codes)
        elif values.size == rows:
            run = (parts.pop()[1].start if parts and parts[-1][0] is None
                   else width * len(dense))
            dense.append(values.reshape(-1))
            dense_ends.append(ord(end))
            parts.append((None, slice(run, width * len(dense))))
            continue
        else:
            fields = next(rendered)
            fields[:, -1] = ord(end)
            index = np.arange(values.size).reshape(values.shape)
        # at most 4 bytes a row (1 for up to 256 fields), so at most 4 MB a
        # column at the 10**6-cell cap
        index = index.astype(np.min_scalar_type(len(fields) - 1), copy=False)
        parts.append((fields, np.broadcast_to(index, shape).reshape(-1)))
    step = _BLOCK_VALUES // max(len(dense), 1)
    row_bytes = sum(data.stop - data.start if fields is None else fields.shape[1]
                    for fields, data in parts)
    table = np.empty((0, row_bytes), np.uint8)
    write(head)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        if len(table) != stop - start:  # the first block, and a short last one
            # every block is laid out in this one buffer, and its padding
            # dropped by bytearray.translate, with no copy in between
            buffer = bytearray((stop - start) * row_bytes)
            table = np.frombuffer(buffer, np.uint8).reshape(stop - start, row_bytes)
        if dense:  # one kernel call renders every dense float column's block
            block = _e16_fields(np.stack([v[start:stop] for v in dense], axis=1)
                                ).reshape(stop - start, -1)
            block[:, width - 1::width] = dense_ends
        np.concatenate([block[:, data] if fields is None else
                        fields.take(data[start:stop], axis=0) for fields, data in parts],
                       axis=1, out=table)
        write(buffer.translate(None, b"\0"))
