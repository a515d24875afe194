"""Cache files: one checksummed container, written atomically.

The zero list, the one cache, is stored as the magic line '# zml-<kind>
v<N>', one '# <key> <value>' line per key in a fixed order, '# crc32 <8
lowercase hex>' (zlib.crc32 of the payload), then the payload.  A float
value is written as its repr, which reads back to the same bits, an int
in decimal and a flag as true or false.  sieve.load_sieve reads mu from
a sieve container of the same layout, which no step writes or reads.
"""
from __future__ import annotations

import os
import re
import tempfile
import zlib
from pathlib import Path

from .errors import ParseError, ValidationError


def replace(path, write) -> None:
    """Build `path` by write(fh) on a unique temp file opened for binary
    writing in the same directory, with the mode open() would give it (not
    mkstemp's 0o600), then rename it into place; on any failure the temp
    file is removed and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0o077)     # os.umask reads the mask only by setting one
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def write(path, magic: str, fields: dict, chunks) -> None:
    """Write a container atomically: the header with `fields` in order,
    then the payload chunks (bytes-like), streamed.  The CRC, known only at
    the end, is written over a placeholder of the same width."""
    head = "".join([f"{magic}\n", *(f"# {k} {_text(v)}\n" for k, v in fields.items())]).encode()

    def fill(fh):
        fh.write(head + b"# crc32 00000000\n")
        crc = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.seek(len(head))
        fh.write(f"# crc32 {crc:08x}\n".encode())

    replace(path, fill)


def _field(path, lineno: int, line: bytes, key: str, kind: type):
    """The value of the header line '# <key> <value>', as `kind` (bool,
    int, float, or str for the CRC's hex digits)."""
    prefix = f"# {key} ".encode()
    if not (line.startswith(prefix) and line.endswith(b"\n")):
        raise ParseError(f"{path}:{lineno}: missing '# {key}' header")
    text = line[len(prefix): -1].decode("ascii", errors="replace")
    if kind is str:
        if not re.fullmatch("[0-9a-f]{8}", text):
            raise ParseError(f"{path}:{lineno}: '# {key}' must be 8 lowercase hex digits")
        return text
    if kind is bool:
        if text not in ("true", "false"):
            raise ParseError(f"{path}:{lineno}: '# {key}' must be true or false")
        return text == "true"
    try:
        value = kind(text)
        if _text(value) == text:
            return value
    except ValueError:
        pass
    raise ParseError(f"{path}:{lineno}: bad {key}")


def read(path, magic: str, keys: dict) -> tuple:
    """The (fields, payload) of a container; keys maps each key, in file
    order, to its type (bool, int or float).  The header lines are checked
    in order, a fault raising a ParseError that names its line; the payload
    must match its CRC (else ValidationError)."""
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(len(keys) + 2)]
        # a sized read fills one bytes object; read() would join two copies
        payload = fh.read(os.fstat(fh.fileno()).st_size - fh.tell())
    if head[0] != f"{magic}\n".encode():
        raise ParseError(f"{path}:1: expected '{magic}'")
    fields = {key: _field(path, lineno, head[lineno - 1], key, kind)
              for lineno, (key, kind) in enumerate({**keys, "crc32": str}.items(), start=2)}
    if zlib.crc32(payload) != int(fields.pop("crc32"), 16):
        raise ValidationError(f"{path}: crc32 mismatch")
    return fields, payload
