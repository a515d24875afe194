import os
import re
import stat
import zlib

import pytest

from zml import store
from zml.errors import ParseError, ValidationError

KEYS = {"t_max": float, "count": int, "certified": bool}


def test_roundtrip(tmp_path):
    # the CRC covers the streamed payload chunks, written over a placeholder
    path = tmp_path / "c.txt"
    fields = {"t_max": 0.1, "count": 3, "certified": False}
    store.write(path, "# zml-test v1", fields, [b"a\n", b"", b"\x00\xff"])
    payload = b"a\n\x00\xff"
    assert path.read_bytes() == (
        b"# zml-test v1\n# t_max 0.1\n# count 3\n# certified false\n"
        + f"# crc32 {zlib.crc32(payload):08x}\n".encode() + payload)
    assert store.read(path, "# zml-test v1", KEYS) == (fields, payload)
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


@pytest.mark.parametrize("head, message", [
    ("# zml-test v2\n", ":1: expected '# zml-test v1'"),
    ("# zml-test v1\n# count 3\n", ":2: missing '# t_max' header"),
    ("# zml-test v1\n# t_max 1e2\n", ":2: bad t_max"),
    ("# zml-test v1\n# t_max 0.1\n# count 03\n", ":3: bad count"),
    ("# zml-test v1\n# t_max 0.1\n# count 3.0\n", ":3: bad count"),
    ("# zml-test v1\n# t_max 0.1\n# count 3\n# certified 1\n",
     ":4: '# certified' must be true or false"),
    ("# zml-test v1\n# t_max 0.1\n# count 3\n# certified true\n# crc32 0000000G\n",
     ":5: '# crc32' must be 8 lowercase hex digits"),
    ("# zml-test v1\n# t_max 0.1\n# count 3\n# certified true\n", ":5: missing '# crc32' header"),
], ids=["magic", "key order", "float not a repr", "int with a zero", "int as a float",
        "flag", "crc32 not hex", "no crc32"])
def test_header_faults_name_the_line(tmp_path, head, message):
    path = tmp_path / "c.txt"
    path.write_bytes(head.encode() + b"payload\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
        store.read(path, "# zml-test v1", KEYS)


def test_crc_mismatch(tmp_path):
    path = tmp_path / "c.txt"
    store.write(path, "# zml-test v1", {}, [b"12345\n"])
    path.write_bytes(path.read_bytes().replace(b"12345", b"12346"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}: crc32 mismatch")):
        store.read(path, "# zml-test v1", {})


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask 022", "umask 077"])
def test_mode_is_open_mode(tmp_path, umask):
    # the mode a plain open() gives under the umask, not mkstemp's 0o600
    old = os.umask(umask)
    try:
        store.replace(tmp_path / "c.txt", lambda fh: fh.write(b"x"))
        assert os.umask(umask) == umask         # replace left the umask as it was
        with open(tmp_path / "plain.txt", "wb"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "c.txt").stat().st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
