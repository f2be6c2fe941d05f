#!/usr/bin/env python3
"""Generate src/repro/sim/_ziggurat.py from an installed numpy.

Usage:  python tools/gen_ziggurat_tables.py [output-path]

:class:`repro.sim.rng.RngStream` reproduces numpy's normal and
exponential ziggurat samplers bit for bit, so it needs numpy's own
256-entry tables (``ki/wi/fi_double`` and ``ke/we/fe_double`` in
``numpy/random/src/distributions/ziggurat_constants.h``).  Rather than
recomputing them (a recomputation need not round the same way), this
script reads them out of the static library numpy ships,
``numpy/random/lib/libnpyrandom.a``: ``ar x`` unpacks the
distributions object, ``nm -S`` gives each table's offset and size in
its section, and ``objcopy --only-section=.rodata`` dumps the bytes.
It needs binutils and numpy, both only here: the generated module is a
plain literal and the package never imports numpy.  Whether the
committed tables are numpy's is checked by the draws themselves, in
``tests/test_rng_oracle.py``.
"""

from __future__ import annotations

import struct
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO / "src" / "repro" / "sim" / "_ziggurat.py"
MEMBER = "src_distributions_distributions.c.o"

#: (numpy symbol, module constant, struct code): the ``k*`` tables are
#: uint64 acceptance bounds, the ``w*``/``f*`` tables doubles.
TABLES = (
    ("ki_double", "KI", "Q"),
    ("wi_double", "WI", "d"),
    ("fi_double", "FI", "d"),
    ("ke_double", "KE", "Q"),
    ("we_double", "WE", "d"),
    ("fe_double", "FE", "d"),
)

HEADER = '''\
"""Ziggurat tables of numpy's normal and exponential samplers.

Generated by ``tools/gen_ziggurat_tables.py`` from the ``.rodata`` of
numpy {version}'s ``numpy/random/lib/libnpyrandom.a`` (tables
``ki/wi/fi_double`` and ``ke/we/fe_double`` of
``numpy/random/src/distributions/ziggurat_constants.h``).  Do not edit.

The values are numpy's and are redistributed under its licence:

    Copyright (c) 2005-2025, NumPy Developers.
    Copyright (c) 2019 Kevin Sheppard.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    * Redistributions of source code must retain the above copyright
      notice, this list of conditions and the following disclaimer.
    * Redistributions in binary form must reproduce the above copyright
      notice, this list of conditions and the following disclaimer in
      the documentation and/or other materials provided with the
      distribution.
    * Neither the name of the NumPy Developers nor the names of any
      contributors may be used to endorse or promote products derived
      from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS
    FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE
    COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT,
    INCIDENTAL, SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING,
    BUT NOT LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES;
    LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER
    CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT
    LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY
    WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE
    POSSIBILITY OF SUCH DAMAGE.
"""
'''


def read_tables(library: Path) -> dict[str, tuple]:
    """Each table's 256 values, read from the library's distributions object."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["ar", "x", str(library), MEMBER], cwd=tmp, check=True)
        obj = Path(tmp) / MEMBER
        listing = subprocess.run(
            ["nm", "-S", str(obj)], capture_output=True, text=True, check=True
        ).stdout
        rodata = Path(tmp) / "rodata.bin"
        subprocess.run(
            ["objcopy", "-O", "binary", "--only-section=.rodata",
             str(obj), str(rodata)],
            check=True,
        )
        blob = rodata.read_bytes()
    placed = {}
    for line in listing.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[2] == "r":
            placed[fields[3]] = (int(fields[0], 16), int(fields[1], 16))
    tables = {}
    for symbol, _name, code in TABLES:
        offset, size = placed[symbol]
        if size != 256 * 8:
            raise SystemExit(f"{symbol}: expected 2048 bytes, nm says {size}")
        tables[symbol] = struct.unpack_from(f"<256{code}", blob, offset)
    return tables


def render(tables: dict[str, tuple], version: str) -> str:
    parts = [HEADER.format(version=version)]
    for symbol, name, code in TABLES:
        values = tables[symbol]
        as_text = hex if code == "Q" else repr
        parts.append(f"\n#: numpy's ``{symbol}``.\n{name} = (\n")
        parts.extend(f"    {as_text(value)},\n" for value in values)
        parts.append(")\n")
    return "".join(parts)


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else DEFAULT_OUT
    import numpy

    library = Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    out.write_text(render(read_tables(library), numpy.__version__))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
