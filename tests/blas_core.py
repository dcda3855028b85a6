"""The OpenBLAS kernel set ("core") that numpy's matrix products run on.

OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU, or by
``OPENBLAS_CORETYPE``, and the kernels round differently, so a trained
parameter digest holds for one core only. The core is read from the
library that this process loaded: its path from the process's memory map,
its ``get_corename`` function from the library's exported symbols (the
name carries a build-dependent prefix and suffix), called through ctypes.
"""

import ctypes
import struct

import numpy as np  # noqa: F401  (loads the OpenBLAS whose core is read)
import pytest

_SHT_DYNSYM = 11


def _exported_names(path: str) -> list[str]:
    """Names of the defined symbols in an ELF64 little-endian shared
    library's dynamic symbol table."""
    with open(path, "rb") as f:
        elf = f.read()
    if elf[:4] != b"\x7fELF" or elf[4] != 2 or elf[5] != 1:
        raise RuntimeError(f"{path} is not a 64-bit little-endian ELF file")
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    sections = [struct.unpack_from("<IIQQQQII", elf, shoff + i * shentsize) for i in range(shnum)]
    names = []
    for _, sh_type, _, _, offset, size, link, _ in sections:
        if sh_type != _SHT_DYNSYM:
            continue
        strtab = sections[link][4]
        for at in range(offset, offset + size, 24):
            st_name, _, _, st_shndx = struct.unpack_from("<IBBH", elf, at)
            if st_shndx:
                end = elf.index(b"\0", strtab + st_name)
                names.append(elf[strtab + st_name:end].decode())
    return names


def openblas_core() -> str:
    """The name of the core that the loaded OpenBLAS runs, e.g. ``SkylakeX``.
    Raises ``RuntimeError`` when no OpenBLAS is loaded or it names none."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError as exc:
        raise RuntimeError(f"cannot read this process's memory map: {exc}") from None
    if len(paths) != 1:
        raise RuntimeError(f"need exactly one loaded OpenBLAS library, found {sorted(paths)}")
    path = paths.pop()
    symbols = [name for name in _exported_names(path) if "get_corename" in name]
    if len(symbols) != 1:
        raise RuntimeError(f"need one get_corename function in {path}, found {symbols}")
    get_corename = getattr(ctypes.CDLL(path), symbols[0])
    get_corename.argtypes, get_corename.restype = [], ctypes.c_char_p
    return get_corename().decode()


def assert_core_digest(digests: dict, got: str) -> None:
    """``got`` equals the digest recorded for the running core. A core with
    no recorded digest, or one that cannot be read, fails and names it."""
    try:
        core = openblas_core()
    except RuntimeError as exc:
        pytest.fail(f"cannot read the OpenBLAS core ({exc}); this run gave digest {got}")
    if core not in digests:
        pytest.fail(f"no digest recorded for OpenBLAS core {core}; this run gave {got}")
    assert got == digests[core], f"OpenBLAS core {core}: digest {got}, recorded {digests[core]}"
