"""Global-variable image construction, shared by both execution engines.

Both the IR interpreter and the SimX86 simulator place each global at the
same address and initialize the same bytes, so a fault-free run produces
bit-identical memory behaviour at both levels — the baseline the paper's
comparison rests on.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ReproError
from repro.ir.module import Module
from repro.ir.values import (
    ConstantArray, ConstantDouble, ConstantInt, ConstantNull, ConstantString,
    ConstantStruct, ConstantZero,
)
from repro.vm.memory import GLOBALS_BASE, Memory, standard_memory


def _layout(module: Module):
    """(bytes the globals take, [(global, offset)]) in declaration order."""
    offset = 0
    layout = []
    for g in module.globals.values():
        align = max(g.value_type.alignment, 1)
        offset = (offset + align - 1) // align * align
        layout.append((g, offset))
        offset += g.value_type.size
    return offset, layout


def global_addresses(module: Module) -> Dict[int, int]:
    """{id(global): addr}, as :func:`build_global_image` places them,
    without building the image."""
    _, layout = _layout(module)
    return {id(g): GLOBALS_BASE + off for g, off in layout}


def build_global_image(module: Module) -> Tuple[Memory, Dict[int, int]]:
    """Lay out and initialize all globals. Returns (memory, {id(global): addr})."""
    size, layout = _layout(module)
    memory = standard_memory(globals_size=size + 4096)
    addrs: Dict[int, int] = {}
    for g, off in layout:
        addr = GLOBALS_BASE + off
        addrs[id(g)] = addr
        _write_initializer(memory, addr, g.initializer, g.value_type)
    return memory, addrs


def _write_initializer(memory: Memory, addr: int, init, value_type) -> None:
    if isinstance(init, ConstantZero):
        return  # regions start zeroed
    if isinstance(init, ConstantInt):
        memory.write_int(addr, value_type.size, init.unsigned)
    elif isinstance(init, ConstantDouble):
        memory.write_double(addr, init.value)
    elif isinstance(init, ConstantNull):
        memory.write_int(addr, 8, 0)
    elif isinstance(init, ConstantString):
        memory.write_bytes(addr, init.data)
    elif isinstance(init, ConstantArray):
        elem = value_type.element
        for i, e in enumerate(init.elements):
            _write_initializer(memory, addr + i * elem.size, e, elem)
    elif isinstance(init, ConstantStruct):
        for i, f in enumerate(init.fields):
            _write_initializer(memory, addr + value_type.field_offset(i), f,
                               value_type.field_type(i))
    else:
        raise ReproError(
            f"unsupported global initializer {type(init).__name__}")
