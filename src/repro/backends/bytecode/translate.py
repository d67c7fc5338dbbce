"""Translate a compiled function's bytecode into one Python function.

The interpreter does not dispatch opcode by opcode. On a function's
first call, :func:`runner` turns its :class:`~isa.CompiledFunction`
code into Python source, ``exec``\\ s it once and caches the result on
the function object, where every :class:`Interpreter` over the same
program finds it. The generated function takes ``(interp, args)`` and
has exactly the semantics of the stack machine described in
:mod:`isa`:

* **Stack slots are locals.** The stack depth is static at every pc, so
  the value at depth ``i`` lives in ``s<i>`` and Lime local ``k`` in
  ``l<k>``; every push is one assignment to its slot.
* **Basic blocks are dispatched on an index** ``b``: each block is an
  ``if b == k:`` arm, tested in pc order. A fall-through or a forward
  jump just sets ``b``; only a backward jump restarts the ``while True``
  loop. Straight-line functions get no dispatch at all.
* **Hot operators are inlined per (op, type)**: ``int``/``long``
  ``+ - * << >>`` wrap in two's complement, ``float`` rounds through
  binary32, ``double`` through ``float()``, comparisons and bitwise
  operators are direct. Everything else calls the shared
  :mod:`ops` semantics.
* **Cycles are flushed exactly where the loop flushed them.** The
  interpreter adds to ``interp.cycles`` only at CALL, MAP, REDUCE,
  GRAPH_START, RET, RETV and when a void body falls off its end. The
  static costs (``CYCLE_COST``, ``BINOP_EXTRA``, ``INTRINSIC_COST``) of
  each block are summed at translation time into a local ``c``; the
  dynamic costs of NEWARRAY (``max(length, 0)``) and FREEZE (``len``)
  are added where they occur; a flush point adds ``c`` plus the static
  costs since the block began and resets ``c``. A fault therefore loses
  the unflushed cycles of its frame, as it always did.
* **Calls between Lime functions go through** ``interp.call``, so frame
  cycles, the per-method profile and the depth limit stay in one place.
"""

from __future__ import annotations

import bisect
import math
import struct

from repro.backends.bytecode import isa
from repro.backends.bytecode.ops import (
    _MATH_FUNCTIONS,
    WRAP_CONSTANTS,
    apply_binary,
    apply_cast,
    apply_unary,
    java_idiv,
    java_irem,
)
from repro.backends.generated import build_function, cached
from repro.errors import DeviceError
from repro.values import MutableArray, ValueArray
from repro.values.structs import StructValue

RUNNER = "_runner"  # the cache slot on a CompiledFunction

# Opcodes that end a basic block.
_JUMPS = (isa.JMP, isa.JZ, isa.JNZ)
_EXITS = (isa.RET, isa.RETV)

_F32 = struct.Struct("<f")

# Operators inlined per result type; the rest go through apply_binary.
_WRAP = WRAP_CONSTANTS
# Rounding of a floating-point result, as ops._wrap does it.
_ROUND = {"double": "float({})", "float": "_unpack(_pack({}))[0]"}
_COMPARE = ("==", "!=", "<", ">", "<=", ">=")
_BITWISE = ("&", "|", "^")


def runner(function: isa.CompiledFunction):
    """The generated Python for ``function``, built on first use."""
    return cached(function, RUNNER, _translate)


# ---------------------------------------------------------------------------
# Run-time helpers the generated code calls
# ---------------------------------------------------------------------------


def _out_of_bounds(index, array):
    raise DeviceError(
        f"array index {index} out of bounds (length {len(array)})"
    )


def _check_map(map_args, broadcast):
    lengths = {len(a) for a, b in zip(map_args, broadcast) if not b}
    if len(lengths) != 1:
        raise DeviceError(
            "mapped arguments must have equal lengths, got "
            + ", ".join(
                str(len(a)) for a, b in zip(map_args, broadcast) if not b
            )
        )


_NAMESPACE = {
    "_oob": _out_of_bounds,
    "_check_map": _check_map,
    "_binary": apply_binary,
    "_idiv": java_idiv,
    "_fmod": math.fmod,
    "_irem": java_irem,
    "_unary": apply_unary,
    "_cast": apply_cast,
    "_pack": _F32.pack,
    "_unpack": _F32.unpack,
    "_allocate": MutableArray.allocate,
    "_ValueArray": ValueArray,
    "_Struct": StructValue,
    "float": float,
    "int": int,
    "len": len,
    "max": max,
}


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def _stack_effect(op, operand) -> tuple:
    """(values popped, values pushed) for one instruction."""
    if op in (isa.CALL, isa.INTRINSIC):
        _, nargs, returns = operand
        return nargs, 1 if returns else 0
    if op == isa.MAP:
        return operand[1], 1
    if op == isa.MKTASK:
        return (1 if operand[4] else 0), 1
    if op not in _EFFECTS:
        raise DeviceError(f"unknown opcode {op!r}")
    return _EFFECTS[op]


_EFFECTS = {
    isa.CONST: (0, 1), isa.LOAD: (0, 1), isa.STORE: (1, 0),
    isa.POP: (1, 0), isa.DUP: (1, 2),
    isa.BINOP: (2, 1), isa.UNOP: (1, 1), isa.CAST: (1, 1),
    isa.ALOAD: (2, 1), isa.ASTORE: (3, 0), isa.LEN: (1, 1),
    isa.NEWARRAY: (1, 1), isa.FREEZE: (1, 1),
    isa.GETFIELD: (1, 1), isa.PUTFIELD: (2, 0),
    isa.GETSTATIC: (0, 1), isa.PUTSTATIC: (1, 0),
    isa.NEWOBJ: (0, 1), isa.FREEZEOBJ: (1, 1),
    isa.RET: (0, 0), isa.RETV: (1, 0),
    isa.JMP: (0, 0), isa.JZ: (1, 0), isa.JNZ: (1, 0),
    isa.REDUCE: (1, 1), isa.MKSOURCE: (1, 1), isa.MKSINK: (1, 1),
    isa.CONNECT: (2, 1), isa.GRAPH_START: (1, 0),
}


def _successors(code, pc) -> tuple:
    op, operand = code[pc]
    if op == isa.JMP:
        return (operand,)
    if op in (isa.JZ, isa.JNZ):
        return (pc + 1, operand)
    if op in _EXITS:
        return ()
    return (pc + 1,)


def _depths(function) -> dict:
    """Static stack depth before each reachable pc; ``len(code)`` is the
    fall-off exit."""
    code = function.code
    depths = {0: 0}
    work = [0]
    while work:
        pc = work.pop()
        if pc == len(code):
            continue
        op, operand = code[pc]
        depth = depths[pc]
        pops, pushes = _stack_effect(op, operand)
        if pops > depth:
            raise DeviceError(
                f"cannot translate {function.qualified_name}: stack "
                f"underflow at pc {pc}"
            )
        depth += pushes - pops
        for succ in _successors(code, pc):
            if not 0 <= succ <= len(code):
                raise DeviceError(
                    f"cannot translate {function.qualified_name}: jump "
                    f"target {succ} out of range"
                )
            known = depths.get(succ)
            if known is None:
                depths[succ] = depth
                work.append(succ)
            elif known != depth:
                raise DeviceError(
                    f"cannot translate {function.qualified_name}: stack "
                    f"depth {known} vs {depth} at pc {succ}"
                )
    return depths


class _Emitter:
    """Builds the source of one generated function."""

    def __init__(self):
        self.lines: list = []
        self.constants: dict = {}
        self.depth = 0         # static stack depth
        self.pending = 0       # static cycles not yet added to c
        self.dirty = False     # c may be non-zero
        self.uses_c = False
        self.indent = ""

    # -- source helpers ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def const(self, value) -> str:
        kind = type(value)
        if value is None or kind in (bool, str, int) or (
                kind is float and math.isfinite(value)):
            return repr(value)
        name = f"_k{len(self.constants)}"
        self.constants[name] = value
        return name

    # -- the stack ------------------------------------------------------

    def pop(self) -> str:
        self.depth -= 1
        return f"s{self.depth}"

    def pop_n(self, n: int) -> list:
        self.depth -= n
        return [f"s{i}" for i in range(self.depth, self.depth + n)]

    def push(self, expr: str) -> None:
        self.emit(f"s{self.depth} = {expr}")
        self.depth += 1

    # -- cycles -----------------------------------------------------------

    def charge(self, amount: int) -> None:
        self.pending += amount

    def charge_dynamic(self, expr: str) -> None:
        self.emit(f"c += {expr}")
        self.dirty = self.uses_c = True

    def settle(self) -> None:
        """Fold the static cycles into c (end of a block)."""
        if self.pending:
            self.emit(f"c += {self.pending}")
            self.dirty = self.uses_c = True
            self.pending = 0

    def flush(self, reset: bool = True) -> None:
        """Add the frame's unflushed cycles to interp.cycles."""
        if self.dirty:
            amount = f"c + {self.pending}" if self.pending else "c"
            self.emit(f"self.cycles += {amount}")
            if reset:
                self.emit("c = 0")
        elif self.pending:
            self.emit(f"self.cycles += {self.pending}")
        self.pending = 0
        self.dirty = False

    def exit_lines(self) -> list:
        """Falling off a void body: flush and return None. Used after
        :meth:`settle`, so only ``c`` can be outstanding."""
        if self.dirty:
            return ["self.cycles += c", "return None"]
        return ["return None"]

    # -- instructions -----------------------------------------------------

    def instruction(self, op, operand) -> None:
        self.charge(isa.CYCLE_COST[op])
        getattr(self, "op_" + op)(operand)

    def op_CONST(self, value):
        self.push(self.const(value))

    def op_LOAD(self, slot):
        self.push(f"l{slot}")

    def op_STORE(self, slot):
        self.emit(f"l{slot} = {self.pop()}")

    def op_POP(self, _):
        self.pop()

    def op_DUP(self, _):
        self.push(f"s{self.depth - 1}")

    def op_BINOP(self, operand):
        op, typename = operand
        self.charge(isa.BINOP_EXTRA.get((op, typename), 0))
        right = self.pop()
        left = self.pop()
        self.push(_binary(op, typename, left, right, self.const))

    def op_UNOP(self, operand):
        op, typename = operand
        value = self.pop()
        if op == "!":
            self.push(f"not {value}")
        elif op == "-" and typename in _WRAP:
            self.push(_wrap(f"-{value}", typename))
        elif op == "-" and typename == "double":
            self.push(f"float(-{value})")
        elif op == "-" and typename == "float":
            self.push(f"_unpack(_pack(-{value}))[0]")
        else:
            self.push(
                f"_unary({op!r}, {value}, {self.const(typename)})"
            )

    def op_CAST(self, typename):
        value = self.pop()
        if typename == "double":
            self.push(f"float({value})")
        elif typename == "float":
            self.push(f"_unpack(_pack(float({value})))[0]")
        elif typename in _WRAP:
            # int(Bit) is 0 or 1, which the wrap leaves alone.
            self.push(_wrap(value, typename))
        else:
            self.push(f"_cast({value}, {typename!r})")

    # Lime arrays are ValueArray/MutableArray, both a Python list in
    # ``_items``: reading it directly skips two dunder calls per access.
    # Stores still go through __setitem__, which coerces the element.

    def op_ALOAD(self, _):
        index = self.pop()
        array = self.pop()
        self.emit(f"if not 0 <= {index} < len({array}._items): "
                  f"_oob({index}, {array})")
        self.push(f"{array}._items[{index}]")

    def op_ASTORE(self, _):
        value = self.pop()
        index = self.pop()
        array = self.pop()
        self.emit(f"if not 0 <= {index} < len({array}._items): "
                  f"_oob({index}, {array})")
        self.emit(f"{array}[{index}] = {value}")

    def op_LEN(self, _):
        self.push(f"len({self.pop()}._items)")

    def op_NEWARRAY(self, kind):
        length = self.pop()
        self.charge_dynamic(f"max({length}, 0)")
        self.push(f"_allocate({self.const(kind)}, {length})")

    def op_FREEZE(self, _):
        array = self.pop()
        self.charge_dynamic(f"len({array})")
        self.push(f"{array}.freeze()")

    def op_GETFIELD(self, name):
        self.push(f"{self.pop()}.get({name!r})")

    def op_PUTFIELD(self, name):
        value = self.pop()
        obj = self.pop()
        self.emit(f"{obj}.set({name!r}, {value})")

    def op_GETSTATIC(self, key):
        self.push(f"self.statics.get({key!r})")

    def op_PUTSTATIC(self, key):
        self.emit(f"self.statics[{key!r}] = {self.pop()}")

    def op_NEWOBJ(self, class_name):
        self.emit(f"meta = self.program.classes[{class_name!r}]")
        self.push(
            f"_Struct({class_name!r}, meta.field_names, meta.is_value)"
        )

    def op_FREEZEOBJ(self, _):
        self.push(f"{self.pop()}.freeze()")

    def op_CALL(self, operand):
        callee, nargs, returns = operand
        args = ", ".join(self.pop_n(nargs))
        self.flush()
        call = f"self.call({callee!r}, [{args}])"
        if returns:
            self.push(call)
        else:
            self.emit(call)

    def op_INTRINSIC(self, operand):
        name, nargs, returns = operand
        self.charge(isa.INTRINSIC_COST.get(name, 5))
        args = self.pop_n(nargs)
        fn = _MATH_FUNCTIONS.get(name)
        if fn is not None:
            floats = ", ".join(f"float({a})" for a in args)
            call = f"{self.const(fn)}({floats})"
            if name in ("Math.floor", "Math.ceil"):
                call = f"float({call})"  # the others return a float
        elif name == "bit.~":
            call = f"~{args[0]}"
        else:
            call = f"self._intrinsic({name!r}, [{', '.join(args)}])"
        if returns:
            self.push(call)
        else:
            self.emit(call)

    def op_RET(self, _):
        self.flush(reset=False)
        self.emit("return None")

    def op_RETV(self, _):
        value = self.pop()
        self.flush(reset=False)
        self.emit(f"return {value}")

    def op_MAP(self, operand):
        method, nargs, elem_kind, broadcast = operand
        self.emit(f"map_args = [{', '.join(self.pop_n(nargs))}]")
        self.emit(f"_check_map(map_args, {broadcast!r})")
        self.flush()
        self.push(
            f"_ValueArray({self.const(elem_kind)}, "
            f"self.services.execute_map({method!r}, map_args, "
            f"{broadcast!r}, self))"
        )

    def op_REDUCE(self, method):
        array = self.pop()
        self.flush()
        self.push(f"self.services.execute_reduce({method!r}, {array}, self)")

    def op_MKSOURCE(self, operand):
        rate, task_id = operand
        self.push(f"self.services.make_source({self.pop()}, "
                  f"{self.const(rate)}, {task_id!r})")

    def op_MKSINK(self, task_id):
        self.push(f"self.services.make_sink({self.pop()}, {task_id!r})")

    def op_MKTASK(self, operand):
        method, task_id, arity, relocatable, has_instance = operand
        instance = self.pop() if has_instance else "None"
        self.push(
            f"self.services.make_task({method!r}, {task_id!r}, "
            f"{self.const(arity)}, {self.const(relocatable)}, {instance})"
        )

    def op_CONNECT(self, _):
        right = self.pop()
        left = self.pop()
        self.push(f"self.services.connect({left}, {right})")

    def op_GRAPH_START(self, operand):
        blocking, graph_id = operand
        graph = self.pop()
        self.flush()
        self.emit(f"self.services.graph_start({graph}, {blocking!r}, "
                  f"{graph_id!r}, self)")


def _wrap(expr: str, typename: str) -> str:
    """Two's-complement wrap; ``int()`` because an int-typed operation
    may see a float operand (``x += 2.5`` narrows back to int)."""
    half, mask = _WRAP[typename]
    return f"((int({expr}) + {half}) & {mask}) - {half}"


def _binary(op, typename, left, right, const) -> str:
    fallback = f"_binary({op!r}, {left}, {right}, {const(typename)})"
    if typename == "String":
        return fallback
    if op in _COMPARE:
        return f"{left} {op} {right}"
    if op in _BITWISE:
        return f"{left} {op} {right}"
    if op in ("+", "-", "*"):
        if typename in _WRAP:
            return _wrap(f"{left} {op} {right}", typename)
        if typename in _ROUND:
            return _ROUND[typename].format(f"{left} {op} {right}")
    if op == "/" and typename in _ROUND:
        # A zero divisor takes apply_binary's signed-infinity path.
        rounded = _ROUND[typename].format(f"{left} / {right}")
        return f"{rounded} if {right} else {fallback}"
    if op == "%" and typename in _ROUND:
        return _ROUND[typename].format(f"_fmod({left}, {right})")
    if op in ("/", "%") and typename in _WRAP:
        helper = "_idiv" if op == "/" else "_irem"
        return _wrap(f"{helper}({left}, {right})", typename)
    if op in ("<<", ">>") and typename in _WRAP:
        bits = 63 if typename == "long" else 31
        return _wrap(f"{left} {op} ({right} & {bits})", typename)
    return fallback


def _blocks(code, depths) -> list:
    """Reachable basic-block leaders in pc order."""
    leaders = {0}
    for pc, (op, operand) in enumerate(code):
        if pc not in depths:
            continue
        if op in _JUMPS:
            leaders.add(operand)
            leaders.add(pc + 1)
        elif op in _EXITS:
            leaders.add(pc + 1)
    return sorted(pc for pc in leaders if pc in depths and pc < len(code))


def _translate(function: isa.CompiledFunction):
    code = function.code
    depths = _depths(function)
    leaders = _blocks(code, depths)
    index = {pc: i for i, pc in enumerate(leaders)}
    index[len(code)] = None  # the fall-off exit
    jumps = [
        (bisect.bisect_right(leaders, pc) - 1, index[operand])
        for pc, (op, operand) in enumerate(code)
        if pc in depths and op in _JUMPS
    ]
    looping = any(t is not None and t <= b for b, t in jumps)
    targeted = {t for _, t in jumps}

    em = _Emitter()
    dispatch = len(leaders) > 1
    base = "        " if looping else "    "
    for i, start in enumerate(leaders):
        end = leaders[i + 1] if i + 1 < len(leaders) else len(code)
        em.indent = base
        if dispatch:
            em.emit(f"if b == {i}:")
            em.indent = base + "    "
        em.depth = depths[start]
        em.dirty = i > 0 or i in targeted
        em.uses_c |= em.dirty
        em.pending = 0
        _emit_block(em, code, start, end, i, index)

    head = ["def run(self, args):"]
    params = [f"l{i}" for i in range(function.num_params)]
    if params:
        head.append(f"    {', '.join(params)}, = args")
    others = [
        f"l{i}" for i in range(function.num_params, function.num_locals)
    ]
    if others:
        head.append(f"    {' = '.join(others)} = None")
    if em.uses_c:
        head.append("    c = 0")
    if dispatch:
        head.append("    b = 0")
    if looping:
        head.append("    while True:")
    namespace = dict(_NAMESPACE)
    namespace.update(em.constants)
    source = "\n".join(head + em.lines) + "\n"
    label = f"<bytecode {function.qualified_name}>"
    return build_function(source, "run", label, namespace)


def _emit_block(em, code, start, end, i, index):
    """Emit block ``i`` (pcs ``start`` to ``end``) and its exit."""

    def goto(target_pc) -> list:
        target = index[target_pc]
        if target is None:
            return em.exit_lines()
        if target <= i:
            return [f"b = {target}", "continue"]
        return [f"b = {target}"]

    for pc in range(start, end):
        op, operand = code[pc]
        if op == isa.JMP:
            em.charge(isa.CYCLE_COST[op])
            em.settle()
            for line in goto(operand):
                em.emit(line)
            return
        if op in (isa.JZ, isa.JNZ):
            em.charge(isa.CYCLE_COST[op])
            cond = em.pop()
            em.settle()
            em.emit(f"if {cond if op == isa.JNZ else 'not ' + cond}:")
            for line in goto(operand):
                em.emit("    " + line)
            em.emit("else:")
            for line in goto(pc + 1):
                em.emit("    " + line)
            return
        em.instruction(op, operand)
        if op in _EXITS:
            return
    # Fall through into the next block, or off the end of the body.
    em.settle()
    for line in goto(end):
        em.emit(line)
