"""Operator semantics shared by the bytecode interpreter and the GPU
simulator (both execute the same operations; only timing differs).

Integer arithmetic wraps in two's complement (JVM semantics); division
and remainder truncate toward zero; ``float`` operations round through
binary32 so CPU and device results agree bit-for-bit.
"""

from __future__ import annotations

import math
import struct

from repro.errors import DeviceError
from repro.values.bits import Bit

_INT_SPAN = 1 << 32
_INT_HALF = 1 << 31
_LONG_SPAN = 1 << 64
_LONG_HALF = 1 << 63

#: ``(half, mask)`` per integer type, for code generated with the wrap
#: inline: ``((v + half) & mask) - half`` equals wrap_int/wrap_long(v).
WRAP_CONSTANTS = {
    "int": (_INT_HALF, _INT_SPAN - 1),
    "long": (_LONG_HALF, _LONG_SPAN - 1),
}


def wrap_int(value: int) -> int:
    value &= _INT_SPAN - 1
    return value - _INT_SPAN if value >= _INT_HALF else value


def wrap_long(value: int) -> int:
    value &= _LONG_SPAN - 1
    return value - _LONG_SPAN if value >= _LONG_HALF else value


def to_float32(value: float) -> float:
    """Round a Python float through IEEE-754 binary32."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


def java_idiv(left: int, right: int) -> int:
    if right == 0:
        raise DeviceError("integer division by zero")
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def java_irem(left: int, right: int) -> int:
    if right == 0:
        raise DeviceError("integer remainder by zero")
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


def apply_binary(op: str, left, right, typename: str):
    """Evaluate one binary operator with Lime/Java semantics.

    ``typename`` is the *result* type name for arithmetic ('int',
    'long', 'float', 'double', 'boolean', 'bit', 'String').
    """
    if typename == "String":
        return _to_display(left) + _to_display(right)
    if op == "+":
        result = left + right
    elif op == "-":
        result = left - right
    elif op == "*":
        result = left * right
    elif op == "/":
        if typename in ("int", "long"):
            return _wrap(java_idiv(left, right), typename)
        result = left / right if right != 0 else math.inf * (1 if left > 0 else -1 if left < 0 else math.nan)
    elif op == "%":
        if typename in ("int", "long"):
            return _wrap(java_irem(left, right), typename)
        result = math.fmod(left, right)
    elif op == "<<":
        return _wrap(left << (right & (63 if typename == "long" else 31)), typename)
    elif op == ">>":
        return _wrap(left >> (right & (63 if typename == "long" else 31)), typename)
    elif op == "&":
        return left & right
    elif op == "|":
        return left | right
    elif op == "^":
        return left ^ right
    elif op == "==":
        return left == right
    elif op == "!=":
        return left != right
    elif op == "<":
        return left < right
    elif op == ">":
        return left > right
    elif op == "<=":
        return left <= right
    elif op == ">=":
        return left >= right
    elif op == "&&":
        return bool(left) and bool(right)
    elif op == "||":
        return bool(left) or bool(right)
    else:
        raise DeviceError(f"unknown binary operator {op!r}")
    return _wrap(result, typename)


def _wrap(value, typename: str):
    if typename == "int":
        return wrap_int(int(value))
    if typename == "long":
        return wrap_long(int(value))
    if typename == "float":
        return to_float32(float(value))
    if typename == "double":
        return float(value)
    return value


def apply_unary(op: str, operand, typename: str):
    if op == "-":
        return _wrap(-operand, typename)
    if op == "!":
        return not operand
    if op == "~":
        if isinstance(operand, Bit):
            return ~operand
        return _wrap(~operand, typename)
    raise DeviceError(f"unknown unary operator {op!r}")


def apply_cast(value, typename: str):
    if typename == "int":
        if isinstance(value, Bit):
            return int(value)
        return wrap_int(int(value))
    if typename == "long":
        return wrap_long(int(value))
    if typename == "float":
        return to_float32(float(value))
    if typename == "double":
        return float(value)
    if typename == "bit":
        return Bit(int(value) & 1)
    if typename == "boolean":
        return bool(value)
    raise DeviceError(f"cannot cast to {typename!r}")


_MATH_FUNCTIONS = {
    "Math.sqrt": math.sqrt,
    "Math.exp": math.exp,
    "Math.log": math.log,
    "Math.sin": math.sin,
    "Math.cos": math.cos,
    "Math.tan": math.tan,
    "Math.pow": math.pow,
    "Math.floor": math.floor,
    "Math.ceil": math.ceil,
}


def apply_math(name: str, args: list, result_typename: str = "double"):
    """Evaluate a Math.* intrinsic; abs/min/max follow the result type."""
    if name == "Math.abs":
        result = abs(args[0])
    elif name == "Math.min":
        result = min(args)
    elif name == "Math.max":
        result = max(args)
    else:
        fn = _MATH_FUNCTIONS.get(name)
        if fn is None:
            raise DeviceError(f"unknown math intrinsic {name!r}")
        result = fn(*[float(a) for a in args])
    if result_typename in ("int", "long"):
        return _wrap(int(result), result_typename)
    if name in ("Math.floor", "Math.ceil"):
        return float(result)
    return _wrap(result, result_typename)


def _to_display(value) -> str:
    """Convert a runtime value to the string concatenation form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
