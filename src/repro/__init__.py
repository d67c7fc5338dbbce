"""Liquid Metal reproduction: a compiler and runtime for heterogeneous
computing (Auerbach et al., DAC 2012).

The package implements the Lime language frontend, a task-graph IR,
three backend compilers (bytecode/CPU, OpenCL/GPU, Verilog/FPGA),
simulated devices, and the co-execution runtime.

Typical entry points::

    from repro import CompilerSession, Runtime

    result = CompilerSession().compile(lime_source)
    runtime = Runtime(result)
    runtime.call("Main", "run")
"""

from repro.errors import LiquidMetalError

__version__ = "1.0.0"


_LAZY_ATTRS = {
    "Runtime": ("repro.runtime.engine", "Runtime"),
    "RuntimeConfig": ("repro.runtime.engine", "RuntimeConfig"),
    "compile_report": ("repro.compiler", "compile_report"),
    "CompileOptions": ("repro.compiler", "CompileOptions"),
    "CompilerSession": ("repro.compiler", "CompilerSession"),
    "CacheOptions": ("repro.backends.artifacts", "CacheOptions"),
    "ArtifactCache": ("repro.backends.artifacts", "ArtifactCache"),
    "Tracer": ("repro.obs", "Tracer"),
    "NULL_TRACER": ("repro.obs", "NULL_TRACER"),
    "CoExecutionService": ("repro.service", "CoExecutionService"),
    "ServiceConfig": ("repro.service", "ServiceConfig"),
    "DevicePool": ("repro.service", "DevicePool"),
    "AdmissionController": ("repro.service", "AdmissionController"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "AdmissionController",
    "ArtifactCache",
    "CacheOptions",
    "CoExecutionService",
    "CompileOptions",
    "CompilerSession",
    "DevicePool",
    "LiquidMetalError",
    "NULL_TRACER",
    "Runtime",
    "RuntimeConfig",
    "ServiceConfig",
    "Tracer",
    "compile_report",
]
